"""Hold-out cross-validation harness.

Replicates the block + random hold-out design: a contiguous block region
(long-range skill) over a time range, plus a random fraction of the
remaining fine-instrument observations (short-range skill).  The filtering
protocol fits on Z_{1:u} and scores only the time-u holdouts, per horizon u
up to the last held-out time; the smoothing protocol fits once on Z_{1:T}
and scores all holdouts at t = 1..T-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import LocalKrigeSettings, local_krige
from .dynamics import filter_pass, predict_filter, predict_smooth, smoother_pass
from .estimate import EstimationResult, EstimatorConfig, fit_filtering_sequence, run_estimator
from .grid import BAUGrid, Observations
from .model import ModelData, assemble
from .scoring import crps_gaussian, rmspe

METHODS = ("dfgp", "lowrank", "localkrige")
PROTOCOLS = ("filtering", "smoothing")


def check_methods(methods) -> None:
    """Reject an empty method list, an unknown method and one named twice."""
    choose = f"choose from {', '.join(METHODS)}"
    if not methods:
        raise ValueError(f"methods: none given; {choose}")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"methods: unknown {', '.join(unknown)}; {choose}")
    twice = sorted({m for m in methods if methods.count(m) > 1})
    if twice:
        raise ValueError(f"methods: {', '.join(twice)} named twice")


@dataclass(frozen=True)
class HoldoutPlan:
    """Block region [x0, x1] x [y0, y1] over times t_first..t_last, plus a
    random fraction of the rest; the [holdout] section of a run config."""

    x0: float = 0.0
    x1: float = 0.0
    y0: float = 0.0
    y1: float = 0.0
    t_first: int = 2
    t_last: int = 8
    fraction: float = 0.1
    instrument: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.fraction < 1.0):
            raise ValueError(f"fraction must lie in (0, 1), got {self.fraction}")
        for lo, hi in (("x0", "x1"), ("y0", "y1")):
            if getattr(self, lo) > getattr(self, hi):
                raise ValueError(f"{lo} {getattr(self, lo)} > {hi} {getattr(self, hi)}: "
                                 "inverted holdout block")
        if self.t_first > self.t_last:
            raise ValueError(f"t_first {self.t_first} > t_last {self.t_last}: "
                             "empty holdout time range")
        if self.instrument < 1:
            raise ValueError(f"instrument must be >= 1, got {self.instrument}")


@dataclass
class CVRow:
    method: str
    protocol: str
    time_index: int | str            # int or "all"
    subset: str
    rmspe: float
    crps: float
    n: int


@dataclass
class CVResult:
    held: Observations               # the held-out records
    block: np.ndarray                # (n_held,) True for a block hold-out, False for random
    rows: list[CVRow] = field(default_factory=list)
    predictions: dict = field(default_factory=dict)   # method -> (mean, se) aligned with held


def holdout_bau(held: Observations) -> np.ndarray:
    """The BAU of each held-out record: the single one its footprint covers."""
    return held.fp_indices[held.fp_indptr[held.footprint]]


def fit_protocol(data: ModelData, config: EstimatorConfig,
                 protocol: str) -> dict[int, EstimationResult]:
    """The fits a protocol predicts from, by horizon: one on Z_{1:u} for each
    u = 2..T under filtering, one on Z_{1:T} under smoothing."""
    if protocol == "smoothing":
        return {data.T: run_estimator(data, config)}
    return fit_filtering_sequence(data, config)


def _footprint_centroids(obs: Observations, grid: BAUGrid) -> np.ndarray:
    """(n_footprints, 2) mean of the covered BAU centroids.  Footprints are
    grouped by size, which sums each mean in the same order as a mean taken
    footprint by footprint (np.add.reduceat does not)."""
    cents = grid.centroids
    sizes = np.diff(obs.fp_indptr)
    out = np.empty((sizes.size, 2))
    for m in np.unique(sizes):
        rows = np.flatnonzero(sizes == m)
        out[rows] = cents[obs.fp_indices[obs.fp_indptr[rows, None] + np.arange(m)]].mean(axis=1)
    return out


def scored_times(protocol: str, T: int) -> list[int]:
    """The times a protocol scores: 2..T under filtering, 1..T-1 under smoothing."""
    return list(range(2, T + 1)) if protocol == "filtering" else list(range(1, T))


def split_holdout(obs: Observations, grid: BAUGrid, plan: HoldoutPlan,
                  protocol: str) -> tuple[Observations, Observations, np.ndarray]:
    """Partition the fine-instrument records into (train, held, block): two
    record sets over obs's footprint table, in record order, and whether each
    held-out record is a block (else a random) hold-out.

    A record the plan chooses at a time the protocol does not score stays in
    training; the random draw still covers every candidate, so the scored
    hold-outs are the same under either protocol.  Holdout footprints must
    cover exactly one BAU (the fine instrument); coarse instruments always
    stay in training.  Choosing no record, or none at a scored time, is an error.
    """
    rng = np.random.default_rng(plan.seed)
    cand = np.flatnonzero((obs.instrument == plan.instrument)
                          & (obs.time >= plan.t_first) & (obs.time <= plan.t_last))
    c = _footprint_centroids(obs, grid)[obs.footprint[cand]]
    in_block = ((plan.x0 <= c[:, 0]) & (c[:, 0] <= plan.x1)
                & (plan.y0 <= c[:, 1]) & (c[:, 1] <= plan.y1))
    chosen = in_block | (rng.uniform(size=cand.size) < plan.fraction)
    rows = cand[chosen]
    if not rows.size:
        raise ValueError(f"the holdout plan selects no record of instrument {plan.instrument} "
                         f"at times {plan.t_first}..{plan.t_last}")
    times = scored_times(protocol, obs.n_times)
    scored = np.isin(obs.time[rows], times)
    if not scored.any():
        scores = f"times {times[0]}..{times[-1]}" if times else "no time"
        raise ValueError(f"the holdout plan selects records at times "
                         f"{','.join(map(str, np.unique(obs.time[rows])))} only, but "
                         f"protocol = {protocol} scores {scores}")
    rows = rows[scored]
    if (np.diff(obs.fp_indptr)[obs.footprint[rows]] != 1).any():
        raise ValueError("holdout footprints must cover a single BAU")
    held = np.zeros(obs.n_obs, dtype=bool)
    held[rows] = True
    return obs.subset(~held), obs.subset(held), in_block[chosen][scored]


def _score_rows(method: str, protocol: str, held: Observations, block: np.ndarray,
                mean: np.ndarray, se: np.ndarray, times: list[int]) -> list[CVRow]:
    """Per-time and overall RMSPE/CRPS rows of the held-out records at the
    scored times, overall and per subset."""
    rows = []
    scored = np.isin(held.time, times)
    for subset, member in (("all", True), ("block", block), ("random", ~block)):
        sub = scored & member
        for t in [*times, "all"]:
            recs = sub if t == "all" else sub & (held.time == t)
            if not recs.any():
                continue
            mu, y = mean[recs], held.value[recs]
            rows.append(CVRow(method, protocol, t, subset, rmspe(mu, y),
                              float(np.mean(crps_gaussian(mu, np.maximum(se[recs], 1e-12), y))),
                              int(recs.sum())))
    return rows


def _dfgp_predictions(data: ModelData, held: Observations, bau: np.ndarray,
                      protocol: str, est_config: EstimatorConfig):
    """(mean, se) at the held-out records.  The filtering protocol fits up
    to the last held-out time only."""
    mean, se = np.full((2, held.n_obs), np.nan)
    filtering = protocol == "filtering"
    fits = fit_protocol(data.horizon(held.time.max()) if filtering else data,
                        est_config, protocol)
    predict = predict_filter if filtering else predict_smooth
    for u, fit in fits.items():
        rows = held.time == u if filtering else np.ones(held.n_obs, dtype=bool)
        if not rows.any():
            continue
        pred_bau = np.unique(bau[rows])
        at_u = data.horizon(u)
        post = filter_pass(at_u, fit.params, pred_bau=pred_bau, want_variance=True)
        if not filtering:
            post = smoother_pass(post, fit.params)
        for t in np.unique(held.time[rows]):
            at = rows & (held.time == t)
            fld = predict(post, at_u, fit.params, t, pred_bau)
            pos = np.searchsorted(pred_bau, bau[at])
            mean[at], se[at] = fld.mean[pos], fld.stderr[pos]
    return mean, se


def _localkrige_predictions(train: Observations, grid: BAUGrid, held: Observations,
                            bau: np.ndarray, settings: LocalKrigeSettings):
    """(mean, se) at the held-out records: one kriging per distinct
    (time, BAU) key."""
    coords = _footprint_centroids(train, grid)[train.footprint]
    tv = train.time.astype(float)
    keys, inverse = np.unique(held.time * grid.n_bau + bau, return_inverse=True)
    fits = np.array([local_krige(grid.centroids[b], t, coords, tv, train.value, settings)
                     for t, b in zip(*np.divmod(keys, grid.n_bau))])
    return fits[inverse, 0], np.sqrt(fits[inverse, 1])


def run_cv(obs: Observations, grid: BAUGrid, basis, structure, plan: HoldoutPlan, *,
           methods, protocol: str, est_config: EstimatorConfig,
           lk_settings: LocalKrigeSettings, covariates) -> CVResult:
    """Fit each method on the training split and score it on the holdouts.

    A holdout with no record at a time the protocol scores is an error,
    raised before any fit."""
    check_methods(methods)
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
    train, held, block = split_holdout(obs, grid, plan, protocol)
    data = (assemble(train, grid, basis, structure, covariates=covariates)
            if set(methods) != {"localkrige"} else None)
    bau = holdout_bau(held)
    result = CVResult(held, block)
    for method in methods:
        if method == "localkrige":
            preds = _localkrige_predictions(train, grid, held, bau, lk_settings)
        else:
            cfg = replace(est_config, lowrank_only=method == "lowrank")
            preds = _dfgp_predictions(data, held, bau, protocol, cfg)
        result.predictions[method] = preds
        result.rows.extend(_score_rows(method, protocol, held, block, *preds,
                                       scored_times(protocol, train.n_times)))
    return result
