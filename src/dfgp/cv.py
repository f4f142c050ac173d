"""Hold-out cross-validation harness.

Replicates the block + random hold-out design: a contiguous block region
(long-range skill) over a time range, plus a random fraction of the
remaining fine-instrument observations (short-range skill).  The filtering
protocol fits on Z_{1:u} and scores only the time-u holdouts, per horizon;
the smoothing protocol fits once on Z_{1:T} and scores all holdouts at
t = 1..T-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import LocalKrigeSettings, local_krige
from .dynamics import filter_pass, predict_filter, predict_smooth, smoother_pass
from .estimate import EstimatorConfig, fit_filtering_sequence, run_estimator
from .grid import BAUGrid, Observations
from .model import ModelData, assemble
from .scoring import crps_gaussian, rmspe

METHODS = ("dfgp", "lowrank", "localkrige")
PROTOCOLS = ("filtering", "smoothing")


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
        if self.t_first > self.t_last:
            raise ValueError(f"t_first {self.t_first} > t_last {self.t_last}: "
                             "empty holdout time range")
        if self.instrument < 1:
            raise ValueError(f"instrument must be >= 1, got {self.instrument}")


@dataclass(frozen=True)
class HoldoutRecord:
    time_index: int
    bau_index: int
    value: float
    subset: str                      # "block" or "random"


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
    rows: list[CVRow] = field(default_factory=list)
    holdout: list[HoldoutRecord] = field(default_factory=list)
    predictions: dict = field(default_factory=dict)   # method -> {(t, bau): (mean, se)}


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


def split_holdout(obs: Observations, grid: BAUGrid,
                  plan: HoldoutPlan) -> tuple[Observations, list[HoldoutRecord]]:
    """Partition the fine-instrument records into training and holdout sets.

    Holdout footprints must cover exactly one BAU (the fine instrument);
    coarse instruments always stay in training.  Selecting no record is an error.
    """
    rng = np.random.default_rng(plan.seed)
    cand = np.flatnonzero((obs.instrument == plan.instrument)
                          & (obs.time >= plan.t_first) & (obs.time <= plan.t_last))
    c = _footprint_centroids(obs, grid)[obs.footprint[cand]]
    in_block = ((plan.x0 <= c[:, 0]) & (c[:, 0] <= plan.x1)
                & (plan.y0 <= c[:, 1]) & (c[:, 1] <= plan.y1))
    held = in_block | (rng.uniform(size=cand.size) < plan.fraction)
    rows = cand[held]
    if not rows.size:
        raise ValueError(f"the holdout plan selects no record of instrument {plan.instrument} "
                         f"at times {plan.t_first}..{plan.t_last}")
    fps = obs.footprint[rows]
    if (np.diff(obs.fp_indptr)[fps] != 1).any():
        raise ValueError("holdout footprints must cover a single BAU")
    holdout = [HoldoutRecord(t, b, z, "block" if blk else "random")
               for t, b, z, blk in zip(obs.time[rows].tolist(),
                                       obs.fp_indices[obs.fp_indptr[fps]].tolist(),
                                       obs.value[rows].tolist(), in_block[held].tolist())]
    keep = np.ones(obs.n_obs, dtype=bool)
    keep[rows] = False
    return obs.subset(keep), holdout


def _score_rows(method: str, protocol: str, preds: dict[tuple[int, int], tuple[float, float]],
                holdout: list[HoldoutRecord], times: list[int]) -> list[CVRow]:
    """Aggregate per-time and overall RMSPE/CRPS rows from point predictions."""
    rows = []
    for subset in ("all", "block", "random"):
        sub = [h for h in holdout
               if (subset == "all" or h.subset == subset) and (h.time_index, h.bau_index) in preds]
        for t in [*times, "all"]:
            recs = sub if t == "all" else [h for h in sub if h.time_index == t]
            if not recs:
                continue
            mu = np.array([preds[(h.time_index, h.bau_index)][0] for h in recs])
            se = np.array([preds[(h.time_index, h.bau_index)][1] for h in recs])
            y = np.array([h.value for h in recs])
            se = np.maximum(se, 1e-12)
            rows.append(CVRow(method, protocol, t, subset,
                              rmspe(mu, y), float(np.mean(crps_gaussian(mu, se, y))),
                              len(recs)))
    return rows


def _dfgp_predictions(data: ModelData, holdout: list[HoldoutRecord], protocol: str,
                      est_config: EstimatorConfig, times: list[int]):
    preds: dict[tuple[int, int], tuple[float, float]] = {}
    if protocol == "filtering":
        fits = fit_filtering_sequence(data, est_config)
        for u in times:
            baus = sorted({h.bau_index for h in holdout if h.time_index == u})
            if not baus:
                continue
            pred_bau = np.asarray(baus)
            filt = filter_pass(data, fits[u].params, pred_bau=pred_bau, want_variance=True)
            fld = predict_filter(filt, data, fits[u].params, u, pred_bau)
            for b, m, s in zip(pred_bau, fld.mean, fld.stderr):
                preds[(u, int(b))] = (float(m), float(s))
    else:
        fit = run_estimator(data, est_config)
        baus = sorted({h.bau_index for h in holdout if h.time_index in times})
        if baus:
            pred_bau = np.asarray(baus)
            filt = filter_pass(data, fit.params, pred_bau=pred_bau, want_variance=True)
            sm = smoother_pass(filt, fit.params)
            for t in times:
                fld = predict_smooth(sm, data, fit.params, t, pred_bau)
                for b, m, s in zip(pred_bau, fld.mean, fld.stderr):
                    preds[(t, int(b))] = (float(m), float(s))
    return preds


def _localkrige_predictions(train: Observations, grid: BAUGrid,
                            holdout: list[HoldoutRecord],
                            settings: LocalKrigeSettings, times: list[int]):
    cents = grid.centroids
    coords = _footprint_centroids(train, grid)[train.footprint]
    tv = train.time.astype(float)
    zv = train.value
    preds = {}
    for h in holdout:
        if h.time_index not in times:
            continue
        key = (h.time_index, h.bau_index)
        if key in preds:
            continue
        mean, var = local_krige(cents[h.bau_index], h.time_index, coords, tv, zv, settings)
        preds[key] = (mean, float(np.sqrt(max(var, 0.0))))
    return preds


def run_cv(obs: Observations, grid: BAUGrid, basis, structure, plan: HoldoutPlan, *,
           methods, protocol: str, est_config: EstimatorConfig,
           lk_settings: LocalKrigeSettings, covariates) -> CVResult:
    """Fit each method on the training split and score it on the holdouts.

    A holdout with no record at a time the protocol scores is an error,
    raised before any fit."""
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
    train, holdout = split_holdout(obs, grid, plan)
    T = train.n_times
    times = list(range(2, T + 1)) if protocol == "filtering" else list(range(1, T))
    held = sorted({h.time_index for h in holdout})
    if not set(held).intersection(times):
        scored = f"times {times[0]}..{times[-1]}" if times else "no time"
        raise ValueError(f"the holdout plan selects records at times "
                         f"{','.join(map(str, held))} only, but protocol = {protocol} "
                         f"scores {scored}")
    data = assemble(train, grid, basis, structure, covariates=covariates)
    result = CVResult(holdout=holdout)
    for method in methods:
        if method == "localkrige":
            preds = _localkrige_predictions(train, grid, holdout, lk_settings, times)
        else:
            cfg = replace(est_config, lowrank_only=method == "lowrank")
            preds = _dfgp_predictions(data, holdout, protocol, cfg, times)
        result.predictions[method] = preds
        result.rows.extend(_score_rows(method, protocol, preds, holdout, times))
    return result
