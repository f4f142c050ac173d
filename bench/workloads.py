"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Each workload has a ``setup(seed, workdir)`` that builds its inputs through
``dfgp.synth`` (or the ``simulate`` command) and a ``run(inputs, tracer)``
that times one operation, checks its outputs and scores them against the
simulated truth.  The seed reaches the program only through the generated
inputs.  The program is called through module attributes (``dynamics.x``)
so that a tracer's wrappers are the functions actually called.
"""

from __future__ import annotations

import contextlib
import math
import resource
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import norm

from dfgp import cli, config, dynamics, estimate, synth
from dfgp import io as dio


@dataclass
class Outcome:
    """What one run of a workload's operation produced."""

    seconds: float          # wall time of the operation alone
    attempted: int
    failed: int
    rmspe: float
    crps: float
    peak_rss_mb: float      # of this process, read right after the operation


def _scenario(nx: int, counts: tuple[int, ...], T: int, seed: int) -> synth.ScenarioConfig:
    """Two instruments: single cells with swath gaps and 30% drop, and 4x4
    blocks with 10% drop; true parameters are the ScenarioConfig defaults."""
    fine = synth.InstrumentSpec(block=1, sigma2_eps=0.25, swath_width=8, swath_period=20,
                                swath_shift=7, drop_rate=0.3)
    coarse = synth.InstrumentSpec(block=4, sigma2_eps=0.04, drop_rate=0.1)
    return synth.ScenarioConfig(nx=nx, ny=nx, T=T, basis_counts=counts,
                                instruments=(fine, coarse), seed=seed)


def eval_bau(nx: int, n: int) -> np.ndarray:
    """n fixed BAUs on an even lattice (4 rows), independent of the seed."""
    rows, cols = 4, n // 4
    ys = ((np.arange(rows) + 0.5) * nx / rows).astype(np.int64)
    xs = ((np.arange(cols) + 0.5) * nx / cols).astype(np.int64)
    return (ys[:, None] * nx + xs[None, :]).ravel()


def scores(mean: np.ndarray, stderr: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """RMSPE and mean Gaussian CRPS of (mean, stderr) against the truth."""
    err = mean - truth
    z = err / stderr
    crps = stderr * (z * (2.0 * norm.cdf(z) - 1.0) + 2.0 * norm.pdf(z) - 1.0 / math.sqrt(math.pi))
    return float(np.sqrt(np.mean(err ** 2))), float(np.mean(crps))


def _finite(*xs) -> bool:
    return all(np.isfinite(np.asarray(x, dtype=float)).all() for x in xs)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _smooth_fields(data, params, pred, T):
    filt = dynamics.filter_pass(data, params, pred_bau=pred, want_variance=True)
    sm = dynamics.smoother_pass(filt, params)
    return filt, [dynamics.predict_smooth(sm, data, params, t, pred) for t in range(1, T + 1)]


def _field_scores(fields, truth_eval) -> tuple[float, float]:
    mean = np.concatenate([f.mean for f in fields])
    sd = np.concatenate([f.stderr for f in fields])
    return scores(mean, sd, truth_eval.ravel())


@dataclass(frozen=True)
class SmoothWorkload:
    """filter_pass(want_variance=True) + smoother_pass + predict_smooth at a
    few fixed BAUs, under the true parameters.  One operation is one filter
    step."""

    name: str = "smooth-65k"
    nx: int = 256
    counts: tuple[int, ...] = (9, 25, 65)
    T: int = 6              # not 8: keeps a check of all workloads inside its hour
    n_pred: int = 32
    setup_reps: int = 1     # one set-up takes ~23 s
    spans: tuple[str, ...] = (
        "car.factorize", "car.logdet", "car.sample", "car.solve", "car.selected_diag",
        "dynamics.filter_step", "dynamics.smoother", "dynamics.predict",
        "grid.mc_average", "basis.bau_basis_values", "model.assemble")

    def setup(self, seed: int, workdir: Path) -> dict:
        truth, _batches, data = synth.scenario_data(_scenario(self.nx, self.counts, self.T, seed))
        pred = eval_bau(self.nx, self.n_pred)
        return {"data": data, "params": truth.params, "pred": pred,
                "truth_eval": truth.y[:, pred]}

    def run(self, inputs: dict, tracer=None) -> Outcome:
        data, params, pred = inputs["data"], inputs["params"], inputs["pred"]
        t0 = time.perf_counter()
        try:
            with tracer or contextlib.nullcontext():
                filt, fields = _smooth_fields(data, params, pred, self.T)
        except Exception:
            traceback.print_exc()
            return Outcome(time.perf_counter() - t0, self.T, self.T, math.nan, math.nan,
                           _peak_rss_mb())
        seconds, rss = time.perf_counter() - t0, _peak_rss_mb()
        failed = sum(not _finite(st.eta, st.P, st.logdet_sigma, st.quad, f.mean, f.stderr)
                     for st, f in zip(filt.states, fields))
        return Outcome(seconds, self.T, failed, *_field_scores(fields, inputs["truth_eval"]), rss)


@dataclass(frozen=True)
class SemWorkload:
    """run_estimator in SEM mode from init_params.  One operation is one EM
    iteration.  The fitted parameters are scored, untimed, by a smoothing
    pass at a few fixed BAUs."""

    name: str = "sem-10k"
    nx: int = 100
    counts: tuple[int, ...] = (9, 25, 65)
    T: int = 8
    max_iter: int = 3
    n_pred: int = 32
    setup_reps: int = 2
    spans: tuple[str, ...] = (
        "car.factorize", "car.logdet", "car.sample", "car.solve",
        "dynamics.filter_step", "dynamics.smoother",
        "estimate.e_step", "estimate.m_step", "estimate.optimize_gamma",
        "grid.mc_average", "basis.bau_basis_values", "model.assemble")

    def setup(self, seed: int, workdir: Path) -> dict:
        truth, _batches, data = synth.scenario_data(_scenario(self.nx, self.counts, self.T, seed))
        pred = eval_bau(self.nx, self.n_pred)
        return {"data": data, "seed": seed, "pred": pred, "truth_eval": truth.y[:, pred]}

    def run(self, inputs: dict, tracer=None) -> Outcome:
        data, pred = inputs["data"], inputs["pred"]
        cfg = estimate.EstimatorConfig(mode="sem", max_iter=self.max_iter, seed=inputs["seed"])
        t0 = time.perf_counter()
        try:
            with tracer or contextlib.nullcontext():
                fit = estimate.run_estimator(data, cfg)
        except Exception:
            traceback.print_exc()
            return Outcome(time.perf_counter() - t0, self.max_iter, self.max_iter,
                           math.nan, math.nan, _peak_rss_mb())
        seconds, rss = time.perf_counter() - t0, _peak_rss_mb()
        failed = int((~np.isfinite(fit.trace)).sum())
        rmspe = crps = math.nan
        try:
            _filt, fields = _smooth_fields(data, fit.params, pred, self.T)
            rmspe, crps = _field_scores(fields, inputs["truth_eval"])
        except Exception:
            traceback.print_exc()
        if not _finite(fit.params.flat(), rmspe, crps):
            failed += 1  # the estimate the last iteration produced is unusable
        return Outcome(seconds, fit.n_iter, min(failed, fit.n_iter), rmspe, crps, rss)


_CLI_CONFIG = """\
[run]
seed = {seed}
protocol = smoothing

[grid]
nx = {nx}
ny = {nx}

[basis]
counts = {counts}

[data]
observations = observations.csv
footprints = footprints.csv

[scenario]
T = {T}
fine_drop_rate = 0.3
coarse_block = 4
coarse_drop_rate = 0.1
"""


@dataclass(frozen=True)
class CliSmoothWorkload:
    """``dfgp smooth`` in-process: standard errors at every BAU and time.

    Set-up runs ``dfgp simulate`` and writes params.csv with the true
    parameters, so the command reads them instead of fitting.  The config
    file sits in the output directory and every run uses a fresh copy of
    that directory.  Both work around defects of the CLI: ``simulate``
    writes data under ``--out`` while ``smooth`` reads it relative to the
    config file, and the manifest hashes every CSV in the output directory,
    stale ones included.  One operation is one command.
    """

    name: str = "cli-smooth-4k"
    nx: int = 64
    counts: tuple[int, ...] = (9, 25, 65)
    T: int = 8
    setup_reps: int = 3
    spans: tuple[str, ...] = (
        "car.factorize", "car.logdet", "car.sample", "car.solve", "car.selected_diag",
        "dynamics.filter_step", "dynamics.smoother", "dynamics.predict",
        "grid.mc_average", "basis.bau_basis_values", "model.assemble",
        "io.read", "io.write")

    def setup(self, seed: int, workdir: Path) -> dict:
        workdir.mkdir(parents=True)
        ini = workdir / "run.ini"
        ini.write_text(_CLI_CONFIG.format(seed=seed, nx=self.nx, T=self.T,
                                          counts=",".join(map(str, self.counts))))
        rc = cli.main(["simulate", "--config", str(ini), "--out", str(workdir)])
        if rc != 0:
            raise RuntimeError(f"dfgp simulate exited with {rc}")
        cfg = config.load_config(ini)
        r = cfg.build_basis(cfg.build_grid()).r
        dio.write_params(workdir / "params.csv", synth.true_params(cfg.scenario_config(), r))
        return {"dir": str(workdir)}

    def run(self, inputs: dict, tracer=None) -> Outcome:
        template = Path(inputs["dir"])
        out = template.with_name(template.name + f"-run{time.monotonic_ns()}")
        shutil.copytree(template, out)
        t0 = time.perf_counter()
        try:
            with tracer or contextlib.nullcontext():
                rc = cli.main(["smooth", "--config", str(out / "run.ini"), "--out", str(out)])
        except Exception:
            traceback.print_exc()
            rc = -1
        seconds, rss = time.perf_counter() - t0, _peak_rss_mb()
        rmspe = crps = math.nan
        ok = False
        if rc == 0:
            pred = np.loadtxt(out / "predictions_smooth.csv", delimiter=",", skiprows=1, ndmin=2)
            truth = np.loadtxt(out / "truth.csv", delimiter=",", skiprows=1, ndmin=2)
            n = self.nx * self.nx * self.T
            if pred.shape[0] == n and truth.shape[0] == n and _finite(pred):
                key = lambda a: np.lexsort((a[:, 1], a[:, 0]))  # noqa: E731
                pred, truth = pred[key(pred)], truth[key(truth)]
                if np.array_equal(pred[:, :2], truth[:, :2]):
                    rmspe, crps = scores(pred[:, 2], pred[:, 3], truth[:, 2])
                    ok = _finite(rmspe, crps)
        else:
            print(f"dfgp smooth exited with {rc}")
        shutil.rmtree(out, ignore_errors=True)
        return Outcome(seconds, 1, 0 if ok else 1, rmspe, crps, rss)


WORKLOADS = {w.name: w for w in (SmoothWorkload(), SemWorkload(), CliSmoothWorkload())}
