"""Compare the numbers two source trees of dfgp produce under seed 101.

Usage: python tools/drift.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the ``dfgp`` package (a
checkout's ``src``, or the checkout itself).  Each tree is imported in its own
subprocess, with BLAS capped to one thread, and runs on the benchmark's
scenarios (``bench/workloads.py`` next to this file, read, not changed):

* smooth-65k: filter, smoother and predictions at its 32 BAUs, under the
  true parameters;
* the 64 x 64 scenario of cli-smooth-4k: the same at every BAU, plus the
  ``dfgp filter`` and ``dfgp smooth`` commands on its generated files, whose
  prediction CSVs and state checkpoints are compared too (the checkpoints
  byte for byte), and ``dfgp fit`` then ``dfgp smooth`` of the fixed-rank
  model (``[estimator] lowrank_only = true``, FIXED_RANK_ITERS iterations)
  into a subdirectory, whose predictions and trace are compared, and
  ``dfgp cv`` of dfgp and lowrank (CV_ITERS iterations) under each protocol,
  whose metrics and holdout CSVs are compared on their numeric columns;
* sem-10k: its SEM iterations from ``init_params``.

For every array the tool prints whether the two trees agree bit for bit and
the largest normwise (||a - b|| / ||a||) and elementwise (|a - b| / |a|)
relative difference, each taken over time steps (SEM iterations for the
trace) and maximised.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 101
BLAS_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
FIXED_RANK_ITERS = 3
CV_ITERS = 2


def _sweep(out: dict, prefix: str, dynamics, data, params, pred: np.ndarray) -> None:
    """Filter, smoother and both predictors at ``pred``; arrays stacked over t."""
    filt = dynamics.filter_pass(data, params, pred_bau=pred, want_variance=True)
    sm = dynamics.smoother_pass(filt, params)
    ts = range(1, params.u + 1)
    for name, fields, states in (
            ("filter", ("eta", "P", "psi", "logdet_sigma", "quad", "delta", "R_diag"),
             filt.states),
            ("smooth", ("eta", "P", "lag1", "delta", "R_diag"), sm.states)):
        for f in fields:
            out[f"{prefix}/{name}/{f}"] = np.stack([np.asarray(getattr(s, f)) for s in states])
    out[f"{prefix}/smooth/eta0"] = sm.eta0[None]
    out[f"{prefix}/smooth/P0"] = sm.P0[None]
    for name, fields in (
            ("filter", [dynamics.predict_filter(filt, data, params, t, pred) for t in ts]),
            ("smooth", [dynamics.predict_smooth(sm, data, params, t, pred) for t in ts])):
        out[f"{prefix}/predict_{name}/mean"] = np.stack([f.mean for f in fields])
        out[f"{prefix}/predict_{name}/stderr"] = np.stack([f.stderr for f in fields])


def _csv_numbers(path: Path) -> np.ndarray:
    """The columns of a CSV whose every entry is a number, as (1, rows, cols)."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    cols = []
    for col in zip(*rows):
        try:
            cols.append([float(x) for x in col])
        except ValueError:
            pass
    return np.array(cols).T[None]


def _worker(src: str, dest: str) -> None:
    sys.path[:0] = [src, str(BENCH)]
    import workloads
    from dfgp import cli, dynamics, estimate, synth

    if not Path(dynamics.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"dfgp imported from {dynamics.__file__}, not from {src}")
    out: dict[str, np.ndarray] = {}
    W = workloads.WORKLOADS

    w = W["smooth-65k"]
    truth, _obs, data = synth.scenario_data(workloads._scenario(w.nx, w.counts, w.T, SEED))
    _sweep(out, w.name, dynamics, data, truth.params, workloads.eval_bau(w.nx, w.n_pred))
    del truth, data

    w = W["cli-smooth-4k"]
    truth, _obs, data = synth.scenario_data(workloads._scenario(w.nx, w.counts, w.T, SEED))
    _sweep(out, f"{w.nx}x{w.nx}", dynamics, data, truth.params, data.structure.valid_idx)
    del truth, data
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        w.setup(SEED, run)
        for cmd in ("filter", "smooth"):
            if cli.main([cmd, "--config", str(run / "run.ini"), "--out", str(run)]) != 0:
                sys.exit(f"dfgp {cmd} failed")
            out[f"{w.name}/predictions_{cmd}.csv"] = np.loadtxt(
                run / f"predictions_{cmd}.csv", delimiter=",", skiprows=1, ndmin=2)[None]
            out[f"{w.name}/state_{cmd}.bin"] = np.fromfile(run / f"state_{cmd}.bin",
                                                           dtype=np.uint8)[None]
        ini, sub = run / "lowrank.ini", run / "lowrank"
        ini.write_text((run / "run.ini").read_text() + "\n[estimator]\nlowrank_only = true\n"
                       f"max_iter = {FIXED_RANK_ITERS}\n")
        for cmd in ("fit", "smooth"):
            if cli.main([cmd, "--config", str(ini), "--out", str(sub)]) != 0:
                sys.exit(f"fixed-rank dfgp {cmd} failed")
        for name in ("predictions_smooth.csv", "trace_lowrank.csv"):
            out[f"{w.name}/lowrank/{name}"] = np.loadtxt(
                sub / name, delimiter=",", skiprows=1, ndmin=2)[None]
        for protocol in ("filtering", "smoothing"):
            ini, sub = run / f"cv_{protocol}.ini", run / f"cv_{protocol}"
            ini.write_text((run / "run.ini").read_text().replace(
                "protocol = smoothing", f"protocol = {protocol}")
                + f"\n[cv]\nmethods = dfgp,lowrank\n\n[estimator]\nmax_iter = {CV_ITERS}\n")
            if cli.main(["cv", "--config", str(ini), "--out", str(sub)]) != 0:
                sys.exit(f"dfgp cv ({protocol}) failed")
            for name in ("metrics.csv", "metrics_by_subset.csv", "holdout.csv"):
                out[f"{w.name}/cv_{protocol}/{name}"] = _csv_numbers(sub / name)

    w = W["sem-10k"]
    _truth, _obs, data = synth.scenario_data(workloads._scenario(w.nx, w.counts, w.T, SEED))
    fit = estimate.run_estimator(
        data, estimate.EstimatorConfig(mode="sem", max_iter=w.max_iter, seed=SEED))
    out[f"{w.name}/trace"] = fit.trace[:, None]
    out[f"{w.name}/trace[0]"] = fit.trace[:1, None]
    out[f"{w.name}/params"] = fit.params.flat()[None]
    np.savez(dest, **out)


def _rel(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, 0 where both vanish and inf where only den does."""
    return np.divide(num, den, out=np.where(num > 0, np.inf, 0.0), where=den > 0)


def compare(old: dict, new: dict) -> list[tuple[str, str, str, str, str]]:
    """(name, shape, bit-identical, normwise, elementwise) rows, in old's order."""
    rows = []
    for name in dict.fromkeys([*old, *new]):
        if name not in old or name not in new or old[name].shape != new[name].shape:
            shapes = [str(d[name].shape) if name in d else "missing" for d in (old, new)]
            rows.append((name, " vs ".join(shapes), "no", "-", "-"))
            continue
        a, b = old[name], new[name]
        same = "yes" if np.array_equal(a, b) else "no"
        if a.dtype == np.uint8:                  # raw file bytes
            rows.append((name, str(a.shape[1:]), same, "-", "-"))
            continue
        a2, d2 = a.reshape(len(a), -1), (b - a).reshape(len(a), -1)
        norm = _rel(np.linalg.norm(d2, axis=1), np.linalg.norm(a2, axis=1)).max()
        elem = _rel(np.abs(d2), np.abs(a2)).max()
        rows.append((name, str(a.shape[1:]), same, f"{norm:.2e}", f"{elem:.2e}"))
    return rows


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        _worker(argv[1], argv[2])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    args = ap.parse_args(argv)
    srcs = []
    for arg in (args.old_src, args.new_src):
        p = Path(arg).resolve()
        p = p / "src" if not (p / "dfgp").is_dir() else p
        if not (p / "dfgp").is_dir():
            ap.error(f"no dfgp package in {arg} or {arg}/src")
        srcs.append(p)
    env = dict(os.environ, **{k: "1" for k in BLAS_CAPS})
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, src in enumerate(srcs):     # one at a time: each peaks near 0.5 GB
            dest = Path(tmp) / f"{i}.npz"
            subprocess.run([sys.executable, __file__, "--worker", str(src), str(dest)],
                           env=env, check=True)
            with np.load(dest) as z:
                results.append({k: z[k] for k in z.files})
    rows = [("array", "shape", "bit-identical", "normwise", "elementwise"),
            *compare(*results)]
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    print(f"seed {SEED}: {srcs[0]} -> {srcs[1]}")
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
