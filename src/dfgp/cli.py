"""Command-line interface.

Subcommands: simulate | fit | filter | smooth | cv, all driven by one INI
configuration file.  Relative [data], [grid] mask and [basis] centers_csv
paths resolve against the config file's directory: simulate writes the
observation and footprint files there and the other commands read them from
there.  Flags override only the seed, output dir, and the low-rank-only
switch.  Each command writes a manifest of the files it read and wrote.
Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import io as dio
from .config import RunConfig, load_config
from .dynamics import filter_pass, predict_filter, predict_smooth, smoother_pass
from .estimate import fit_filtering_sequence, run_estimator
from .exceptions import FactorizationError, NumericalError
from .model import assemble
from .synth import observe, simulate_truth


@dataclass
class Files:
    """The files one command read and wrote, hashed into its manifest."""

    read: list[Path] = field(default_factory=list)
    written: list[Path] = field(default_factory=list)


def _data_paths(cfg: RunConfig, base: Path) -> list[Path]:
    return [base / cfg.data.observations, base / cfg.data.footprints]


def _load_inputs(cfg: RunConfig, base: Path, files: Files):
    """Observations, grid, basis and CAR structure named by the config."""
    mask, centers = (str(base / p) if p else "" for p in (cfg.grid.mask, cfg.basis.centers_csv))
    cfg = dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, mask=mask),
                              basis=dataclasses.replace(cfg.basis, centers_csv=centers))
    files.read += [Path(p) for p in (mask, centers) if p]
    grid = cfg.build_grid()
    basis = cfg.build_basis(grid)
    structure = cfg.build_structure(grid)
    paths = _data_paths(cfg, base)
    obs = dio.read_observations(*paths)
    files.read += paths
    if obs.n_obs == 0:
        raise ValueError("no observations found")
    return obs, grid, basis, structure


def _load_data(cfg: RunConfig, base: Path, files: Files):
    """The assembled model data of every observation."""
    return assemble(*_load_inputs(cfg, base, files), covariates=cfg.covariates)


def cmd_simulate(cfg: RunConfig, out: Path, base: Path, lowrank: bool, files: Files) -> None:
    truth = simulate_truth(cfg.scenario_config())
    obs = observe(truth)
    paths = _data_paths(cfg, base)
    for p in paths:
        p.parent.mkdir(parents=True, exist_ok=True)
    dio.write_observations(*paths, obs)
    dio.write_truth(out / "truth.csv", truth.y)
    dio.write_latents(out / "latent_eta.csv", out / "latent_xi.csv",
                      truth.eta, truth.xi)
    files.written += [*paths, out / "truth.csv", out / "latent_eta.csv",
                      out / "latent_xi.csv"]
    print(f"simulated {truth.config.T} time steps, {obs.n_obs} observations, "
          f"N={truth.grid.n_bau}, r={truth.basis.r}")


def _fit(cfg: RunConfig, data, out: Path, lowrank: bool, files: Files):
    est = cfg.estimator_config()
    if cfg.protocol == "smoothing":
        fits = {data.T: run_estimator(data, est, lowrank_only=lowrank)}
    else:
        fits = fit_filtering_sequence(data, est, lowrank_only=lowrank)
    report = [f"protocol = {cfg.protocol}", f"seed = {cfg.seed}"]
    for u, res in sorted(fits.items()):
        tag = "" if cfg.protocol == "smoothing" else f"_u{u}"
        params, trace = out / f"params{tag}.csv", out / f"trace{tag}.csv"
        dio.write_params(params, res.params)
        dio.write_trace(trace, res.trace)
        files.written += [params, trace]
        report += [f"horizon_{u}_iterations = {res.n_iter}",
                   f"horizon_{u}_converged = {res.converged}",
                   f"horizon_{u}_neg2loglik = {res.trace[-1]!r}",
                   f"horizon_{u}_params_file = {params.name}",
                   f"horizon_{u}_trace_file = {trace.name}"]
    (out / "fit_report.txt").write_text("\n".join(report) + "\n")
    files.written.append(out / "fit_report.txt")
    return {u: res.params for u, res in fits.items()}


def _load_or_fit_params(cfg: RunConfig, data, out: Path, base: Path, lowrank: bool,
                        files: Files):
    if cfg.protocol == "smoothing":
        for p in (base / (cfg.data.params or "params.csv"), out / "params.csv"):
            if p.exists():
                files.read.append(p)
                return {data.T: dio.read_params(p)}
        return _fit(cfg, data, out, lowrank, files)
    found = {}
    for u in range(2, data.T + 1):
        found[u] = next((p for p in (base / f"params_u{u}.csv", out / f"params_u{u}.csv")
                         if p.exists()), None)
    if found and None not in found.values():
        files.read += found.values()
        return {u: dio.read_params(p) for u, p in found.items()}
    return _fit(cfg, data, out, lowrank, files)


def cmd_fit(cfg: RunConfig, out: Path, base: Path, lowrank: bool, files: Files) -> None:
    data = _load_data(cfg, base, files)
    _fit(cfg, data, out, lowrank, files)
    print(f"fitted ({cfg.protocol} protocol); parameters written to {out}")


def cmd_filter(cfg: RunConfig, out: Path, base: Path, lowrank: bool, files: Files) -> None:
    data = _load_data(cfg, base, files)
    params_by_u = _load_or_fit_params(cfg, data, out, base, lowrank, files)
    pred = data.structure.valid_idx
    fields = []
    if cfg.protocol == "smoothing":
        params = params_by_u[data.T]
        filt = filter_pass(data, params, pred_bau=pred, want_variance=True,
                           lowrank_only=lowrank)
        fields = [predict_filter(filt, data, params, t, pred)
                  for t in range(1, data.T + 1)]
        dio.save_state_checkpoint(out / "state_filter.bin",
                                  np.stack([s.eta[:, 0] for s in filt.states]),
                                  np.stack([s.P for s in filt.states]))
        files.written.append(out / "state_filter.bin")
    else:
        for u in sorted(params_by_u):
            params = params_by_u[u]
            filt = filter_pass(data, params, horizon=u, pred_bau=pred,
                               want_variance=True, lowrank_only=lowrank)
            fields.append(predict_filter(filt, data, params, u, pred))
    dio.write_prediction_fields(out / "predictions_filter.csv", fields)
    files.written.append(out / "predictions_filter.csv")
    print(f"filter predictions for {len(fields)} time steps written to {out}")


def cmd_smooth(cfg: RunConfig, out: Path, base: Path, lowrank: bool, files: Files) -> None:
    data = _load_data(cfg, base, files)
    if cfg.protocol != "smoothing":
        raise ValueError("smooth requires protocol = smoothing")
    params = _load_or_fit_params(cfg, data, out, base, lowrank, files)[data.T]
    pred = data.structure.valid_idx
    filt = filter_pass(data, params, pred_bau=pred, want_variance=True,
                       lowrank_only=lowrank)
    sm = smoother_pass(filt, params)
    fields = [predict_smooth(sm, data, params, t, pred)
              for t in range(1, data.T + 1)]
    dio.write_prediction_fields(out / "predictions_smooth.csv", fields)
    dio.save_state_checkpoint(out / "state_smooth.bin",
                              np.stack([s.eta[:, 0] for s in sm.states]),
                              np.stack([s.P for s in sm.states]))
    files.written += [out / "predictions_smooth.csv", out / "state_smooth.bin"]
    print(f"smoother predictions for {len(fields)} time steps written to {out}")


def cmd_cv(cfg: RunConfig, out: Path, base: Path, lowrank: bool, files: Files) -> None:
    from .baselines import LocalKrigeSettings
    from .cv import run_cv
    obs, grid, basis, structure = _load_inputs(cfg, base, files)
    methods = cfg.cv.methods
    if lowrank:
        methods = tuple(m for m in methods if m != "dfgp")
    result = run_cv(obs, grid, basis, structure, cfg.holdout_plan(),
                    methods=methods, protocol=cfg.protocol,
                    est_config=cfg.estimator_config(),
                    lk_settings=LocalKrigeSettings(
                        k=cfg.cv.lk_k, max_fit_evals=cfg.cv.lk_max_fit_evals),
                    covariates=cfg.covariates)
    dio.write_metrics(out / "metrics.csv", result,
                      by_subset_path=out / "metrics_by_subset.csv")
    dio.write_holdout(out / "holdout.csv", result.holdout)
    files.written += [out / "metrics.csv", out / "metrics_by_subset.csv", out / "holdout.csv"]
    print(f"cross-validation metrics for {len(methods)} methods written to {out}")


COMMANDS = {"simulate": cmd_simulate, "fit": cmd_fit, "filter": cmd_filter,
            "smooth": cmd_smooth, "cv": cmd_cv}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dfgp",
        description="Dynamic fused Gaussian process data fusion")
    ap.add_argument("command", choices=list(COMMANDS))
    ap.add_argument("--config", required=True, help="path to the INI run config")
    ap.add_argument("--out", default=None, help="output directory override")
    ap.add_argument("--seed", type=int, default=None, help="seed override")
    ap.add_argument("--lowrank-only", action="store_true",
                    help="drop the fine-scale component (fixed-rank comparator)")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        out = Path(args.out if args.out is not None else cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        base = Path(args.config).resolve().parent
        files = Files()
        COMMANDS[args.command](cfg, out, base, args.lowrank_only, files)
        dio.write_manifest(out / f"manifest_{args.command}.txt", args.command,
                           args.config, cfg.seed, __version__,
                           inputs=files.read, outputs=files.written)
        return 0
    except (NumericalError, FactorizationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
