"""Command-line interface.

Subcommands: simulate | fit | filter | smooth | cv, all driven by one INI
configuration file.  Relative [data], [grid] mask and [basis] centers_csv
paths resolve against the config file's directory: simulate writes the
observation and footprint files there and the other commands read them from
there.  Flags override only the seed and the output dir.  A fixed-rank fit
([estimator] lowrank_only = true) has its own ``*_lowrank*`` fit files, without
gamma/tau2 rows; a params file of the other model than the config's is refused.
Each command writes a manifest of the files it read and wrote.
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
from .baselines import LocalKrigeSettings
from .car import build_adjacency
from .config import RunConfig, load_config
from .cv import run_cv
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
    structure = build_adjacency(grid)
    paths = _data_paths(cfg, base)
    obs = dio.read_observations(*paths, grid)
    files.read += paths
    if obs.n_obs == 0:
        raise ValueError("no observations found")
    return obs, grid, basis, structure


def _load_data(cfg: RunConfig, base: Path, files: Files):
    """The assembled model data of every observation."""
    return assemble(*_load_inputs(cfg, base, files), covariates=cfg.covariates)


def cmd_simulate(cfg: RunConfig, out: Path, base: Path, files: Files) -> None:
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


def _fit(cfg: RunConfig, data, out: Path, files: Files):
    est = cfg.estimator_config()
    if cfg.protocol == "smoothing":
        fits = {data.T: run_estimator(data, est)}
    else:
        fits = fit_filtering_sequence(data, est)
    model = "_lowrank" if cfg.estimator.lowrank_only else ""
    report = [f"protocol = {cfg.protocol}", f"seed = {cfg.seed}"]
    for u, res in sorted(fits.items()):
        tag = model + ("" if cfg.protocol == "smoothing" else f"_u{u}")
        params, trace = out / f"params{tag}.csv", out / f"trace{tag}.csv"
        dio.write_params(params, res.params)
        dio.write_trace(trace, res.trace)
        files.written += [params, trace]
        report += [f"horizon_{u}_iterations = {res.n_iter}",
                   f"horizon_{u}_converged = {res.converged}",
                   f"horizon_{u}_stop = {res.message}",
                   f"horizon_{u}_neg2loglik = {dio._fmt(res.trace[-1])}",
                   f"horizon_{u}_params_file = {params.name}",
                   f"horizon_{u}_trace_file = {trace.name}"]
    report_path = out / f"fit_report{model}.txt"
    report_path.write_text("\n".join(report) + "\n")
    files.written.append(report_path)
    return {u: res.params for u, res in fits.items()}


def _read_params(path: Path, data, u: int, lowrank_only: bool, files: Files):
    """Saved parameters checked against the model, the data, and cut to horizon u."""
    params = dio.read_params(path)
    files.read.append(path)
    if bool(params.car) == lowrank_only:
        held = "the DFGP model (with" if params.car else "the fixed-rank model (no"
        raise ValueError(f"{path}: holds {held} gamma/tau2 rows), but [estimator] "
                         f"lowrank_only = {str(lowrank_only).lower()}")
    bad = [f"{name} {got} where the data need {need}" for name, got, need in (
        ("r", params.r, data.basis.r), ("p", params.p, data.X_bau.shape[1]),
        ("instrument count", params.n_instruments, data.n_instruments),
        ("horizon", min(params.u, u), u)) if got != need]
    if bad:
        raise ValueError(f"{path}: parameters do not fit the data: {'; '.join(bad)}")
    return params.truncated(u)


def _load_or_fit_params(cfg: RunConfig, data, out: Path, base: Path, files: Files):
    """The saved parameters of every horizon when all exist, else a new fit."""
    lowrank_only = cfg.estimator.lowrank_only
    model = "_lowrank" if lowrank_only else ""
    if cfg.protocol == "smoothing":
        name = f"params{model}.csv"
        if cfg.data.params and not (base / cfg.data.params).exists():
            raise ValueError(f"[data] params names a missing file: {base / cfg.data.params}")
        paths = {data.T: (base / (cfg.data.params or name), out / name)}
    else:
        paths = {u: (base / f"params{model}_u{u}.csv", out / f"params{model}_u{u}.csv")
                 for u in range(2, data.T + 1)}
    found = {u: next((p for p in ps if p.exists()), None) for u, ps in paths.items()}
    if found and None not in found.values():
        return {u: _read_params(p, data, u, lowrank_only, files) for u, p in found.items()}
    return _fit(cfg, data, out, files)


def cmd_fit(cfg: RunConfig, out: Path, base: Path, files: Files) -> None:
    data = _load_data(cfg, base, files)
    _fit(cfg, data, out, files)
    print(f"fitted ({cfg.protocol} protocol); parameters written to {out}")


def cmd_filter(cfg: RunConfig, out: Path, base: Path, files: Files) -> None:
    data = _load_data(cfg, base, files)
    params_by_u = _load_or_fit_params(cfg, data, out, base, files)
    pred = data.structure.valid_idx
    fields = []
    if cfg.protocol == "smoothing":
        params = params_by_u[data.T]
        filt = filter_pass(data, params, pred_bau=pred, want_variance=True)
        fields = [predict_filter(filt, data, params, t, pred)
                  for t in range(1, data.T + 1)]
        dio.save_state_checkpoint(out / "state_filter.bin",
                                  np.stack([s.eta[:, 0] for s in filt.states]),
                                  np.stack([s.P for s in filt.states]))
        files.written.append(out / "state_filter.bin")
    else:
        for u in sorted(params_by_u):
            params = params_by_u[u]
            filt = filter_pass(data, params, pred_bau=pred, want_variance=True)
            fields.append(predict_filter(filt, data, params, u, pred))
    dio.write_prediction_fields(out / "predictions_filter.csv", fields)
    files.written.append(out / "predictions_filter.csv")
    print(f"filter predictions for {len(fields)} time steps written to {out}")


def cmd_smooth(cfg: RunConfig, out: Path, base: Path, files: Files) -> None:
    data = _load_data(cfg, base, files)
    if cfg.protocol != "smoothing":
        raise ValueError("smooth requires protocol = smoothing")
    params = _load_or_fit_params(cfg, data, out, base, files)[data.T]
    pred = data.structure.valid_idx
    filt = filter_pass(data, params, pred_bau=pred, want_variance=True)
    sm = smoother_pass(filt, params)
    fields = [predict_smooth(sm, data, params, t, pred)
              for t in range(1, data.T + 1)]
    dio.write_prediction_fields(out / "predictions_smooth.csv", fields)
    dio.save_state_checkpoint(out / "state_smooth.bin",
                              np.stack([s.eta[:, 0] for s in sm.states]),
                              np.stack([s.P for s in sm.states]))
    files.written += [out / "predictions_smooth.csv", out / "state_smooth.bin"]
    print(f"smoother predictions for {len(fields)} time steps written to {out}")


def cmd_cv(cfg: RunConfig, out: Path, base: Path, files: Files) -> None:
    obs, grid, basis, structure = _load_inputs(cfg, base, files)
    result = run_cv(obs, grid, basis, structure, cfg.holdout_plan(),
                    methods=cfg.cv.methods, protocol=cfg.protocol,
                    est_config=cfg.estimator_config(),
                    lk_settings=LocalKrigeSettings(
                        k=cfg.cv.lk_k, max_fit_evals=cfg.cv.lk_max_fit_evals),
                    covariates=cfg.covariates)
    dio.write_metrics(out / "metrics.csv", result, out / "metrics_by_subset.csv")
    dio.write_holdout(out / "holdout.csv", result.holdout)
    files.written += [out / "metrics.csv", out / "metrics_by_subset.csv", out / "holdout.csv"]
    print(f"cross-validation metrics for {len(cfg.cv.methods)} methods written to {out}")


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
        COMMANDS[args.command](cfg, out, base, files)
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
