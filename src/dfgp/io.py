"""File formats: observation/footprint CSVs, prediction fields, metrics,
parameter flat files, likelihood traces, holdout masks, manifests, and the
binary state checkpoint.

All CSVs are plain comma-separated text with a header row; floats are
written with %.17g so that write -> read round-trips exactly and reruns are
byte-identical.  The state checkpoint layout is documented at
:data:`STATE_MAGIC` (all fields little-endian).
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .car import CARParams
from .cv import CVResult, HoldoutRecord
from .dynamics import PredictionField
from .grid import BAUGrid, Observations
from .model import DFGPParams

_F = "%.17g"

# Checkpoint layout (version 1, little-endian):
#   bytes 0..7   magic b"DFGPSTAT"
#   u32          version (= 1)
#   u32          r   (state dimension)
#   u32          T   (number of time steps)
#   then per t = 1..T:
#     f64[r]     eta_t (posterior mean)
#     f64[r*r]   P_t row-major (posterior covariance)
STATE_MAGIC = b"DFGPSTAT"


def _fmt(x: float) -> str:
    return _F % float(x)


# ---------------------------------------------------------------------------
# observations + footprints

def write_observations(path_obs, path_fps, obs: Observations) -> None:
    """Write the observation and footprint CSVs.

    The footprints records use are numbered by first appearance; the others
    are left out.
    """
    used, first = np.unique(obs.footprint, return_index=True)
    rows = used[np.argsort(first)]
    fid = np.empty(obs.fp_indptr.size - 1, dtype=np.int64)
    fid[rows] = np.arange(rows.size)
    with open(path_obs, "w", newline="") as fo:
        w = csv.writer(fo)
        w.writerow(["time", "instrument", "footprint_id", "value", "var_factor"])
        for t, k, f, z, v in zip(obs.time.tolist(), obs.instrument.tolist(),
                                 fid[obs.footprint].tolist(), obs.value.tolist(),
                                 obs.var_factor.tolist()):
            w.writerow([t, k, f, _fmt(z), _fmt(v)])
    with open(path_fps, "w", newline="") as ff:
        w = csv.writer(ff)
        w.writerow(["footprint_id", "bau_index"])
        for i, f in enumerate(rows.tolist()):
            for b in obs.fp_indices[obs.fp_indptr[f]:obs.fp_indptr[f + 1]].tolist():
                w.writerow([i, b])


_OBS_FIELDS = (("time", int), ("instrument", int), ("footprint_id", int),
               ("value", float), ("var_factor", float))
_FP_FIELDS = (("footprint_id", int), ("bau_index", int))
_INT64_END = 2 ** 63  # parsed ids must satisfy -_INT64_END <= n < _INT64_END


def _reader(f, path, fields) -> csv.DictReader:
    """A DictReader over f whose header names every field in ``fields``."""
    reader = csv.DictReader(f)
    missing = [name for name, _kind in fields if name not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"{path}: header row lacks {', '.join(missing)}")
    return reader


def _unparsable(where: str, row: dict, fields) -> ValueError:
    """The error naming the first field of a data row that does not parse."""
    for field, kind in fields:
        try:
            kind(row[field])
        except (TypeError, ValueError):  # TypeError: the row is short of fields
            return ValueError(f"{where}: {field} is not {kind.__name__}: {row[field]!r}")
    raise AssertionError("every field parses")


def read_observations(path_obs, path_fps, grid: BAUGrid) -> Observations:
    """Read the observation and footprint CSVs of data on ``grid``; footprints
    that no record uses are dropped, and time steps run 1..max(time).

    Raises ValueError naming the file and the missing fields for a header
    row that lacks one, and naming the file, the 1-based data row and the
    field for an unparsable number, a bau_index outside the grid or on a
    masked cell, a time or instrument below 1, a time, instrument or
    footprint_id beyond int64, a non-finite value, a var_factor that is not
    finite and > 0, or a footprint_id absent from the footprint file.
    """
    cover: dict[int, list[int]] = {}
    baus: list[int] = []
    with open(path_fps, newline="") as ff:
        for i, row in enumerate(_reader(ff, path_fps, _FP_FIELDS), start=1):
            try:
                fid, bau = int(row["footprint_id"]), int(row["bau_index"])
            except (TypeError, ValueError):
                raise _unparsable(f"{path_fps}: data row {i}", row, _FP_FIELDS) from None
            if not -_INT64_END <= fid < _INT64_END:
                raise ValueError(f"{path_fps}: data row {i}: footprint_id does not fit "
                                 f"in int64: {row['footprint_id']!r}")
            cover.setdefault(fid, []).append(bau)
            baus.append(bau)
    # clipped to [-1, N] first, so that no parsed int overflows int64
    clipped = np.array([min(max(b, -1), grid.n_bau) for b in baus], dtype=np.int64)
    bad = np.flatnonzero(~grid.is_valid(clipped))
    if bad.size:
        raise ValueError(f"{path_fps}: data row {bad[0] + 1}: bau_index {baus[bad[0]]} "
                         f"is outside the {grid.nx}x{grid.ny} grid or masked")
    cols: tuple[list, ...] = ([], [], [], [], [])
    with open(path_obs, newline="") as fo:
        for i, row in enumerate(_reader(fo, path_obs, _OBS_FIELDS), start=1):
            where = f"{path_obs}: data row {i}"
            try:
                rec = (int(row["time"]), int(row["instrument"]), int(row["footprint_id"]),
                       float(row["value"]), float(row["var_factor"]))
            except (TypeError, ValueError):
                raise _unparsable(where, row, _OBS_FIELDS) from None
            t, k, fid, z, v = rec
            for field, n in (("time", t), ("instrument", k)):
                if n < 1:
                    raise ValueError(f"{where}: {field} must be >= 1, got {row[field]!r}")
                if n >= _INT64_END:
                    raise ValueError(f"{where}: {field} does not fit in int64: {row[field]!r}")
            if fid not in cover:
                raise ValueError(f"{where}: footprint_id {fid} is not in {path_fps}")
            if not math.isfinite(z):
                raise ValueError(f"{where}: value must be finite, got {row['value']!r}")
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{where}: var_factor must be finite and > 0, "
                                 f"got {row['var_factor']!r}")
            for col, x in zip(cols, rec):
                col.append(x)
    time, inst, fids, value, var = cols
    used, fp = np.unique(np.asarray(fids, dtype=np.int64), return_inverse=True)
    covers = [cover[f] for f in used.tolist()]
    return Observations(
        time=time, instrument=inst, footprint=fp, value=value, var_factor=var,
        fp_indptr=np.cumsum([0] + [len(c) for c in covers]),
        fp_indices=np.array([b for c in covers for b in c], dtype=np.int64),
        n_times=max(time, default=0))


# ---------------------------------------------------------------------------
# truth / latents / predictions / holdouts / metrics / trace

def write_truth(path, y: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["time", "bau_index", "y_true"])
        for t in range(y.shape[0]):
            for i in range(y.shape[1]):
                w.writerow([t + 1, i, _fmt(y[t, i])])


def read_truth(path) -> np.ndarray:
    rows = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            rows.append((int(row["time"]), int(row["bau_index"]), float(row["y_true"])))
    T = max(r[0] for r in rows)
    N = max(r[1] for r in rows) + 1
    y = np.full((T, N), np.nan)
    for t, i, v in rows:
        y[t - 1, i] = v
    return y


def write_latents(path_eta, path_xi, eta: np.ndarray, xi: np.ndarray) -> None:
    with open(path_eta, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["time", "component", "value"])
        for t in range(eta.shape[0]):
            for j in range(eta.shape[1]):
                w.writerow([t, j, _fmt(eta[t, j])])
    with open(path_xi, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["time", "bau_index", "xi"])
        for t in range(xi.shape[0]):
            for i in range(xi.shape[1]):
                w.writerow([t + 1, i, _fmt(xi[t, i])])


def write_prediction_fields(path, fields: list[PredictionField]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["time", "bau_index", "mean", "stderr"])
        for fld in fields:
            for b, m, s in zip(fld.bau_indices, fld.mean, fld.stderr):
                w.writerow([fld.time_index, int(b), _fmt(m), _fmt(s)])


def write_holdout(path, holdout: list[HoldoutRecord]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["time", "bau_index", "value", "subset"])
        for h in holdout:
            w.writerow([h.time_index, h.bau_index, _fmt(h.value), h.subset])


def write_metrics(path, result: CVResult, by_subset_path=None) -> None:
    """Main metrics table (subset == all) plus an optional by-subset table."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "protocol", "time", "rmspe", "crps", "n_holdout"])
        for row in result.rows:
            if row.subset != "all":
                continue
            w.writerow([row.method, row.protocol, row.time_index,
                        _fmt(row.rmspe), _fmt(row.crps), row.n])
    if by_subset_path is not None:
        with open(by_subset_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["method", "protocol", "subset", "time", "rmspe", "crps", "n_holdout"])
            for row in result.rows:
                w.writerow([row.method, row.protocol, row.subset, row.time_index,
                            _fmt(row.rmspe), _fmt(row.crps), row.n])


def write_trace(path, trace: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["iteration", "neg2loglik"])
        for i, v in enumerate(trace):
            w.writerow([i, _fmt(v)])


# ---------------------------------------------------------------------------
# parameters

def write_params(path, params: DFGPParams) -> None:
    """Flat CSV layout: param,time,instrument,row,col,value."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["param", "time", "instrument", "row", "col", "value"])
        u, p, r = params.u, params.p, params.r
        for t in range(u):
            for j in range(p):
                w.writerow(["beta", t + 1, "", "", j, _fmt(params.beta[t, j])])
        H, U = np.asarray(params.H), np.asarray(params.U)
        for name, m in (("H", H), ("U", U)):
            if m.ndim == 2:
                for i in range(r):
                    for j in range(r):
                        w.writerow([name, "", "", i, j, _fmt(m[i, j])])
            else:
                for t in range(u):
                    for i in range(r):
                        for j in range(r):
                            w.writerow([name, t + 1, "", i, j, _fmt(m[t, i, j])])
        for i in range(r):
            for j in range(r):
                w.writerow(["K0", "", "", i, j, _fmt(params.K0[i, j])])
        for t in range(u):
            for k in range(params.n_instruments):
                w.writerow(["sigma2_eps", t + 1, k + 1, "", "", _fmt(params.sigma2_eps[t, k])])
        for t in range(u):
            w.writerow(["gamma", t + 1, "", "", "", _fmt(params.car[t].gamma)])
            w.writerow(["tau2", t + 1, "", "", "", _fmt(params.car[t].tau2)])


def read_params(path) -> DFGPParams:
    cells: dict[str, list] = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            cells.setdefault(row["param"], []).append(row)

    def geti(row, key):
        return int(row[key]) if row[key] != "" else None

    beta_rows = cells["beta"]
    u = max(geti(r, "time") for r in beta_rows)
    p = max(geti(r, "col") for r in beta_rows) + 1
    beta = np.zeros((u, p))
    for r_ in beta_rows:
        beta[geti(r_, "time") - 1, geti(r_, "col")] = float(r_["value"])
    rdim = max(geti(r_, "row") for r_ in cells["K0"]) + 1
    K0 = np.zeros((rdim, rdim))
    for r_ in cells["K0"]:
        K0[geti(r_, "row"), geti(r_, "col")] = float(r_["value"])

    def read_hu(name):
        rows = cells[name]
        per_time = any(r_["time"] != "" for r_ in rows)
        if per_time:
            m = np.zeros((u, rdim, rdim))
            for r_ in rows:
                m[geti(r_, "time") - 1, geti(r_, "row"), geti(r_, "col")] = float(r_["value"])
        else:
            m = np.zeros((rdim, rdim))
            for r_ in rows:
                m[geti(r_, "row"), geti(r_, "col")] = float(r_["value"])
        return m

    H, U = read_hu("H"), read_hu("U")
    k0n = max(geti(r_, "instrument") for r_ in cells["sigma2_eps"])
    sig = np.zeros((u, k0n))
    for r_ in cells["sigma2_eps"]:
        sig[geti(r_, "time") - 1, geti(r_, "instrument") - 1] = float(r_["value"])
    gamma = np.zeros(u)
    tau2 = np.zeros(u)
    for r_ in cells["gamma"]:
        gamma[geti(r_, "time") - 1] = float(r_["value"])
    for r_ in cells["tau2"]:
        tau2[geti(r_, "time") - 1] = float(r_["value"])
    car = tuple(CARParams(gamma[t], tau2[t]) for t in range(u))
    return DFGPParams(beta=beta, H=H, U=U, K0=K0, car=car, sigma2_eps=sig)


# ---------------------------------------------------------------------------
# state checkpoint (binary)

def save_state_checkpoint(path, eta: np.ndarray, P: np.ndarray) -> None:
    """eta: (T, r) means; P: (T, r, r) covariances."""
    eta = np.asarray(eta, dtype="<f8")
    P = np.asarray(P, dtype="<f8")
    T, r = eta.shape
    with open(path, "wb") as f:
        f.write(STATE_MAGIC)
        f.write(struct.pack("<III", 1, r, T))
        for t in range(T):
            f.write(eta[t].tobytes())
            f.write(P[t].tobytes())


def load_state_checkpoint(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != STATE_MAGIC:
            raise ValueError("not a state checkpoint file")
        version, r, T = struct.unpack("<III", f.read(12))
        if version != 1:
            raise ValueError(f"unsupported checkpoint version {version}")
        eta = np.empty((T, r))
        P = np.empty((T, r, r))
        for t in range(T):
            eta[t] = np.frombuffer(f.read(8 * r), dtype="<f8")
            P[t] = np.frombuffer(f.read(8 * r * r), dtype="<f8").reshape(r, r)
    return eta, P


# ---------------------------------------------------------------------------
# manifest

def write_manifest(path, command: str, config_path, seed: int, version: str,
                   inputs=(), outputs=()) -> None:
    """Header lines ``key = value``, then one ``input|output <sha256>  <file>``
    line per file the command read or wrote, in that order; files are named
    relative to the manifest's directory."""
    path = Path(path)
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    with open(path, "w") as f:
        f.write(f"command = {command}\n")
        f.write(f"config_sha256 = {digest}\n")
        f.write(f"seed = {seed}\n")
        f.write(f"version = {version}\n")
        for role, files in (("input", inputs), ("output", outputs)):
            for p in files:
                h = hashlib.sha256(Path(p).read_bytes()).hexdigest()
                f.write(f"{role} {h}  {os.path.relpath(p, path.parent)}\n")
