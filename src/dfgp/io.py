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

from .basis import BisquareBasis
from .car import CARParams
from .cv import CVResult, HoldoutRecord
from .dynamics import PredictionField
from .exceptions import InvalidParameterError
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


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


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
    _write_csv(path_obs, ["time", "instrument", "footprint_id", "value", "var_factor"],
               ([t, k, f, _fmt(z), _fmt(v)] for t, k, f, z, v in zip(
                   obs.time.tolist(), obs.instrument.tolist(), fid[obs.footprint].tolist(),
                   obs.value.tolist(), obs.var_factor.tolist())))
    _write_csv(path_fps, ["footprint_id", "bau_index"],
               ([i, b] for i, f in enumerate(rows.tolist())
                for b in obs.fp_indices[obs.fp_indptr[f]:obs.fp_indptr[f + 1]].tolist()))


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


_CENTER_FIELDS = (("center_x", float), ("center_y", float), ("radius", float))


def read_basis_centers(path) -> BisquareBasis:
    """One bisquare function per row of a center_x,center_y,radius CSV; a bad
    entry raises ValueError naming the file, the 1-based data row and field."""
    rows = []
    with open(path, newline="") as f:
        for i, row in enumerate(_reader(f, path, _CENTER_FIELDS), start=1):
            try:
                x, y, radius = (float(row[k]) for k, _kind in _CENTER_FIELDS)
            except (TypeError, ValueError):
                raise _unparsable(f"{path}: data row {i}", row, _CENTER_FIELDS) from None
            if not (math.isfinite(x + y + radius) and radius > 0):
                raise ValueError(f"{path}: data row {i}: need finite center_x, center_y "
                                 f"and radius > 0, got {x!r}, {y!r}, {radius!r}")
            rows.append((x, y, radius))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    a = np.array(rows)
    return BisquareBasis(a[:, :2], a[:, 2], np.zeros(len(rows), dtype=int))


def read_mask(path, n_bau: int) -> np.ndarray:
    """Validity mask of n_bau cells from whitespace-separated integers (nonzero
    = valid), row-major from the grid origin."""
    try:
        mask = np.loadtxt(path, dtype=int, ndmin=1).ravel()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if mask.size != n_bau:
        raise ValueError(f"{path}: {mask.size} entries for a grid of {n_bau} cells")
    return mask.astype(bool)


# ---------------------------------------------------------------------------
# truth / latents / predictions / holdouts / metrics / trace

def _write_table(path, header, a: np.ndarray, t0: int) -> None:
    """One row (t + t0, j, a[t, j]) per entry of a 2-d array."""
    _write_csv(path, header, ([t + t0, j, _fmt(v)] for t, row in enumerate(a.tolist())
                              for j, v in enumerate(row)))


def write_truth(path, y: np.ndarray) -> None:
    _write_table(path, ["time", "bau_index", "y_true"], y, 1)


def read_truth(path) -> np.ndarray:
    t, i, y = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
    out = np.full((int(t.max()), int(i.max()) + 1), np.nan)
    out[t.astype(int) - 1, i.astype(int)] = y
    return out


def write_latents(path_eta, path_xi, eta: np.ndarray, xi: np.ndarray) -> None:
    _write_table(path_eta, ["time", "component", "value"], eta, 0)
    _write_table(path_xi, ["time", "bau_index", "xi"], xi, 1)


def write_prediction_fields(path, fields: list[PredictionField]) -> None:
    _write_csv(path, ["time", "bau_index", "mean", "stderr"],
               ([fld.time_index, int(b), _fmt(m), _fmt(s)] for fld in fields
                for b, m, s in zip(fld.bau_indices, fld.mean, fld.stderr)))


def write_holdout(path, holdout: list[HoldoutRecord]) -> None:
    _write_csv(path, ["time", "bau_index", "value", "subset"],
               ([h.time_index, h.bau_index, _fmt(h.value), h.subset] for h in holdout))


def write_metrics(path, result: CVResult, by_subset_path=None) -> None:
    """Main metrics table (subset == all) plus an optional by-subset table."""
    _write_csv(path, ["method", "protocol", "time", "rmspe", "crps", "n_holdout"],
               ([row.method, row.protocol, row.time_index, _fmt(row.rmspe), _fmt(row.crps),
                 row.n] for row in result.rows if row.subset == "all"))
    if by_subset_path is not None:
        _write_csv(by_subset_path,
                   ["method", "protocol", "subset", "time", "rmspe", "crps", "n_holdout"],
                   ([row.method, row.protocol, row.subset, row.time_index, _fmt(row.rmspe),
                     _fmt(row.crps), row.n] for row in result.rows))


def write_trace(path, trace: np.ndarray) -> None:
    _write_csv(path, ["iteration", "neg2loglik"], ([i, _fmt(v)] for i, v in enumerate(trace)))


# ---------------------------------------------------------------------------
# parameters

def write_params(path, params: DFGPParams) -> None:
    """Flat CSV layout: param,time,instrument,row,col,value."""
    rows = [["beta", t + 1, "", "", j, _fmt(v)]
            for t, row in enumerate(params.beta.tolist()) for j, v in enumerate(row)]
    for name, m in (("H", np.asarray(params.H)), ("U", np.asarray(params.U)), ("K0", params.K0)):
        rows += [[name, t + 1 if m.ndim == 3 else "", "", i, j, _fmt(v)]
                 for t, mt in enumerate(m.tolist() if m.ndim == 3 else [m.tolist()])
                 for i, row in enumerate(mt) for j, v in enumerate(row)]
    rows += [["sigma2_eps", t + 1, k + 1, "", "", _fmt(v)]
             for t, row in enumerate(params.sigma2_eps.tolist()) for k, v in enumerate(row)]
    for t, car in enumerate(params.car, start=1):
        rows += [["gamma", t, "", "", "", _fmt(car.gamma)], ["tau2", t, "", "", "", _fmt(car.tau2)]]
    _write_csv(path, ["param", "time", "instrument", "row", "col", "value"], rows)


_PARAM_FIELDS = (("param", str), ("time", int), ("instrument", int), ("row", int),
                 ("col", int), ("value", float))
_PARAM_BASE = {"time": 1, "instrument": 1, "row": 0, "col": 0}   # first index in the file
_ABSENT = -2 ** 62   # an index field left empty


def read_params(path) -> DFGPParams:
    """Read a ``write_params`` file.  Raises ValueError naming the file, the
    1-based data row and the field of an entry that does not parse, is not
    finite or lies outside its block, and naming the file and parameter of
    a block that is missing or incomplete."""
    blocks: dict[str, list] = {}
    with open(path, newline="") as f:
        for i, row in enumerate(_reader(f, path, _PARAM_FIELDS), start=1):
            try:  # indices become 0-based
                at = [int(v) - b if (v := row[k]) else _ABSENT for k, b in _PARAM_BASE.items()]
                value = float(row["value"])
            except (TypeError, ValueError):
                raise _unparsable(f"{path}: data row {i}", row, [
                    (k, kind) for k, kind in _PARAM_FIELDS[1:] if row[k] != "" or k == "value"]
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: data row {i}: value must be finite, got {row['value']!r}")
            blocks.setdefault(row["param"], []).append((i, at, value))
    try:
        blocks = {name: (np.array(line), dict(zip(_PARAM_BASE, np.array(at, dtype=np.int64).T)), np.array(value))
                  for name, (line, at, value) in ((n, zip(*rows)) for n, rows in blocks.items())}
    except OverflowError:
        i, k = next((i, k) for rows in blocks.values() for i, at, _v in rows
                    for k, a in zip(_PARAM_BASE, at) if abs(a) >= 2 ** 63 - 1)
        raise ValueError(f"{path}: data row {i}: {k} does not fit in int64") from None

    def entries(name):  # data rows, 0-based index columns by field, values
        if name not in blocks:
            raise ValueError(f"{path}: no {name} rows")
        return blocks[name]

    def fill(name, keys, shape):
        line, index, value = entries(name)
        at = np.column_stack([index[k] for k in keys])
        bad = ((at < 0) | (at >= shape)).any(axis=1)
        if bad.any():
            raise ValueError(f"{path}: data row {line[bad.argmax()]}: {name} needs "
                             f"{'/'.join(keys)} inside {shape}")
        out = np.full(shape, np.nan)
        out[tuple(at.T)] = value
        if np.isnan(out).any():
            raise ValueError(f"{path}: {name} lacks entries of its {shape} block")
        return out

    u, p, r, k = (max(0, 1 + int(entries(n)[1][key].max())) for n, key in (
        ("beta", "time"), ("beta", "col"), ("K0", "row"), ("sigma2_eps", "instrument")))
    H, U = (fill(n, ("time", "row", "col"), (u, r, r)) if (entries(n)[1]["time"] != _ABSENT).any()
            else fill(n, ("row", "col"), (r, r)) for n in ("H", "U"))
    try:
        return DFGPParams(beta=fill("beta", ("time", "col"), (u, p)), H=H, U=U,
                          K0=fill("K0", ("row", "col"), (r, r)),
                          car=tuple(map(CARParams, *(fill(n, ("time",), (u,))
                                                     for n in ("gamma", "tau2")))),
                          sigma2_eps=fill("sigma2_eps", ("time", "instrument"), (u, k)))
    except InvalidParameterError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# state checkpoint (binary)

def save_state_checkpoint(path, eta: np.ndarray, P: np.ndarray) -> None:
    """eta: (T, r) means; P: (T, r, r) covariances."""
    T, r = np.shape(eta)
    with open(path, "wb") as f:
        f.write(STATE_MAGIC + struct.pack("<III", 1, r, T))
        f.write(np.column_stack([np.reshape(eta, (T, r)), np.reshape(P, (T, r * r))])
                .astype("<f8").tobytes())


def load_state_checkpoint(path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as f:
        if f.read(8) != STATE_MAGIC:
            raise ValueError("not a state checkpoint file")
        version, r, T = struct.unpack("<III", f.read(12))
        if version != 1:
            raise ValueError(f"unsupported checkpoint version {version}")
        data = np.frombuffer(f.read(8 * T * (r + r * r)), dtype="<f8").reshape(T, r + r * r)
    return data[:, :r].astype(float), data[:, r:].reshape(T, r, r).astype(float)


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
