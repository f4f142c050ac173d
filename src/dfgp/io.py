"""File formats: observation/footprint CSVs, prediction fields, metrics,
parameter flat files, likelihood traces, holdout masks, manifests, and the
binary state checkpoint.

All CSVs are plain comma-separated text with a header row; floats are
written with %.17g so that write -> read round-trips exactly and reruns are
byte-identical.  One chunked reader parses every CSV input a column at a
time and scans rows only to name a bad entry.  The state checkpoint layout
is documented at :data:`STATE_MAGIC` (all fields little-endian).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
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


_OBS_FIELDS = {"time": int, "instrument": int, "footprint_id": int, "value": float,
               "var_factor": float}
_FP_FIELDS = {"footprint_id": int, "bau_index": int}
_PARAM_FIELDS = {"param": str, "time": None, "instrument": None, "row": None, "col": None,
                 "value": float}   # None: an int, or empty if absent
_PARAM_BASE = {"time": 1, "instrument": 1, "row": 0, "col": 0}   # first index in the file
_ABSENT = -2 ** 62   # an index field left empty
_CHUNK_ROWS = 4096   # data rows per bulk conversion: small chunks keep few row lists alive


class _Int64Overflow(ValueError):
    """An int entry beyond int64; ``where`` names the file and data row."""

    def __init__(self, where: str, field: str, text: str):
        super().__init__(f"{where}: {field} does not fit in int64: {text!r}")
        self.where, self.field, self.text = where, field, text


def _column(texts, kind) -> np.ndarray:
    """Entries as an array of ``kind``: int (int64), float, str, or None (int64,
    "" read as _ABSENT).  numpy parses each entry with Python's int() or
    float(), and raises ValueError or, for an int beyond int64, OverflowError."""
    if kind is None:
        texts, kind = [t or _ABSENT for t in texts], int
    return np.array(texts, dtype=np.int64 if kind is int else kind)


def _bad_entry(path, n: int, rows: list, fields, cols: list) -> ValueError:
    """The error naming the first entry of data rows n+1, ... that does not convert."""
    for i, row in enumerate(rows, start=n + 1):
        where = f"{path}: data row {i}"
        for (field, kind), j in zip(fields.items(), cols):
            if j >= len(row):
                return ValueError(f"{where}: {field} is missing")
            try:
                _column((row[j],), kind)
            except OverflowError:
                return _Int64Overflow(where, field, row[j])
            except ValueError:
                return ValueError(f"{where}: {field} is not {(kind or int).__name__}: {row[j]!r}")
    raise AssertionError("every entry converts")


def _read_table(path, fields) -> list[np.ndarray]:
    """One array per {name: kind} of ``fields`` (kinds as in _column): that
    column of a CSV with a header row, blank lines skipped.  Each chunk of
    _CHUNK_ROWS rows converts one column per call; only a chunk that fails
    is scanned row by row.  ValueError names the file and the fields a
    header row lacks, or the first bad 1-based data row and field."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        at = {name: j for j, name in enumerate(next(reader, []))}   # last one wins
        missing = [name for name in fields if name not in at]
        if missing:
            raise ValueError(f"{path}: header row lacks {', '.join(missing)}")
        cols = [at[name] for name in fields]
        parts = [[_column((), kind)] for kind in fields.values()]
        data = filter(None, reader)   # blank lines are not data rows
        n = 0   # data rows read so far
        while rows := list(itertools.islice(data, _CHUNK_ROWS)):
            try:
                by_col = list(zip(*rows))   # as long as the shortest row
                for part, kind, j in zip(parts, fields.values(), cols):
                    part.append(_column(by_col[j], kind))
            except (IndexError, ValueError, OverflowError):
                raise _bad_entry(path, n, rows, fields, cols) from None
            n += len(rows)
    return [np.concatenate(part) for part in parts]


def _check_rows(path, checks) -> None:
    """Raise ValueError naming the first data row that fails one of
    ``checks`` ((bad-row mask, message for row index i) pairs)."""
    bad = np.logical_or.reduce([mask for mask, _msg in checks])
    if bad.any():
        i = int(bad.argmax())
        message = next(msg(i) for mask, msg in checks if mask[i])
        raise ValueError(f"{path}: data row {i + 1}: {message}")


def read_observations(path_obs, path_fps, grid: BAUGrid) -> Observations:
    """Read the observation and footprint CSVs of data on ``grid``; footprints
    that no record uses are dropped, and time steps run 1..max(time).  Beyond
    _read_table's errors, raises ValueError naming the file, the 1-based data
    row and the field for a bau_index outside the grid or on a masked cell, a
    time or instrument below 1, a non-finite value, a var_factor that is not
    finite and > 0, or a footprint_id absent from the footprint file."""
    outside = f"is outside the {grid.nx}x{grid.ny} grid or masked"
    try:
        fid, bau = _read_table(path_fps, _FP_FIELDS)
    except _Int64Overflow as exc:   # an index beyond int64 is outside any grid
        if exc.field != "bau_index":
            raise
        raise ValueError(f"{exc.where}: bau_index {int(exc.text)} {outside}") from None
    _check_rows(path_fps, [(~grid.is_valid(bau), lambda i: f"bau_index {bau[i]} {outside}")])
    time, inst, f, value, var = _read_table(path_obs, _OBS_FIELDS)
    _check_rows(path_obs, [
        (time < 1, lambda i: f"time must be >= 1, got {time[i]}"),
        (inst < 1, lambda i: f"instrument must be >= 1, got {inst[i]}"),
        (~np.isin(f, fid), lambda i: f"footprint_id {f[i]} is not in {path_fps}"),
        (~np.isfinite(value), lambda i: f"value must be finite, got {value[i]}"),
        (~(np.isfinite(var) & (var > 0)),
         lambda i: f"var_factor must be finite and > 0, got {var[i]}")])
    used, fp = np.unique(f, return_inverse=True)
    keep = np.isin(fid, used)   # footprint rows of the footprints records use
    row = np.searchsorted(used, fid[keep])
    order = np.argsort(row)     # Observations sorts each footprint's BAUs
    return Observations(time=time, instrument=inst, footprint=fp, value=value, var_factor=var,
                        fp_indptr=np.searchsorted(row[order], np.arange(used.size + 1)),
                        fp_indices=bau[keep][order], n_times=int(time.max(initial=0)))


def read_basis_centers(path) -> BisquareBasis:
    """One bisquare function per row of a center_x,center_y,radius CSV; a bad
    entry raises ValueError naming the file, the 1-based data row and field."""
    a = np.column_stack(_read_table(path, {"center_x": float, "center_y": float,
                                           "radius": float}))
    _check_rows(path, [(~(np.isfinite(a).all(axis=1) & (a[:, 2] > 0)), lambda i:
                        "need finite center_x, center_y and radius > 0, got "
                        + ", ".join(map(str, a[i])))])
    if not a.size:
        raise ValueError(f"{path}: no data rows")
    return BisquareBasis(a[:, :2], a[:, 2], np.zeros(len(a), dtype=int))


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
    """The (T, N) field of a ``write_truth`` file, NaN where it has no row.
    Raises ValueError naming the file, the 1-based data row and the field of
    an entry that does not parse, a time below 1 or a bau_index below 0."""
    t, b, y = _read_table(path, {"time": int, "bau_index": int, "y_true": float})
    _check_rows(path, [(t < 1, lambda i: f"time must be >= 1, got {t[i]}"),
                       (b < 0, lambda i: f"bau_index must be >= 0, got {b[i]}")])
    out = np.full((t.max(initial=0), b.max(initial=-1) + 1), np.nan)
    out[t - 1, b] = y
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


def write_metrics(path, result: CVResult, by_subset_path) -> None:
    """Main metrics table (subset == all) plus the by-subset table."""
    _write_csv(path, ["method", "protocol", "time", "rmspe", "crps", "n_holdout"],
               ([row.method, row.protocol, row.time_index, _fmt(row.rmspe), _fmt(row.crps),
                 row.n] for row in result.rows if row.subset == "all"))
    _write_csv(by_subset_path,
               ["method", "protocol", "subset", "time", "rmspe", "crps", "n_holdout"],
               ([row.method, row.protocol, row.subset, row.time_index, _fmt(row.rmspe),
                 _fmt(row.crps), row.n] for row in result.rows))


def write_trace(path, trace: np.ndarray) -> None:
    _write_csv(path, ["iteration", "neg2loglik"], ([i, _fmt(v)] for i, v in enumerate(trace)))


# ---------------------------------------------------------------------------
# parameters

def write_params(path, params: DFGPParams) -> None:
    """Flat CSV layout: param,time,instrument,row,col,value.  The fixed-rank
    model (``params.car == ()``) has no gamma and no tau2 rows."""
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


def read_params(path) -> DFGPParams:
    """Read a ``write_params`` file; one with neither gamma nor tau2 rows
    holds the fixed-rank model (``car == ()``).  Raises ValueError naming the
    file, the 1-based data row and the field of an entry that does not parse,
    is not finite or lies outside its block, and naming the file and
    parameter of a block that is missing or incomplete."""
    param, *raw, value = _read_table(path, _PARAM_FIELDS)
    _check_rows(path, [(~np.isfinite(value), lambda i: f"value must be finite, got {value[i]}")])
    index = {k: np.where(a == _ABSENT, _ABSENT, a - b)   # 0-based
             for (k, b), a in zip(_PARAM_BASE.items(), raw)}

    def rows(name):  # 0-based data rows of a block
        i = np.flatnonzero(param == name)
        if not i.size:
            raise ValueError(f"{path}: no {name} rows")
        return i

    def fill(name, keys, shape):
        i = rows(name)
        at = np.column_stack([index[k][i] for k in keys])
        bad = ((at < 0) | (at >= shape)).any(axis=1)
        if bad.any():
            raise ValueError(f"{path}: data row {i[bad.argmax()] + 1}: {name} needs "
                             f"{'/'.join(keys)} inside {shape}")
        out = np.full(shape, np.nan)
        out[tuple(at.T)] = value[i]
        if np.isnan(out).any():
            raise ValueError(f"{path}: {name} lacks entries of its {shape} block")
        return out

    car_rows = [n for n in ("gamma", "tau2") if (param == n).any()]
    if len(car_rows) == 1:
        raise ValueError(f"{path}: no {'tau2' if car_rows == ['gamma'] else 'gamma'} rows, "
                         f"but {car_rows[0]} rows: a CAR block needs both")
    u, p, r, k = (max(0, 1 + int(index[key][rows(n)].max())) for n, key in (
        ("beta", "time"), ("beta", "col"), ("K0", "row"), ("sigma2_eps", "instrument")))
    H, U = (fill(n, ("time", "row", "col"), (u, r, r)) if (index["time"][rows(n)] != _ABSENT).any()
            else fill(n, ("row", "col"), (r, r)) for n in ("H", "U"))
    try:
        return DFGPParams(beta=fill("beta", ("time", "col"), (u, p)), H=H, U=U,
                          K0=fill("K0", ("row", "col"), (r, r)),
                          car=tuple(itertools.starmap(CARParams, zip(
                              *(fill(n, ("time",), (u,)) for n in car_rows)))),
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
                   inputs, outputs) -> None:
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
