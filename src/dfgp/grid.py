"""BAU grid geometry, instrument footprints, and change-of-support averaging.

The latent field lives on a regular grid of equal-area basic areal units
(BAUs), indexed row-major from the lower-left origin.  An instrument
footprint is the set of BAU indices it integrates over; aggregating any
BAU-level quantity to a footprint is the plain arithmetic mean over the
covered BAUs.  ``Observations`` holds every record of a dataset as columns
that point into one shared footprint table.  Point-level quantities (covariates, basis functions) are
brought to BAU level by Monte Carlo averaging over uniform points inside
each cell.

The point chunk, _POINT_CHUNK consecutive BAUs, is the unit of
reproducibility and of evaluation: one generator seeded by (seed, chunk)
draws the points of all its BAUs at once, and callers evaluate everything
they need on a chunk's points before moving to the next chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .exceptions import InvalidFootprintError

# BAUs [c * _POINT_CHUNK, (c + 1) * _POINT_CHUNK) share one point draw seeded
# by (seed, c), so per-BAU point sets are reproducible under random access.
_POINT_CHUNK = 8192

DEFAULT_MC_POINTS = 30


@dataclass(frozen=True)
class BAUGrid:
    """Regular grid of nx*ny equal-area BAUs.

    Cell (row i, col j) has flat index i*nx + j and centroid
    origin + ((j+0.5)*cell_size, (i+0.5)*cell_size).  ``mask`` marks valid
    BAUs (True = usable); None means all valid.
    """

    nx: int
    ny: int
    cell_size: float
    origin: tuple[float, float] = (0.0, 0.0)
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"grid dimensions must be >= 1, got {self.nx}x{self.ny}")
        if not self.cell_size > 0:
            raise ValueError(f"cell_size must be > 0, got {self.cell_size}")
        if self.mask is not None:
            m = np.asarray(self.mask, dtype=bool)
            if m.shape != (self.n_bau,):
                raise ValueError("mask must have one entry per BAU")
            object.__setattr__(self, "mask", m)

    @property
    def n_bau(self) -> int:
        return self.nx * self.ny

    @property
    def centroids(self) -> np.ndarray:
        """(N, 2) array of cell centroids in flat row-major order."""
        j = np.arange(self.nx)
        i = np.arange(self.ny)
        xs = self.origin[0] + (j + 0.5) * self.cell_size
        ys = self.origin[1] + (i + 0.5) * self.cell_size
        xx, yy = np.meshgrid(xs, ys)
        return np.column_stack([xx.ravel(), yy.ravel()])

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the gridded domain."""
        return (
            self.origin[0],
            self.origin[1],
            self.origin[0] + self.nx * self.cell_size,
            self.origin[1] + self.ny * self.cell_size,
        )

    def valid_indices(self) -> np.ndarray:
        if self.mask is None:
            return np.arange(self.n_bau)
        return np.flatnonzero(self.mask)

    def is_valid(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx)
        ok = (idx >= 0) & (idx < self.n_bau)
        if self.mask is not None:
            ok = ok & np.where(ok, self.mask[np.clip(idx, 0, self.n_bau - 1)], False)
        return ok


def build_grid(nx: int, ny: int, cell_size: float, origin=(0.0, 0.0),
               mask: np.ndarray | None = None) -> BAUGrid:
    """Construct a BAUGrid; raises ValueError on nonpositive dimensions."""
    return BAUGrid(nx=int(nx), ny=int(ny), cell_size=float(cell_size),
                   origin=(float(origin[0]), float(origin[1])), mask=mask)


@dataclass(frozen=True)
class Observations:
    """Every observation record of a dataset, one array per field.

    Records point into a footprint table: footprint f covers the BAUs
    ``fp_indices[fp_indptr[f]:fp_indptr[f + 1]]`` (a CSR row), and an
    instrument's footprints are shared by all the days that observe them.
    The constructor sorts each footprint's indices and drops repeats, and
    stably sorts the records by (time, instrument).  Time steps run
    1..n_times, so trailing steps without records still count.
    """

    time: np.ndarray          # (n,) 1-based time step
    instrument: np.ndarray    # (n,) instrument id >= 1
    footprint: np.ndarray     # (n,) row of the footprint table
    value: np.ndarray         # (n,)
    var_factor: np.ndarray    # (n,) > 0
    fp_indptr: np.ndarray     # (n_footprints + 1,)
    fp_indices: np.ndarray    # BAU indices of all footprints
    n_times: int

    def __post_init__(self):
        for name in ("time", "instrument", "footprint", "fp_indptr", "fp_indices"):
            col = np.asarray(getattr(self, name))
            if col.size and col.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integers, got {col.dtype}")
            object.__setattr__(self, name, col.astype(np.int64))
        value = np.asarray(self.value, dtype=float)
        var = np.asarray(self.var_factor, dtype=float)
        time, inst, fp, indptr, indices = (self.time, self.instrument, self.footprint,
                                           self.fp_indptr, self.fp_indices)
        sizes = np.diff(indptr)
        if not time.shape == inst.shape == fp.shape == value.shape == var.shape:
            raise ValueError("observation fields must have one entry per record")
        if (inst < 1).any():
            raise ValueError("instrument ids must be integers >= 1")
        if not (var > 0).all():
            raise ValueError("variance factors must be > 0")
        if ((time < 1) | (time > self.n_times)).any():
            raise ValueError(f"time indices must lie in 1..{self.n_times}")
        if indptr[:1].tolist() != [0] or indptr[-1] != indices.size or (sizes < 0).any():
            raise ValueError("fp_indptr does not delimit fp_indices")
        if (sizes == 0).any():
            raise InvalidFootprintError(f"footprint {np.argmin(sizes)} covers no BAUs")
        if ((fp < 0) | (fp >= sizes.size)).any():
            raise ValueError("footprint rows must index the footprint table")
        # each footprint's indices sorted and unique
        rows = np.repeat(np.arange(sizes.size), sizes)
        order = np.lexsort((indices, rows))
        rows, indices = rows[order], indices[order]
        new = (np.diff(rows, prepend=-1) != 0) | (np.diff(indices, prepend=-1) != 0)
        rows, indices = rows[new], indices[new]
        object.__setattr__(self, "fp_indices", indices)
        object.__setattr__(self, "fp_indptr", np.searchsorted(rows, np.arange(sizes.size + 1)))
        order = np.argsort(time * (inst.max(initial=0) + 1) + inst, kind="stable")
        for name, col in (("time", time), ("instrument", inst), ("footprint", fp),
                          ("value", value), ("var_factor", var)):
            object.__setattr__(self, name, col[order])
        object.__setattr__(self, "n_times", int(self.n_times))

    @property
    def n_obs(self) -> int:
        return self.value.size

    @property
    def instruments(self) -> list[int]:
        return np.unique(self.instrument).tolist()

    def time_bounds(self) -> np.ndarray:
        """Records of time t are those in [bounds[t - 1], bounds[t])."""
        return np.searchsorted(self.time, np.arange(1, self.n_times + 2))

    def subset(self, keep: np.ndarray) -> "Observations":
        """The records where ``keep`` is True, over the same footprint table."""
        return replace(self, time=self.time[keep], instrument=self.instrument[keep],
                       footprint=self.footprint[keep], value=self.value[keep],
                       var_factor=self.var_factor[keep])

    def footprint_matrix(self, grid: BAUGrid) -> sp.csr_matrix:
        """n_footprints x N change-of-support matrix: row f puts weight 1/m on
        each of the m BAUs footprint f covers.

        Only footprints some record uses are checked against the grid; the
        InvalidFootprintError names the out-of-range or masked indices of the
        first bad one.
        """
        sizes = np.diff(self.fp_indptr)
        used = np.zeros(sizes.size, dtype=bool)
        used[self.footprint] = True
        ok = grid.is_valid(self.fp_indices) | np.repeat(~used, sizes)
        if not ok.all():
            first = np.searchsorted(self.fp_indptr, np.argmin(ok), side="right") - 1
            seg = slice(self.fp_indptr[first], self.fp_indptr[first + 1])
            raise InvalidFootprintError("footprint BAU indices out of range or masked: "
                                        f"{self.fp_indices[seg][~ok[seg]].tolist()}")
        return sp.csr_matrix((np.repeat(1.0 / sizes, sizes), self.fp_indices, self.fp_indptr),
                             shape=(sizes.size, grid.n_bau))


class BAUPointSample:
    """Reproducible uniform Monte Carlo points inside every BAU.

    Points for BAU i depend only on (seed, i // _POINT_CHUNK), so chunked or
    random-access evaluation gives identical results.  Asking for whole
    point chunks draws each chunk once.
    """

    def __init__(self, grid: BAUGrid, n_points: int = DEFAULT_MC_POINTS, seed: int = 0):
        if n_points < 1:
            raise ValueError("n_points must be >= 1")
        self.grid = grid
        self.n_points = int(n_points)
        self.seed = int(seed)

    def points_for(self, indices: np.ndarray) -> np.ndarray:
        """(len(indices), n_points, 2) points for the given BAU indices."""
        indices = np.asarray(indices, dtype=np.int64)
        cents = self.grid.centroids[indices]
        offsets = np.empty((indices.size, self.n_points, 2))
        half = 0.5 * self.grid.cell_size
        for chunk in np.unique(indices // _POINT_CHUNK):
            rng = np.random.default_rng([self.seed, int(chunk)])
            lo = chunk * _POINT_CHUNK
            hi = min(lo + _POINT_CHUNK, self.grid.n_bau)
            block = rng.uniform(-half, half, size=(hi - lo, self.n_points, 2))
            sel = (indices >= lo) & (indices < hi)
            offsets[sel] = block[indices[sel] - lo]
        return cents[:, None, :] + offsets

    def average(self, point_fn, indices: np.ndarray | None = None) -> np.ndarray:
        """MC average of ``point_fn(points)`` per BAU.

        ``point_fn`` must accept an (m, 2) array and return length-m values.
        """
        if indices is None:
            indices = np.arange(self.grid.n_bau)
        indices = np.asarray(indices, dtype=np.int64)
        out = np.empty(indices.size)
        for start in range(0, indices.size, _POINT_CHUNK):
            idx = indices[start:start + _POINT_CHUNK]
            pts = self.points_for(idx)
            vals = np.asarray(point_fn(pts.reshape(-1, 2)), dtype=float)
            out[start:start + _POINT_CHUNK] = vals.reshape(idx.size, self.n_points).mean(axis=1)
        return out
