"""BAU grid geometry, instrument footprints, and change-of-support averaging.

The latent field lives on a regular grid of equal-area basic areal units
(BAUs), indexed row-major from the lower-left origin.  An instrument
footprint is the set of BAU indices it integrates over; aggregating any
BAU-level quantity to a footprint is the plain arithmetic mean over the
covered BAUs.  Point-level quantities (covariates, basis functions) are
brought to BAU level by Monte Carlo averaging over uniform points inside
each cell.

The point chunk, _POINT_CHUNK consecutive BAUs, is the unit of
reproducibility and of evaluation: one generator seeded by (seed, chunk)
draws the points of all its BAUs at once, and callers evaluate everything
they need on a chunk's points before moving to the next chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def bau_index_at(self, coord) -> int:
        """Flat index of the BAU whose centroid equals ``coord`` exactly."""
        x, y = coord
        fx = (x - self.origin[0]) / self.cell_size - 0.5
        fy = (y - self.origin[1]) / self.cell_size - 0.5
        j, i = round(fx), round(fy)
        if not (0 <= j < self.nx and 0 <= i < self.ny):
            raise ValueError(f"{coord} is not a BAU centroid of this grid")
        idx = i * self.nx + j
        c = self.centroids[idx]
        if not (np.isclose(c[0], x) and np.isclose(c[1], y)):
            raise ValueError(f"{coord} is not a BAU centroid of this grid")
        return idx


def build_grid(nx: int, ny: int, cell_size: float, origin=(0.0, 0.0),
               mask: np.ndarray | None = None) -> BAUGrid:
    """Construct a BAUGrid; raises ValueError on nonpositive dimensions."""
    return BAUGrid(nx=int(nx), ny=int(ny), cell_size=float(cell_size),
                   origin=(float(origin[0]), float(origin[1])), mask=mask)


@dataclass(frozen=True)
class Footprint:
    """Set of BAU indices one observation integrates over."""

    bau_indices: np.ndarray
    instrument: int = 1
    time_index: int = 1

    def __post_init__(self):
        idx = np.unique(np.asarray(self.bau_indices, dtype=np.int64))
        if idx.size == 0:
            raise InvalidFootprintError("footprint covers no BAUs")
        object.__setattr__(self, "bau_indices", idx)


@dataclass
class ObservationBatch:
    """All observations for one time step, grouped by instrument.

    ``per_instrument`` maps instrument id k (1..k0, contiguous) to a list of
    (Footprint, value, variance_factor) records with variance_factor > 0.
    """

    time_index: int
    per_instrument: dict[int, list[tuple[Footprint, float, float]]] = field(default_factory=dict)

    def __post_init__(self):
        # ids must be positive ints; contiguity over the whole dataset is
        # checked at assembly (a single time step may miss an instrument)
        for k, recs in self.per_instrument.items():
            if not (isinstance(k, int) and k >= 1):
                raise ValueError(f"instrument ids must be integers >= 1, got {k!r}")
            for fp, _z, v in recs:
                if not v > 0:
                    raise ValueError(f"variance factor must be > 0 (instrument {k})")

    @property
    def n_obs(self) -> int:
        return sum(len(v) for v in self.per_instrument.values())

    @property
    def instruments(self) -> list[int]:
        return sorted(self.per_instrument)


def footprint_row(fp: Footprint, grid: BAUGrid) -> sp.csr_matrix:
    """1 x N sparse change-of-support row: weight 1/m on each covered BAU."""
    return footprint_matrix([fp], grid)


def footprint_matrix(footprints: list[Footprint], grid: BAUGrid) -> sp.csr_matrix:
    """n x N sparse matrix stacking footprint_row for each footprint.

    Raises InvalidFootprintError naming the out-of-range or masked indices of
    the first footprint that has any.
    """
    if not footprints:
        return sp.csr_matrix((0, grid.n_bau))
    cols = np.concatenate([fp.bau_indices for fp in footprints])
    counts = np.array([fp.bau_indices.size for fp in footprints])
    indptr = np.concatenate([[0], np.cumsum(counts)])
    ok = grid.is_valid(cols)
    if not ok.all():
        first = np.searchsorted(indptr, np.argmin(ok), side="right") - 1
        seg = slice(indptr[first], indptr[first + 1])
        raise InvalidFootprintError(
            f"footprint BAU indices out of range or masked: {cols[seg][~ok[seg]].tolist()}")
    return sp.csr_matrix((np.repeat(1.0 / counts, counts), cols, indptr),
                         shape=(len(footprints), grid.n_bau))


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


def mc_average(point_fn, grid: BAUGrid, bau_index: int,
               n_points: int = DEFAULT_MC_POINTS, seed: int = 0) -> float:
    """Monte Carlo average of a point function over one BAU cell."""
    sample = BAUPointSample(grid, n_points=n_points, seed=seed)
    return float(sample.average(point_fn, np.array([bau_index]))[0])


def aggregate_covariates(point_fns, footprints: list[Footprint], grid: BAUGrid,
                         n_points: int = DEFAULT_MC_POINTS, seed: int = 0,
                         bau_values: np.ndarray | None = None) -> np.ndarray:
    """n x p covariate matrix at footprint support.

    Each point-level covariate is first averaged to BAU level, then averaged
    over each footprint's BAUs.  ``bau_values`` (N x p) short-circuits the
    BAU-level step when the caller has already cached it.
    """
    if bau_values is None:
        sample = BAUPointSample(grid, n_points=n_points, seed=seed)
        bau_values = np.column_stack([sample.average(f) for f in point_fns])
    rows = footprint_matrix(footprints, grid)
    return rows @ bau_values
