"""Multi-resolution bisquare spatial basis.

Each basis function is a compactly supported bisquare bump
    f(u) = (1 - (d/l)^2)^2   for d = |u - c| <= l,  0 otherwise.
Centers are laid out on near-square lattices, one lattice per resolution,
with radius = radius_mult * lattice spacing (1.5 by default, the usual
fixed-rank-kriging convention; the choice is configurable).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import _POINT_CHUNK, BAUGrid, BAUPointSample


def bisquare_eval(u, c, radius: float):
    """Bisquare value at point(s) u for center c; exactly 0 outside radius."""
    if not radius > 0:
        raise ValueError("bisquare radius must be > 0")
    u = np.asarray(u, dtype=float)
    d2 = ((u - np.asarray(c, dtype=float)) ** 2).sum(axis=-1)
    w = 1.0 - d2 / radius**2
    return np.where(d2 <= radius**2, w * w, 0.0)


@dataclass(frozen=True)
class BisquareBasis:
    """r bisquare functions with per-function centers, radii, resolution tags."""

    centers: np.ndarray       # (r, 2)
    radii: np.ndarray         # (r,)
    resolution: np.ndarray    # (r,) int tag per function

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        rad = np.asarray(self.radii, dtype=float).ravel()
        res = np.asarray(self.resolution, dtype=np.int64).ravel()
        if c.shape[0] == 0:
            raise ValueError("basis must contain at least one function")
        if not (rad > 0).all():
            raise ValueError("all basis radii must be > 0")
        if not (c.shape[0] == rad.size == res.size):
            raise ValueError("centers, radii, resolution must agree in length")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", rad)
        object.__setattr__(self, "resolution", res)

    @property
    def r(self) -> int:
        return self.centers.shape[0]


def _lattice_shape(count: int, aspect: float) -> tuple[int, int]:
    """Factor count = rows*cols with cols/rows as close to aspect as possible."""
    best = None
    for rows in range(1, count + 1):
        if count % rows:
            continue
        cols = count // rows
        score = abs(np.log(cols / rows) - np.log(aspect))
        if best is None or score < best[0]:
            best = (score, rows, cols)
    return best[1], best[2]


def layout_multires(bbox, counts, radius_mult: float = 1.5) -> BisquareBasis:
    """Equally spaced center lattices, one per resolution.

    bbox is (xmin, ymin, xmax, ymax); counts is the number of functions per
    resolution.  Within a resolution the centers form a cell-centered
    rows x cols lattice and share one radius = radius_mult * spacing.
    """
    counts = [int(c) for c in counts]
    if not counts or any(c < 1 for c in counts):
        raise ValueError("counts must be a nonempty list of positive ints")
    xmin, ymin, xmax, ymax = bbox
    w, h = xmax - xmin, ymax - ymin
    if not (w > 0 and h > 0):
        raise ValueError("bbox must have positive extent")
    centers, radii, tags = [], [], []
    for res, count in enumerate(counts):
        rows, cols = _lattice_shape(count, w / h)
        dx, dy = w / cols, h / rows
        xs = xmin + (np.arange(cols) + 0.5) * dx
        ys = ymin + (np.arange(rows) + 0.5) * dy
        xx, yy = np.meshgrid(xs, ys)
        centers.append(np.column_stack([xx.ravel(), yy.ravel()]))
        radii.append(np.full(count, radius_mult * max(dx, dy)))
        tags.append(np.full(count, res, dtype=np.int64))
    return BisquareBasis(np.vstack(centers), np.concatenate(radii), np.concatenate(tags))


def bau_basis_values(basis: BisquareBasis, grid: BAUGrid,
                     sample: BAUPointSample | None = None) -> np.ndarray:
    """N x r matrix of MC-averaged basis values per BAU.

    Runs one point chunk at a time (see ``dfgp.grid``): the chunk's points
    are drawn once, and each function is evaluated only at the chunk's BAUs
    whose cell can intersect its support disc, so the cost scales with the
    total support area rather than N*r.
    """
    if sample is None:
        sample = BAUPointSample(grid)
    N = grid.n_bau
    out = np.zeros((N, basis.r))
    cents = grid.centroids
    # a cell's points lie within half its diagonal of the centroid
    reach = basis.radii + grid.cell_size * np.sqrt(0.5)
    r2 = basis.radii ** 2
    for lo in range(0, N, _POINT_CHUNK):
        hi = min(lo + _POINT_CHUNK, N)
        pts = sample.points_for(np.arange(lo, hi))
        px, py = pts[..., 0].copy(), pts[..., 1].copy()
        cx, cy = cents[lo:hi, 0], cents[lo:hi, 1]
        for i, (c0, c1) in enumerate(basis.centers):
            near = np.flatnonzero((np.abs(cx - c0) <= reach[i]) & (np.abs(cy - c1) <= reach[i]))
            if near.size == 0:
                continue
            # bisquare_eval's arithmetic, in place: this loop is memory-bound
            d2 = px[near]
            d2 -= c0
            d2 *= d2
            w = py[near]
            w -= c1
            d2 += w * w
            np.divide(d2, r2[i], out=w)
            np.subtract(1.0, w, out=w)
            w *= w
            w[d2 > r2[i]] = 0.0
            out[lo + near, i] = w.mean(axis=1)
    return out
