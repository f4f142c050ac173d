"""Conditional autoregressive (CAR) structure on the BAU graph.

The fine-scale component has sparse precision
    Q = Delta^{-1} (I - gamma W) / tau^2 = (D - gamma E) / tau^2,
where E is the 0/1 adjacency, D = diag(degrees) and W = D^{-1} E is the
row-normalized proximity matrix.  Solves and the log-determinant of a
sparse SPD matrix go through one sparse symmetric factorization (SuperLU in
symmetric mode with a fill-reducing ordering).

D - gamma E has two kinds of factor, built by ``CARStructure.factor`` alone
and used through the same four names (``solve``, ``logdet``,
``solve_selected_diag``, ``shape``).  On a grid with no masked cell the rook
matrix is a Kronecker sum, D - gamma E = A_y (x) I + I (x) A_x with
A = diag(1, 2, ..., 2, 1) - gamma (path adjacency) tridiagonal, so one
tridiagonal eigendecomposition per axis gives it in closed form
(``KroneckerSumFactor``).  On one BLAS thread of a 2-vCPU host it takes
~1 ms per gamma at N = 10^4, where SuperLU takes ~20 ms, and ~5 ms at
N = 65,536, where SuperLU takes ~0.25 s.  Its eigenvector matrices hold
ny^2 + nx^2 numbers, so it is built only while that stays within
KRONECKER_MAX_RATIO times N; a long strip, a masked grid, or a structure
built from an explicit adjacency takes the sparse factorization
(``SparseFactor``).

ln|I - gamma W| has one path.  Each factor ``CARStructure.factor`` builds
records the exact ln|I - gamma W| in a per-gamma memo, so the likelihood
(``precision_logdet``) and CAR sampling share one factor per gamma.
The M-step gamma search uses ``logdet_curve``: a Chebyshev interpolant in
s = ln(1 - gamma) through LOGDET_CURVE_NODES exact values, built once per
structure on first use (Pace & Barry 1997).  Its error against the exact
path is about 1e-12 relative from N = 12 to N = 1,600 and about 1e-11 at
N = 10^4.

The filter's F_t = Q_t + B_t' V_t^{-1} B_t is factored in one fill-reducing
order per data set (``ModelData.fine_order``): coordinate nested dissection
(``nested_dissection``) of the union of the patterns of D + E and of every
slice's B_t' B_t, each part cut across its longer extent at the grid line
near its median that leaves the smallest separator.  ``OrderedPrecision``
builds D - gamma E in that order and ``SparseFactor`` maps its answers back.
On the bench scenario's F_1 at N = 65,536 it stores 5.0M entries against
minimum degree's 5.6M and factors in about half the time; computing the
order takes 0.2-0.25 s once.  D - gamma E alone keeps minimum degree: on a
masked 256 x 256 grid (N = 50,535) nested dissection held 3.35M entries
against 2.30M, for a factor and 2-column solve of 178 against 209 ms.

Exact EM needs M^{-1} on the pattern of M (``SparseFactor.selected_inverse``),
prediction variances its diagonal (``solve_selected_diag``); both come from
one Takahashi selected inversion over the pattern of L, which makes no
solve.  It walks the elimination tree of L's supernodes one depth at a
time and runs the supernodes of one depth and shape as one stack of numpy
calls, so its cost is a few calls per depth and shape rather than a Python
loop over ~N/2 supernodes.  For the diagonal, below SELECTED_INVERSION_MIN
requested indices one unit solve each (on the solve pool) is cheaper.
Measured on the bench scenario's F_t in the nested-dissection order, one
BLAS thread of a 2-vCPU host, median of 7: the full diagonal takes 38 ms at
N = 4,096 (a unit solve 0.22 ms), 0.12 s at 16,384 (0.9 ms) and 0.63 s at
65,536 (5.2 ms), so the crossover lies at about 176, 131 and 122 indices
(a second run: 258, 115 and 116).  These runs were on a slower hour of the
host than the earlier minimum-degree figures (0.025 s and 0.5 s for the
diagonal, crossovers of 130, 100 and 75-85).

Independent SuperLU calls (the blocks of one factor's multi-column solves,
the curve's nodes) run on one thread pool with a thread per CPU the process
may run on (``run_parallel``).  The filter starts a step's solves there
without waiting (``run_ahead``) and factors the next step's F meanwhile.
Each task makes the same calls on the same data whatever thread runs it, so
results do not depend on the thread count.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import Chebyshev
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dtrtri
from scipy.sparse.csgraph import connected_components

from .exceptions import FactorizationError, InvalidParameterError, StructureError
from .grid import BAUGrid

# gamma must stay strictly below 1 for Q to be positive definite (W is
# row-stochastic, so its spectrum touches 1).
GAMMA_MAX = 1.0 - 1e-6
GAMMA_MIN = 0.0

# Chebyshev-Lobatto nodes (one exact log-determinant each) behind the
# cached ln|I - gamma W| curve used by the gamma search.
# On a 100x100 grid 48 nodes leave ~1e-8 relative error and 64 leave ~1e-11.
LOGDET_CURVE_NODES = 64

# Fewest requested indices for which SparseFactor.solve_selected_diag inverts
# the whole factor by selected inversion instead of solving one unit vector
# per index (measured crossover: see the module docstring).
SELECTED_INVERSION_MIN = 112

# nested_dissection leaves a part of at most ND_LEAF nodes uncut and cuts
# each larger part at one of the grid lines within ND_WINDOW of its median.
# Measured on six F_t patterns (64^2, 128^2 and 256^2 grids; 4 x 4 coarse
# tiles aligned or offset by (1, 2), 5 x 5 offset by (2, 3)), one BLAS
# thread: leaves of 8, 32 and 64 nodes give 1-2.5%, 10-19% and 22-34% more
# nnz(L+U) than 16 on every one, and 8 takes 5-24% longer to order.  Windows
# of 2, 3 and 4 lines give the same fill on these tiles; 3 reaches a
# boundary between tiles up to 7 cells wide.
ND_LEAF = 16
ND_WINDOW = 3

# The closed-form factor of an unmasked ny x nx grid is used while
# ny^2 + nx^2 <= KRONECKER_MAX_RATIO * N; a longer strip takes SuperLU.
# Measured at gamma = 0.9, one BLAS thread of a 2-vCPU host, closed form
# against SuperLU for one factor and one 2-column solve: at ratio 16
# (16x256, 32x512, 64x1024) 2.3 / 12 / 56 ms against 5.2 / 40 / 194 ms, at
# ratio 64 (8x512, 16x1024, 32x2048) 12 / 44 / 283 ms against 6 / 20 / 158 ms.
# Its two eigenvector matrices then hold at most 16 N numbers.
KRONECKER_MAX_RATIO = 16

# Right-hand sides per SuperLU solve when many columns are solved against one
# factor (the r columns of the filter step, the unit vectors of the
# selected-diagonal solves); the blocks run on the solve pool.  Measured for
# the 99 columns and the innovation column of a 256x256 F_t on a 2-CPU pool,
# one BLAS thread, median of 7: 0.31 s in blocks of 8, 0.39 s of 4, 0.30 s
# of 12, 0.32 s of 16, 0.46 s of 33, 1.0 s all at once; the columns alone in
# blocks of 8 take 0.58 s on one thread.  Re-measured on the bench F_1 in the
# nested-dissection order (a slower hour of the same host), blocks of 8, 12
# and 16: 22 / 21 / 21 ms at N = 4,096, 99 / 106 / 105 ms at 16,384 and
# 533 / 487 / 508 ms at 65,536 (4: 35, 151 and 677 ms), so 8 stays.  Blocks
# of up to 16 give the same bits as blocks of 8, blocks of 33 and more do
# not.  A block also bounds each worker's dense right-hand side at
# n x SOLVE_BLOCK.
SOLVE_BLOCK = 8


@cache
def _pool() -> ThreadPoolExecutor:
    """The process's solve pool, one thread per CPU the process may run on,
    created on first use."""
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="dfgp-solve")


def run_parallel(tasks: Sequence[Callable[[], object]]) -> list:
    """Run independent zero-argument tasks on the solve pool and return their
    results in order; the first failing task's exception re-raises here.

    SuperLU's factorization and solves release the GIL, so tasks that each
    make one such call overlap.  A task must not write state another task
    reads, nor submit to the pool itself (a task waiting on the pool from
    inside it can deadlock).
    """
    return list(_pool().map(lambda task: task(), tasks))


def run_ahead(task: Callable[[], object]) -> Future:
    """Start one zero-argument task on the solve pool and return its future.

    The task must keep run_parallel's rules, and the caller must not wait on
    the future from inside a pool task.
    """
    return _pool().submit(task)


@dataclass(frozen=True)
class CARParams:
    """Spatial dependence gamma in [0, 1) and conditional variance tau2 > 0."""

    gamma: float
    tau2: float

    def __post_init__(self):
        if not self.tau2 > 0:
            raise InvalidParameterError(f"tau2 must be > 0, got {self.tau2}")
        if not (GAMMA_MIN <= self.gamma <= GAMMA_MAX):
            raise InvalidParameterError(
                f"gamma must lie in [{GAMMA_MIN}, {GAMMA_MAX}], got {self.gamma}")


class CARStructure:
    """Adjacency graph over the valid BAUs with degree and edge bookkeeping.

    ``valid_idx`` maps internal node order (0..n-1) to flat grid indices; all
    matrices built here use the internal order.  ``grid_shape`` is None
    except on a structure from ``build_adjacency`` of a grid with no masked
    cell, where it is that grid's (ny, nx): the adjacency is then the rook
    graph of the full grid in row-major order, and D - gamma E may factor
    in closed form.
    """

    def __init__(self, adjacency: sp.csr_matrix, valid_idx: np.ndarray):
        adjacency = adjacency.tocsr()
        if (adjacency != adjacency.T).nnz:
            raise StructureError("adjacency must be symmetric")
        if adjacency.diagonal().any():
            raise StructureError("adjacency must have a zero diagonal")
        deg = np.asarray(adjacency.sum(axis=1)).ravel()
        if (deg < 1).any():
            bad = valid_idx[np.flatnonzero(deg < 1)]
            raise StructureError(f"isolated BAU(s) at grid index {bad.tolist()}")
        self.adjacency = adjacency
        self.degrees = deg
        self.grid_shape: tuple[int, int] | None = None
        self.valid_idx = np.asarray(valid_idx, dtype=np.int64)
        upper = sp.triu(adjacency, k=1).tocoo()
        self.edges = np.column_stack([upper.row, upper.col])
        self._logdet_memo: dict[float, float] = {}  # gamma -> exact ln|I - gamma W|

    @property
    def n(self) -> int:
        return self.degrees.size

    @cached_property
    def n_components(self) -> int:
        """Number of connected components of the adjacency graph."""
        return int(connected_components(self.adjacency, directed=False)[0])

    @cached_property
    def incidence(self) -> sp.csr_matrix:
        """|edges| x n incidence matrix M with M'M = graph Laplacian."""
        ne = self.edges.shape[0]
        rows = np.repeat(np.arange(ne), 2)
        cols = self.edges.ravel()
        vals = np.tile([1.0, -1.0], ne)
        return sp.csr_matrix((vals, (rows, cols)), shape=(ne, self.n))

    @cached_property
    def _precision_parts(self) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
        """The CSC pattern of D + E and its values split as D + (-E)."""
        pattern = (sp.diags(self.degrees) - self.adjacency).tocsc()
        rows = pattern.indices
        cols = np.repeat(np.arange(self.n), np.diff(pattern.indptr))
        on_diag = rows == cols
        return (pattern, np.where(on_diag, pattern.data, 0.0),
                np.where(on_diag, 0.0, pattern.data))

    def base_precision(self, gamma: float) -> sp.csc_matrix:
        """D - gamma*E, the unscaled CAR precision (SPD for gamma in [0,1)).

        At gamma = 0 only the diagonal is stored.  Otherwise the values fill
        one cached pattern of D + E, so the matrix equals
        (sp.diags(D) - gamma * E).tocsc() array for array.
        """
        if gamma == 0:
            return sp.diags(self.degrees, format="csc")
        pattern, d, minus_e = self._precision_parts
        return sp.csc_matrix((d + gamma * minus_e, pattern.indices, pattern.indptr),
                             shape=pattern.shape)

    @cached_property
    def _log_degree_sum(self) -> float:
        return float(np.log(self.degrees).sum())

    @property
    def closed_form(self) -> bool:
        """Whether ``factor`` builds the closed-form factor: a full grid no
        longer than KRONECKER_MAX_RATIO allows."""
        return (self.grid_shape is not None
                and sum(m * m for m in self.grid_shape) <= KRONECKER_MAX_RATIO * self.n)

    def factor(self, gamma: float) -> SparseFactor | KroneckerSumFactor:
        """Factorize D - gamma E, in closed form where ``closed_form`` says
        so, and memoize ln|I - gamma W| from the factor."""
        if self.closed_form:
            factor = KroneckerSumFactor(self.grid_shape, gamma)
        else:
            factor = sparse_factorize(self.base_precision(gamma))
        self._logdet_memo.setdefault(float(gamma), factor.logdet() - self._log_degree_sum)
        return factor

    def logdet_i_minus_gamma_w(self, gamma: float) -> float:
        """Exact ln|I - gamma W|, memoized per gamma (one factor on a miss)."""
        if gamma not in self._logdet_memo:
            self.factor(gamma)
        return self._logdet_memo[gamma]

    @cached_property
    def _logdet_chebyshev(self) -> Chebyshev:
        """Interpolant of h(s) = ln|I - gamma W| - c s with s = ln(1 - gamma).

        Each of the c connected components gives W one eigenvalue 1, whose
        term ln(1 - gamma) = s is taken out exactly; the remaining terms are
        analytic in s on [ln(1 - GAMMA_MAX), 0].
        """
        lo = float(np.log1p(-GAMMA_MAX))
        k = np.arange(LOGDET_CURVE_NODES)
        s = lo * (1.0 - np.cos(np.pi * k / (LOGDET_CURVE_NODES - 1))) / 2.0
        logdets = run_parallel([partial(self.logdet_i_minus_gamma_w, -np.expm1(si))
                                for si in s])
        h = [ld - self.n_components * si for ld, si in zip(logdets, s)]
        return Chebyshev.fit(s, h, LOGDET_CURVE_NODES - 1, domain=(lo, 0.0))

    def logdet_curve(self, gamma: float) -> float:
        """ln|I - gamma W| for the gamma search, from the cached Chebyshev
        curve (built on first call from LOGDET_CURVE_NODES exact values)."""
        s = float(np.log1p(-gamma))
        return float(self._logdet_chebyshev(s)) + self.n_components * s

    def precision_draw(self, gamma: float, rng: np.random.Generator,
                       size: int) -> np.ndarray:
        """(n, size) draws of w ~ N(0, D - gamma E), by the split
        D - gamma E = (1 - gamma) D + gamma M'M with M the incidence matrix:
        w = sqrt(1 - gamma) D^{1/2} z1 + sqrt(gamma) M' z2.  It needs no
        factor of D - gamma E."""
        z1 = rng.standard_normal((self.n, size))
        z2 = rng.standard_normal((self.edges.shape[0], size))
        return (np.sqrt(1.0 - gamma) * np.sqrt(self.degrees)[:, None] * z1
                + np.sqrt(gamma) * (self.incidence.T @ z2))

    def precision_logdet(self, params: CARParams) -> float:
        """ln|Q| for Q = (D - gamma E)/tau2."""
        return (-self.n * np.log(params.tau2) + self._log_degree_sum
                + self.logdet_i_minus_gamma_w(params.gamma))


class OrderedPrecision:
    """D - gamma E of a structure with its nodes in a fixed order.

    ``order`` lists the nodes by position and ``position`` maps each node to
    its position.  ``base_precision(gamma)`` holds the same values as
    ``structure.base_precision(gamma)[order][:, order]`` (gamma > 0) on a
    pattern permuted once, and ``relabel`` moves a matrix's columns from
    node to position order.
    """

    def __init__(self, structure: CARStructure, order: np.ndarray):
        self.order = np.asarray(order, dtype=np.int64)
        self.position = _inverse(self.order).astype(np.int32)
        m = (sp.diags(structure.degrees) - structure.adjacency).tocsr()
        m = m[self.order][:, self.order].tocsc()
        self._indices, self._indptr, self.shape = m.indices, m.indptr, m.shape
        cols = np.repeat(np.arange(m.shape[1], dtype=m.indices.dtype), np.diff(m.indptr))
        self._diagonal = np.flatnonzero(m.indices == cols)
        self._degrees = structure.degrees[self.order]

    def base_precision(self, gamma: float) -> sp.csc_matrix:
        values = np.full(self._indices.size, -float(gamma))
        values[self._diagonal] = self._degrees
        return sp.csc_matrix((values, self._indices, self._indptr), shape=self.shape)

    def relabel(self, matrix: sp.csr_matrix) -> sp.csr_matrix:
        """The CSR matrix with column j moved to column position[j]."""
        return sp.csr_matrix((matrix.data, self.position[matrix.indices], matrix.indptr),
                             shape=matrix.shape)


def nested_dissection(coords: np.ndarray, pattern: sp.csr_matrix) -> np.ndarray:
    """A fill-reducing order of a symmetric sparsity pattern whose nodes sit
    at integer grid coordinates (rows of ``coords``): the nodes by position.

    Coordinate nested dissection (George 1973).  Each part of more than
    ND_LEAF nodes is cut across its longer extent by a grid line: of the
    lines within ND_WINDOW of the part's median, the one whose crossing
    edges leave the fewest separator nodes, the nearest the median on a tie.
    The separator is the smaller of the crossing edges' two endpoint sets,
    so without it the two halves share no edge; a part is ordered as its
    lower half, its upper half, then its separator.  All parts of one level
    are cut at once, by numpy calls over the nodes left and the edges of the
    nodes near the cuts.  The pattern's diagonal, if stored, is ignored.
    """
    n = coords.shape[0]
    coords = np.asarray(coords, dtype=np.int32)
    pattern = sp.csr_matrix(pattern)
    ip, nbrs = pattern.indptr, pattern.indices
    deg = np.diff(ip).astype(np.int32)
    # an edge joins nodes at most `span` apart on either axis, so the ends of
    # an edge across a line within ND_WINDOW of the median lie within `reach`
    span = 0
    for c in coords.T:
        gap = c[nbrs]
        gap -= np.repeat(c, deg)
        span = max(span, int(np.abs(gap, out=gap).max(initial=0)))
    del gap
    reach = ND_WINDOW + span
    cuts = np.arange(-ND_WINDOW, ND_WINDOW + 1, dtype=np.int32)
    rank = np.argsort(np.argsort(np.abs(cuts) * 2 + (cuts > 0), kind="stable"))
    # a node's key is part * wide + its coordinate less the part's median;
    # keys of one part lie within wide / 2 of each other, and of two parts not
    wide = 4 * (int(coords.max(initial=0)) + 1)
    kdt = np.int32 if (n // ND_LEAF + 16) * wide < 2 ** 31 else np.int64
    key_of = np.zeros(n, dtype=kdt)
    placed = np.array(-8 * wide, dtype=kdt)           # the key of a placed node
    order = np.arange(n)
    act = order.astype(np.int32)        # unplaced nodes, each part's contiguous
    part = np.zeros(n, dtype=np.int32)
    first = np.zeros(1, dtype=np.int64)         # each part's first position
    while act.size > ND_LEAF:          # some part has more than ND_LEAF nodes
        pl = part[act]
        starts = np.flatnonzero(np.concatenate([[True], pl[1:] != pl[:-1]]))
        sizes = np.diff(np.append(starts, act.size))
        row, col = coords[act, 0], coords[act, 1]
        across = (np.maximum.reduceat(col, starts) - np.minimum.reduceat(col, starts)
                  >= np.maximum.reduceat(row, starts) - np.minimum.reduceat(row, starts))
        coord = np.where(across[pl], col, row)
        by_coord = np.argsort(pl.astype(kdt) * wide + coord, kind="stable")
        act, coord = act[by_coord], coord[by_coord]
        rel = coord - coord[starts + sizes // 2][pl]
        key = pl.astype(kdt) * wide + rel
        key_of[act] = key
        # each near node's highest and lowest rel among its part's neighbours
        near = np.flatnonzero((rel >= -reach) & (rel < reach) & (deg[act] > 0))
        nd = deg[act[near]]
        own = np.repeat(key[near], nd)
        kv = key_of[nbrs[_ragged(ip[act[near]], nd)]]
        kv = np.where(np.abs(kv - own) < wide // 2, kv, own)
        del own
        seg = np.cumsum(nd) - nd
        base = key[near] - rel[near]
        rn = rel[near]
        top = np.maximum.reduceat(kv, seg) - base
        bot = np.minimum.reduceat(kv, seg) - base
        del kv
        # a near node is a lower (upper) end of an edge across line m + k for
        # the k in (rel, top] (in (bot, rel]); count the ends of each line
        # from where those runs of k start and stop
        n_lo = _runs_per_part(pl[near], rn + 1, top + 1, starts.size)
        n_hi = _runs_per_part(pl[near], bot + 1, rn + 1, starts.size)
        below = np.searchsorted(key, np.arange(starts.size, dtype=kdt)[:, None] * wide + cuts)
        split = (below > starts[:, None]) & (below < (starts + sizes)[:, None])
        score = np.where(split, np.minimum(n_lo, n_hi) * cuts.size + rank, np.inf)
        best = np.argmin(score, axis=1)
        use_hi = (n_hi <= n_lo)[np.arange(starts.size), best]
        k = cuts[best][pl[near]]
        sep = np.zeros(act.size, dtype=bool)
        sep[near] = np.where(use_hi[pl[near]], (bot < k) & (k <= rn), (rn < k) & (k <= top))
        upper = rel >= cuts[best][pl]
        # positions: the lower half, the upper half, then the separator
        sep_before = np.cumsum(sep) - sep
        sep_before -= sep_before[starts][pl]
        n_sep = np.add.reduceat(sep, starts, dtype=np.int64)
        n_low = np.add.reduceat(~upper & ~sep, starts, dtype=np.int64)
        halves = np.column_stack([n_low, sizes - n_sep - n_low])
        final = first[pl] + np.where(sep, sizes[pl] - n_sep[pl] + sep_before,
                                     np.arange(act.size) - starts[pl] - sep_before)
        more = halves > ND_LEAF
        done = sep | ~more[pl, upper.astype(np.int32)]
        order[final[done]] = act[done]
        key_of[act[done]] = placed
        child = np.full(more.size, -1, dtype=np.int32)
        child[more.ravel()] = np.arange(more.sum(), dtype=np.int32)
        keep = ~done
        act = act[keep]
        part[act] = child.reshape(-1, 2)[pl[keep], upper[keep].astype(np.int32)]
        first = np.column_stack([first, first + n_low])[more]
    return order


def _runs_per_part(part: np.ndarray, start: np.ndarray, stop: np.ndarray,
                   n_parts: int) -> np.ndarray:
    """(n_parts, 2 ND_WINDOW + 1): how many of the runs start[i] <= k <
    stop[i] of each part hold k, for k from -ND_WINDOW to ND_WINDOW."""
    w = 2 * ND_WINDOW + 2
    start = np.clip(start, -ND_WINDOW, ND_WINDOW + 1)
    stop = np.clip(stop, -ND_WINDOW, ND_WINDOW + 1)
    run = start < stop
    at = part[run].astype(np.int64) * w + ND_WINDOW
    steps = (np.bincount(at + start[run], minlength=n_parts * w)
             - np.bincount(at + stop[run], minlength=n_parts * w))
    return np.cumsum(steps.reshape(n_parts, w), axis=1)[:, :-1]


def build_adjacency(grid: BAUGrid) -> CARStructure:
    """First-order (rook, 4-neighbor) adjacency over the grid's valid BAUs.

    A grid with no masked cell gives the structure its (ny, nx) shape
    (``CARStructure.grid_shape``).
    Raises StructureError naming any valid BAU left without a valid neighbor.
    """
    idx = np.arange(grid.n_bau).reshape(grid.ny, grid.nx)
    pairs = np.vstack([np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()]),
                       np.column_stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])])
    if grid.mask is not None:
        keep = grid.mask[pairs[:, 0]] & grid.mask[pairs[:, 1]]
        pairs = pairs[keep]
    valid = grid.valid_indices()
    if valid.size == 0:
        raise StructureError("grid has no valid BAUs")
    remap = np.full(grid.n_bau, -1, dtype=np.int64)
    remap[valid] = np.arange(valid.size)
    rows = np.concatenate([remap[pairs[:, 0]], remap[pairs[:, 1]]])
    cols = np.concatenate([remap[pairs[:, 1]], remap[pairs[:, 0]]])
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                        shape=(valid.size, valid.size))
    adj.data[:] = 1.0  # collapse duplicates to 0/1
    if valid.size == 1:
        raise StructureError(f"isolated BAU(s) at grid index {valid.tolist()}")
    structure = CARStructure(adj, valid)
    if grid.mask is None:
        structure.grid_shape = (grid.ny, grid.nx)
    return structure


class SparseFactor:
    """Symmetric sparse factorization with solve() and logdet().

    Wraps SuperLU in symmetric mode (no off-diagonal pivoting).  With
    ``order`` None, ``matrix`` is M and SuperLU orders it by minimum degree
    on M + M'; otherwise ``matrix`` is M[order][:, order], factored in that
    order, and solve() and solve_selected_diag() still answer for M.  Either
    way SuperLU postorders the elimination tree.  Positive definiteness is
    certified by the pivots; a non-SPD input raises FactorizationError.
    """

    def __init__(self, matrix: sp.spmatrix, order: np.ndarray | None):
        m = matrix.tocsc()
        if m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        try:
            self._lu = spla.splu(m, permc_spec="MMD_AT_PLUS_A" if order is None else "NATURAL",
                                 diag_pivot_thresh=0.0,
                                 options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # singular
            raise FactorizationError(f"sparse factorization failed: {exc}") from exc
        self._d = self._lu.U.diagonal()       # the pivots: U = diag(d) L'
        if not (self._d > 0).all():
            raise FactorizationError("matrix is not positive definite")
        self._logdet = float(np.log(self._d).sum())
        self.shape = m.shape
        self.nnz = int(self._lu.nnz)          # entries SuperLU stores for L and U
        self._order = order
        if order is None:
            self._perm = self._lu.perm_r
        else:
            self._position = _inverse(order)          # where M's row j sits in matrix
            self._perm = self._lu.perm_r[self._position]
        # self._perm[j]: the row and column of L that hold M's row and column j

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve M x = b for one vector or a dense block of right-hand sides."""
        b = np.asarray(b, dtype=float)
        if self._order is None:
            return self._lu.solve(b)
        x = b[self._order]
        return np.take(self._lu.solve(x), self._position, axis=0, out=x)

    def solve_selected_diag(self, indices: np.ndarray) -> np.ndarray:
        """(M^{-1})_{jj} for the requested indices: by selected inversion of
        the whole factor from SELECTED_INVERSION_MIN indices on, else by unit
        solves in blocks of SOLVE_BLOCK."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size >= SELECTED_INVERSION_MIN:
            return self._inverse_diagonal()[indices]
        blocks = run_parallel([partial(self._unit_solve_diag, indices[s:s + SOLVE_BLOCK])
                               for s in range(0, indices.size, SOLVE_BLOCK)])
        return np.concatenate([np.empty(0), *blocks])

    def _unit_solve_diag(self, idx: np.ndarray) -> np.ndarray:
        unit = (idx, np.arange(idx.size))
        rhs = np.zeros((self.shape[0], idx.size))
        rhs[unit] = 1.0
        return self.solve(rhs)[unit]

    def selected_inverse(self) -> sp.csc_matrix:
        """M^{-1} on pattern(L + L'), which contains pattern(M), in the
        original order; entries off that pattern are not stored."""
        z, p = self._permuted_inverse(), self._perm
        return (z + sp.tril(z, k=-1).T).tocsc()[p][:, p]

    def _inverse_diagonal(self) -> np.ndarray:
        z = self._permuted_inverse()
        return z.data[z.indptr[:-1]][self._perm]

    def _permuted_inverse(self) -> sp.csc_matrix:
        """Z = (L diag(d) L')^{-1} on the lower pattern of L.  SuperLU in
        symmetric mode with no off-diagonal pivoting gives P A P' = L U for
        the matrix A it factored, with perm_r == perm_c and U = diag(d) L',
        so (M^{-1})_{ij} = Z[p_i, p_j] with p = ``_perm``."""
        lu = self._lu
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise FactorizationError("selected inversion needs equal row and column "
                                     "permutations")
        try:
            return _selected_inverse(lu.L, self._d)
        except FactorizationError:
            return _selected_inverse(_closed_pattern(lu.L), self._d)

    def logdet(self) -> float:
        return self._logdet


class KroneckerSumFactor:
    """D - gamma E of the rook graph on a full ny x nx grid, diagonalized.

    In row-major node order D - gamma E = A_y (x) I + I (x) A_x, each A the
    tridiagonal D - gamma E of a path (``_path_eigh``).  With
    A_y = U_y diag(alpha) U_y' and A_x = U_x diag(beta) U_x' its eigenvalues
    are alpha_i + beta_j, so the log-determinant is sum ln(alpha_i + beta_j),
    a solve maps the (ny, nx) node array X to U_y (U_y' X U_x / lambda) U_x',
    and the diagonal of the inverse is (U_y o U_y) lambda^{-1} (U_x o U_x)'.
    The matrix is positive definite exactly when |gamma| < 1; any other gamma
    raises FactorizationError, as SparseFactor's pivots do.
    """

    def __init__(self, grid_shape: tuple[int, int], gamma: float):
        if not abs(gamma) < 1.0:   # W = D^{-1} E has eigenvalues 1 and -1 here
            raise FactorizationError(f"D - gamma E is not positive definite at gamma = {gamma}")
        (alpha, self._uy), (beta, self._ux) = (_path_eigh(n, gamma) for n in grid_shape)
        lam = alpha[:, None] + beta[None, :]
        self._inv = 1.0 / lam
        self._logdet = float(np.log(lam).sum())
        self.shape = (lam.size, lam.size)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve M x = b for one vector or a dense block of right-hand sides."""
        b = np.asarray(b, dtype=float)
        uy, ux = self._uy, self._ux
        x = np.ascontiguousarray(np.moveaxis(b.reshape(*self._inv.shape, -1), 2, 0))
        x = uy @ (((uy.T @ x @ ux) * self._inv) @ ux.T)   # one (ny, nx) array per column
        return np.moveaxis(x, 0, 2).reshape(b.shape)

    def solve_selected_diag(self, indices: np.ndarray) -> np.ndarray:
        """(M^{-1})_{jj} for the requested indices."""
        diag = (self._uy ** 2) @ self._inv @ (self._ux ** 2).T
        return diag.ravel()[np.asarray(indices, dtype=np.int64)]

    def logdet(self) -> float:
        return self._logdet


def _path_eigh(n: int, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of D - gamma E on a path of n nodes,
    whose degrees are 1, 2, ..., 2, 1 (0 for one node).

    The eigenvalues are the Rayleigh quotients of the eigenvectors in the
    split D - gamma E = (1 - gamma) D + gamma (D - E), two sums of squares.
    So the smallest, about (1 - gamma) times the mean degree, keeps its
    relative accuracy as gamma nears 1, where the tridiagonal solver's own
    value, accurate to ~1e-16 absolute, does not (at gamma = 1 - 1e-6 its
    log-determinant on a 1 x 50 grid was off by 1e-11 relative).
    """
    d = np.full(n, 2.0)
    d[0] -= 1.0
    d[-1] -= 1.0
    _, u = eigh_tridiagonal(d, np.full(n - 1, -float(gamma)))
    return (1.0 - gamma) * (d @ u ** 2) + gamma * (np.diff(u, axis=0) ** 2).sum(axis=0), u


def _selected_inverse(L: sp.spmatrix, d: np.ndarray) -> sp.csc_matrix:
    """Z = (L diag(d) L')^{-1} on the pattern of L (its lower triangle), with
    L unit lower triangular; the result shares L's sorted index arrays.

    Takahashi recursion (Takahashi, Fagan & Chen 1973; Rue & Martino 2007)
    over the supernodes of L.  A supernode S is a run of columns where each
    column's rows below the diagonal are the rows of the next, so its block
    of L is dense, [L_SS; L_KS] with K the rows below S.  With
    Lh = L_KS L_SS^{-1}:

        Z_KS = -Z_KK Lh,        Z_SS = (L_SS D_S L_SS')^{-1} - Lh' Z_KS.

    Z_KK lies in the supernode's ancestors in the elimination tree.  Its
    parent p holds min K, and K lies in the rows S_p + K_p of p when the
    pattern of L is closed under elimination, as a symbolic factorization's
    is; a row of K missing there raises FactorizationError.  So the tree is
    walked one depth at a time, root first, as SelInv does (Lin et al.
    2011): each supernode with children keeps its dense Z over S_p + K_p for
    one depth, and a child reads its Z_KK there at the positions of K.  The
    supernodes of one depth and one shape (width, rows below) run as one
    stack of numpy calls (_takahashi_stack).  Z itself is kept only on the
    pattern of L.
    """
    L = sp.csc_matrix(L)
    L.sort_indices()
    n = L.shape[0]
    ip = L.indptr.astype(np.int64)
    rows = L.indices  # per-entry arrays keep L's index dtype: int32 unless nnz(L) >= 2^31
    cnt = np.diff(ip)
    if (cnt < 1).any() or not np.array_equal(rows[ip[:-1]], np.arange(n)):
        raise FactorizationError("factor lacks a stored diagonal entry")
    col = np.repeat(np.arange(n, dtype=rows.dtype), cnt)
    # column j + 1 continues the supernode of column j when the rows of j
    # below its diagonal are exactly the rows of j + 1
    joins = np.zeros(n, dtype=bool)
    joins[:-1] = cnt[:-1] == cnt[1:] + 1
    p = np.flatnonzero(joins[col] & (rows != col))
    joins[col[p[rows[p] != rows[p + cnt[col[p]] - 1]]]] = False
    del p, col
    starts = np.flatnonzero(np.concatenate([[True], ~joins[:-1]]))
    w = np.diff(np.append(starts, n))
    side = cnt[starts]                         # rows of the supernode: S, then K
    k = side - w
    below = ip[starts + w - 1] + 1             # where K begins in the last column
    parent = np.full(starts.size, -1)
    has_k = k > 0
    parent[has_k] = np.searchsorted(starts, rows[below[has_k]], side="right") - 1
    depth = _tree_depths(parent)
    # one table per supernode with children, numbered in supernode order
    hc = np.unique(parent[has_k])
    tab_id = np.full(starts.size, -1)
    tab_id[hc] = np.arange(hc.size)
    has_child = tab_id >= 0
    # supernodes by depth, then shape, those with children first in each shape
    order = np.lexsort((~has_child, k, w, depth))
    kl = k[order]
    kbase = np.cumsum(kl) - kl
    # each row of each K: the table of its parent, and its position among the
    # parent's rows, by one search over all the parents' rows
    pt = np.repeat(tab_id[parent[order]], kl)
    pkey = np.repeat(np.arange(hc.size, dtype=np.int64), side[hc]) * n
    pkey += rows[_ragged(ip[starts[hc]], side[hc])]
    qkey = pt * n + rows[_ragged(below[order], kl)]
    at = np.minimum(np.searchsorted(pkey, qkey), pkey.size - 1)
    if not np.array_equal(pkey[at], qkey):
        raise FactorizationError("selected inversion: the pattern of the factor "
                                 "is not closed under elimination")
    del pkey, qkey
    loc = at - (np.cumsum(side[hc]) - side[hc])[pt]
    del at
    loc_row = side[hc][pt]                     # its row's offset within the table
    loc_row *= loc
    tab_off = np.zeros(hc.size, dtype=np.int64)
    tab = nxt = np.empty(0)
    Z = np.empty(rows.size)
    chunk = max(rows.size // 8, 1)             # table entries per stacked call
    kept = np.cumsum(np.append(0, has_child[order]))
    dep, wo = depth[order], w[order]
    cuts = np.flatnonzero((np.diff(dep) != 0) | (np.diff(wo) != 0) | (np.diff(kl) != 0)) + 1
    for a, b in zip([0, *cuts], [*cuts, order.size]):
        if a == 0 or dep[a] != dep[a - 1]:      # a new depth: its parents' tables are done
            lev = order[a:np.searchsorted(dep, dep[a], side="right")]
            e0 = kbase[a]
            e1 = e0 + k[lev].sum()
            row_off = tab_off[pt[e0:e1]] + loc_row[e0:e1]
            tab, nxt, used = nxt, np.empty(int((side[lev[has_child[lev]]] ** 2).sum())), 0
        sw, R = int(wo[a]), int(side[order[a]])
        # the (row, column) of each entry of the block, column by column
        span = R - np.arange(sw)
        c = np.repeat(np.arange(sw), span)
        r = np.arange(c.size) - np.repeat(np.cumsum(span) - span - np.arange(sw), span)
        size = max(chunk // R ** 2, 1)
        for a0 in range(a, b, size):
            b0 = min(a0 + size, b)
            s = order[a0:b0]
            vals, zkk = _takahashi_stack(ip, L.data, d, Z, starts[s], r, c, tab,
                                         row_off, loc[e0:e1], kbase[a0:b0] - e0)
            nk = kept[b0] - kept[a0]
            if nk:
                t = nxt[used:used + nk * R * R].reshape(nk, R, R)
                t[:, r, c] = t[:, c, r] = vals[:nk]
                t[:, sw:, sw:] = zkk[:nk]
                tab_off[tab_id[s[:nk]]] = used + R * R * np.arange(nk)
                used += t.size
    return sp.csc_matrix((Z, L.indices, L.indptr), shape=L.shape)


def _closed_pattern(L: sp.spmatrix) -> sp.csc_matrix:
    """L with explicit zeros added until its pattern is closed under
    elimination (each column's rows below its parent lie in the parent).

    SuperLU's L leaves out entries whose values are exactly zero, fill that
    underflowed included: in a nested-dissection order on a 2 x 24,000
    strip, separators ~10^3 cells apart are coupled through products that
    fall below 1e-300.  The Takahashi recursion still needs those places.
    One pass over the columns in elimination order merges each column's
    rows into its parent's.
    """
    L = sp.csc_matrix(L)
    L.sort_indices()
    n = L.shape[0]
    cols = [L.indices[a:b] for a, b in zip(L.indptr[:-1], L.indptr[1:])]
    for rows in cols:
        if rows.size > 2:
            cols[rows[1]] = np.union1d(cols[rows[1]], rows[1:])
    indptr = np.concatenate([[0], np.cumsum([rows.size for rows in cols])])
    indices = np.concatenate(cols)
    key = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n + indices
    data = np.zeros(indices.size)
    data[np.searchsorted(key, np.repeat(np.arange(n, dtype=np.int64), np.diff(L.indptr)) * n
                         + L.indices)] = L.data
    return sp.csc_matrix((data, indices, indptr), shape=L.shape)


def _takahashi_stack(ip, data, d, Z, s0, r, c, tab, row_off, loc, kbase):
    """One Takahashi step for a stack of supernodes of one shape, w columns
    from s0 and the same number of rows below each, whose dense block holds
    the entries of L at (r, c).  Writes Z_SS (lower) and Z_KS into Z on the
    pattern of L and returns them as an (m, r.size) array, with Z_KK.

    Z_KK is read from the parents' tables: entry (a, b) of stack entry i is
    tab[row_off[e + a] + loc[e + b]] with e = kbase[i].  Each supernode
    makes the calls the one-supernode recursion makes, on arrays of the same
    layout, so the result does not depend on how supernodes are stacked.
    """
    m, w, R = s0.size, c[-1] + 1, r[-1] + 1
    pos = ip[s0][:, None] + np.arange(r.size)  # the block is contiguous in L
    e = kbase[:, None] + np.arange(R - w)
    zkk = tab[row_off[e][:, :, None] + loc[e][:, None, :]]
    if w == 1:                                  # L_SS^{-1} = 1: its products are exact
        lh = data[pos[:, 1:, None]]
        zss = 1.0 / d[s0][:, None, None]
    else:
        blk = np.zeros((m, R, w))
        blk[:, r, c] = data[pos]
        # each inverse as LAPACK returns it (Fortran order), one call per supernode
        linv = np.empty((m, w, w)).transpose(0, 2, 1)
        for i in range(m):
            linv[i] = dtrtri(blk[i, :w], lower=1, unitdiag=1)[0]
        lh = blk[:, w:] @ linv
        zss = linv.transpose(0, 2, 1) @ (linv / d[s0[:, None] + np.arange(w)][:, :, None])
    zks = -(zkk @ lh)
    vals = np.concatenate([zss - lh.transpose(0, 2, 1) @ zks, zks], axis=1)[:, r, c]
    Z[pos] = vals
    return vals, zkk


def _ragged(first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The ranges first[i] .. first[i] + length[i] - 1, concatenated, in
    first's integer type."""
    out = np.repeat(first - (np.cumsum(length, dtype=first.dtype) - length), length)
    out += np.arange(out.size, dtype=first.dtype)
    return out


def _tree_depths(parent: np.ndarray) -> np.ndarray:
    """The depth of each node of a forest given by parent indices (-1 at a
    root), by pointer jumping."""
    depth = (parent >= 0).astype(np.int64)   # edges from the node up to `up`
    up = parent.copy()
    live = np.flatnonzero(up >= 0)
    while live.size:
        depth[live] += depth[up[live]]
        up[live] = up[up[live]]
        live = live[up[live] >= 0]
    return depth


def _inverse(order: np.ndarray) -> np.ndarray:
    """The inverse of a permutation."""
    inv = np.empty_like(order)
    inv[order] = np.arange(order.size, dtype=order.dtype)
    return inv


def sparse_factorize(matrix: sp.spmatrix) -> SparseFactor:
    """Factorize a sparse SPD matrix in SuperLU's minimum-degree order;
    returns a handle with solve and logdet."""
    return SparseFactor(matrix, None)


def sample_car(structure: CARStructure, params: CARParams,
               rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Draw size samples of xi ~ N(0, Q^{-1}) for the CAR precision Q:
    tau * solve(D - gamma E, w) with w ~ N(0, D - gamma E) from
    ``CARStructure.precision_draw``.  Returns (n,) for size=1 else (size, n).
    """
    factor = structure.factor(params.gamma)
    x = np.sqrt(params.tau2) * factor.solve(structure.precision_draw(params.gamma, rng, size))
    return x[:, 0] if size == 1 else x.T
