"""Model parameters and per-time assembled design matrices.

A time slice stacks all instruments' observations at one time step:
    Z_t = X_t beta_t + S_t eta_t + B_t xi_t + eps_t
with X_t, S_t obtained by footprint-averaging the BAU-level covariate and
basis values, B_t the sparse footprint weight matrix (columns over the
valid-BAU node order of the CAR structure), and eps_t having diagonal
covariance sigma2[t, k] * v(footprint).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .basis import BisquareBasis, bau_basis_values
from .car import (SOLVE_BLOCK_MIN_ENTRIES, CARParams, CARStructure, OrderedPrecision,
                  nested_dissection)
from .exceptions import InvalidParameterError
from .grid import BAUGrid, BAUPointSample, Observations


def sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def as_dense(x):
    """Materialize a sparse matrix as an ndarray; ndarrays pass through."""
    return x.toarray() if sp.issparse(x) else np.asarray(x)


def _check_spd(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError(f"{name} must be square")
    try:
        np.linalg.cholesky(sym(m))
    except np.linalg.LinAlgError as exc:
        raise InvalidParameterError(f"{name} must be positive definite") from exc
    return sym(m)


@dataclass(frozen=True)
class DFGPParams:
    """Full parameter set theta over a horizon of u time steps.

    beta: (u, p) regression coefficients per time.
    H, U: (r, r) propagation and innovation covariance, or (u, r, r) when the
        blockwise variant is expanded per time.
    K0: (r, r) initial state covariance.
    car: length-u tuple of CARParams (gamma_t, tau2_t), or () for the
        fixed-rank model, which has no fine-scale CAR component.
    sigma2_eps: (u, k0) measurement variance scale per time per instrument.
    """

    beta: np.ndarray
    H: np.ndarray
    U: np.ndarray
    K0: np.ndarray
    car: tuple[CARParams, ...]
    sigma2_eps: np.ndarray

    def __post_init__(self):
        beta = np.atleast_2d(np.asarray(self.beta, dtype=float))
        sig = np.atleast_2d(np.asarray(self.sigma2_eps, dtype=float))
        H = np.asarray(self.H, dtype=float)
        U = np.asarray(self.U, dtype=float)
        u = beta.shape[0]
        if len(self.car) not in (0, u) or sig.shape[0] != u:
            raise InvalidParameterError("beta, car (or ()), sigma2_eps must share the horizon u")
        if not (sig > 0).all():
            raise InvalidParameterError("all sigma2_eps must be > 0")
        K0 = _check_spd(self.K0, "K0")
        if U.ndim == 2:
            U = _check_spd(U, "U")
            if H.ndim != 2 or H.shape != U.shape:
                raise InvalidParameterError("H and U must both be r x r")
        else:
            if U.shape[0] != u or H.shape != U.shape:
                raise InvalidParameterError("per-time H, U must be (u, r, r)")
            U = np.stack([_check_spd(U[t], f"U[{t}]") for t in range(u)])
        if K0.shape[0] != (H.shape[-1]):
            raise InvalidParameterError("K0 dimension must match H")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma2_eps", sig)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "K0", K0)
        object.__setattr__(self, "car", tuple(self.car))

    @property
    def u(self) -> int:
        return self.beta.shape[0]

    @property
    def p(self) -> int:
        return self.beta.shape[1]

    @property
    def r(self) -> int:
        return self.K0.shape[0]

    @property
    def n_instruments(self) -> int:
        return self.sigma2_eps.shape[1]

    def H_at(self, t: int) -> np.ndarray:
        """Propagation matrix for the step into time t (1-based)."""
        return self.H if self.H.ndim == 2 else self.H[t - 1]

    def U_at(self, t: int) -> np.ndarray:
        return self.U if self.U.ndim == 2 else self.U[t - 1]

    def truncated(self, u: int) -> "DFGPParams":
        """Parameters restricted to the first u time steps."""
        H = self.H if self.H.ndim == 2 else self.H[:u]
        U = self.U if self.U.ndim == 2 else self.U[:u]
        return replace(self, beta=self.beta[:u], H=H, U=U,
                       car=self.car[:u], sigma2_eps=self.sigma2_eps[:u])

    def flat(self) -> np.ndarray:
        """All parameters as one vector (for convergence monitoring)."""
        parts = [self.beta.ravel(), np.asarray(self.H).ravel(),
                 np.asarray(self.U).ravel(), self.K0.ravel(),
                 self.sigma2_eps.ravel(),
                 np.array([c.gamma for c in self.car]),
                 np.array([c.tau2 for c in self.car])]
        return np.concatenate(parts)


@dataclass
class AssembledTimeSlice:
    """Design matrices for all observations at one time step.

    ``B`` has columns in the CAR structure's node order; ``instrument_rows``
    maps instrument id -> row slice into the stacked arrays.  ``v_factors``
    excludes the sigma2 scale so slices stay parameter-independent.
    """

    time_index: int
    z: np.ndarray                      # (n,)
    X: np.ndarray                      # (n, p)
    S: np.ndarray | sp.spmatrix        # (n, r)
    B: sp.csr_matrix                   # (n, n_valid), rows sum to 1
    v_factors: np.ndarray              # (n,)
    instrument_rows: dict[int, slice] = field(default_factory=dict)

    @property
    def n_obs(self) -> int:
        return self.z.size

    @cached_property
    def basis_gram(self) -> dict[int, np.ndarray]:
        """S_k' W_k S_k per instrument k, W_k = diag(1 / v_factors) on its rows,
        so S' V_t^{-1} S is the sum of basis_gram[k] / sigma2_k.

        S holds about a quarter of its entries, so each instrument's Gram is
        summed by BLAS over dense blocks of its rows, each of at most
        SOLVE_BLOCK_MIN_ENTRIES numbers (1 MB): on the bench scenario's first
        slice (N = 65,536, 30,974 records, r = 99; one BLAS thread) 30 ms,
        against 78 ms for the sparse product and 43 ms for blocks of 2^21."""
        S = sp.csr_matrix(self.S)
        step = max(SOLVE_BLOCK_MIN_ENTRIES // S.shape[1], 1)
        w = 1.0 / self.v_factors
        grams = {}
        for k, rows in self.instrument_rows.items():
            g = np.zeros((S.shape[1], S.shape[1]))
            for a in range(rows.start, rows.stop, step):
                b = min(a + step, rows.stop)
                block = S[a:b].toarray()
                g += block.T @ (block * w[a:b, None])
            grams[k] = g
        return grams

    def v_diag(self, sigma2_row: np.ndarray) -> np.ndarray:
        """Diagonal of V_t = blockdiag(sigma2_k * V_k) as a vector."""
        out = np.empty(self.n_obs)
        for k, rows in self.instrument_rows.items():
            out[rows] = sigma2_row[k - 1] * self.v_factors[rows]
        return out


@dataclass
class ModelData:
    """Everything the engine and estimator need about one dataset.

    Every computation runs over steps 1..T; ``horizon(u)`` is the data of
    steps 1..u.  ``whole`` is the data set a horizon was cut from (None for
    the data set itself), whose instrument count and F_t order it shares.
    """

    grid: BAUGrid
    basis: BisquareBasis
    structure: CARStructure
    slices: list[AssembledTimeSlice]
    X_bau: np.ndarray                  # (N, p) covariates at BAU level
    S_bau: np.ndarray                  # (N, r) basis at BAU level
    whole: ModelData | None = field(default=None, init=False, repr=False)

    @property
    def T(self) -> int:
        return len(self.slices)

    def horizon(self, u: int) -> ModelData:
        """The data of steps 1..u: the same grid, basis, structure, BAU
        design and slice objects, with the data set's instrument count and
        F_t order; ``horizon(T)`` is the data itself."""
        if not 1 <= u <= self.T:
            raise ValueError(f"horizon {u} outside the data's 1..{self.T} time steps")
        if u == self.T:
            return self
        cut = replace(self, slices=self.slices[:u])
        cut.whole = self.whole or self
        return cut

    @property
    def n_instruments(self) -> int:
        if self.whole is not None:
            return self.whole.n_instruments
        return max((max(s.instrument_rows) for s in self.slices if s.instrument_rows),
                   default=1)

    @cached_property
    def fine_order(self) -> OrderedPrecision:
        """The order every F_t = Q_t + B_t' V_t^{-1} B_t is factored in, with
        D - gamma E in it: nested dissection of the union of the patterns of
        D + E and of every slice's B_t' B_t, over the BAUs' grid (row,
        column).  Computed on first use, so only a run that factors F_t pays
        for it, and once for all of them; a horizon takes its data set's."""
        if self.whole is not None:
            return self.whole.fine_order
        # a one-BAU row adds no edge; the pattern's values are never read
        footprints = sp.vstack([s.B[np.diff(s.B.indptr) > 1] for s in self.slices],
                               format="csr", dtype=np.float32)
        pattern = footprints.T @ footprints + self.structure.adjacency.astype(np.float32)
        del footprints
        coords = np.column_stack(np.divmod(self.structure.valid_idx, self.grid.nx))
        return OrderedPrecision(self.structure, nested_dissection(coords, pattern))

    def node_index(self, bau_idx: np.ndarray) -> np.ndarray:
        """Map flat grid BAU indices to CAR node order; rejects masked cells."""
        bau_idx = np.asarray(bau_idx, dtype=np.int64)
        remap = np.full(self.grid.n_bau, -1, dtype=np.int64)
        remap[self.structure.valid_idx] = np.arange(self.structure.n)
        if (bau_idx < 0).any() or (bau_idx >= self.grid.n_bau).any():
            raise ValueError("prediction BAU index out of range")
        nodes = remap[bau_idx]
        if (nodes < 0).any():
            raise ValueError("prediction BAU index refers to a masked cell")
        return nodes

    def design_at(self, bau_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(X^P, S^P) rows at the given prediction BAUs."""
        bau_idx = np.asarray(bau_idx, dtype=np.int64)
        return self.X_bau[bau_idx], self.S_bau[bau_idx]


# Named covariate functions available in run configurations.
COVARIATE_FNS = {
    "1": lambda p: np.ones(p.shape[0]),
    "x": lambda p: p[:, 0],
    "y": lambda p: p[:, 1],
    "x2": lambda p: p[:, 0] ** 2,
    "y2": lambda p: p[:, 1] ** 2,
    "xy": lambda p: p[:, 0] * p[:, 1],
}

DEFAULT_COVARIATES = ("1", "y", "y2")


def covariate_functions(names) -> list:
    """The point functions of the named covariates; rejects an empty list, an
    unknown name and a name given twice (its columns would repeat in X)."""
    if not names:
        raise ValueError(f"need at least one covariate; choose from {sorted(COVARIATE_FNS)}")
    twice = sorted({n for n in names if list(names).count(n) > 1})
    if twice:
        raise ValueError(f"{', '.join(map(repr, twice))} named twice")
    try:
        return [COVARIATE_FNS[n] for n in names]
    except KeyError as exc:
        raise ValueError(f"unknown covariate {exc.args[0]!r}; "
                         f"choose from {sorted(COVARIATE_FNS)}") from exc


def assemble(obs: Observations, grid: BAUGrid, basis: BisquareBasis,
             structure: CARStructure, covariates=DEFAULT_COVARIATES,
             design: tuple[np.ndarray, np.ndarray] | None = None) -> ModelData:
    """Build per-time design matrices for time steps 1..obs.n_times.

    ``design`` is the BAU-level (X_bau, S_bau) for these covariates and this
    basis on the default point sample, when the caller already holds it;
    otherwise it is computed here.  B_t, X_t and S_t select their rows from
    one footprint-level matrix each, so a footprint observed on many days is
    averaged once.
    """
    ids = obs.instruments
    if ids and ids != list(range(1, len(ids) + 1)):
        raise ValueError(f"instrument ids must be contiguous from 1, got {ids}")
    if design is None:
        sample = BAUPointSample(grid)
        X_bau = np.column_stack([sample.average(f) for f in covariate_functions(covariates)])
        S_bau = bau_basis_values(basis, grid, sample)
    else:
        X_bau, S_bau = design
    B_fp = obs.footprint_matrix(grid)
    X_fp = B_fp @ X_bau
    S_fp = sp.csr_matrix(B_fp @ S_bau)
    bounds = obs.time_bounds()
    slices = []
    for t in range(1, obs.n_times + 1):
        recs = slice(bounds[t - 1], bounds[t])
        fps = obs.footprint[recs]
        inst = obs.instrument[recs]
        ks, starts = np.unique(inst, return_index=True)
        ends = np.append(starts[1:], inst.size)
        slices.append(AssembledTimeSlice(
            time_index=t,
            z=obs.value[recs],
            X=X_fp[fps],
            S=S_fp[fps] if fps.size else np.zeros((0, S_bau.shape[1])),
            B=B_fp[fps][:, structure.valid_idx].tocsr(),
            v_factors=obs.var_factor[recs],
            instrument_rows={int(k): slice(int(a), int(b))
                             for k, a, b in zip(ks, starts, ends)}))
    return ModelData(grid=grid, basis=basis, structure=structure, slices=slices,
                     X_bau=X_bau, S_bau=S_bau)
