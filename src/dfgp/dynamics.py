"""Kalman filter, smoother, and field predictors for the fused model.

The filter runs in information form.  With forecast moments (eta_p, P_p) and
the effective observation precision D = (B Q^{-1} B' + V)^{-1}, one step is

    A      = P_p^{-1} + S' D S
    eta_f  = eta_p + A^{-1} S' D alpha,      P_f = A^{-1}

and every application of D uses the Woodbury identity

    D = V^{-1} - V^{-1} B F^{-1} B' V^{-1},      F = Q + B' V^{-1} B,

so the only large factorization per step is that of the sparse SPD matrix
F, built by ``fine_factor`` directly in the data set's nested-dissection
order (``ModelData.fine_order``, computed on the first factorization and
kept for every later step, SEM iteration and horizon).  On the bench
scenario's F_1 at N = 65,536 (one BLAS thread) that order holds 5.0M
entries against minimum degree's 5.6M; F_1 is built and factored in about
0.25 rather than 0.43-0.49 s.  The same factor gives the fine-scale
posterior at no extra factorization cost: given eta_t and Z_t,
xi_t ~ N(delta0 - psi eta_t, F^{-1}) with
    delta0 = F^{-1} B' V^{-1} (z - X beta),      psi = F^{-1} B' V^{-1} S,
which depend on no state.  Each step stores them at the tracked nodes, so
the smoother moves (eta, P) alone and the predictors read E[xi] and var(xi)
from (eta, P).  No dense N x N or n x n matrix is ever formed.

So each step splits into a sparse stage that reads no state and an r x r
recursion.  The stage (``_SparseStage``, built only by ``filter_pass``) is
the single carrier of a step, and ``filter_step(eta_pred, P_pred, stage)``
finishes it and runs the recursion.  With y0 = z - X beta, the stage maps
(theta_t, the slice, the tracked nodes) to

    ln|D^{-1}| = ln|F| - ln|Q| + ln|V|,   S'DS,   S'D y0,   y0'D y0,
    delta0 and psi at the tracked nodes,  fine_var = diag F^{-1} there,

where S'V^{-1}S = sum_k S_k' W_k S_k / sigma2_k comes from per-instrument
pieces cached on the slice (``AssembledTimeSlice.basis_gram``).  With
F = P'L D L'P from its factor, every Woodbury term is a Gram of one half
solve (``SparseFactor.solve(..., half=True)``, forward passes only) of
r + 1 columns,

    W = [W_S | W_y] = D^{-1/2} L^{-1} P B'V^{-1} [S | y0]:
    S'V^{-1}B F^{-1} B'V^{-1}S = W_S'W_S,  likewise W_S'W_y and W_y'W_y.

At m <= r tracked nodes the step also half-solves their unit vectors,
U = D^{-1/2} L^{-1} P E_nodes, and reads psi = U'W_S, delta0 = U'W_y and
fine_var as the squared column norms of U; at more nodes each block of W
finishes its solve (the backward pass) at the nodes instead.  The rule
depends on m and r alone.  On the bench scenario's F_1 the solves of a
smooth-65k step (r + 1 = 100 half-solve columns and m = 32 unit vectors)
take 0.14 s on a 2-thread pool, where SuperLU's took 0.45 s.  The
recursion forms the innovation terms from eta_p:

    S'D alpha     = S'D y0 - S'DS eta_p,
    alpha'D alpha = y0'D y0 - 2 eta_p'S'D y0 + eta_p'S'DS eta_p,

then A, eta_f and P_f as above, and ln|Sigma| = ln|A| + ln|P_p| + ln|D^{-1}|.

A step runs on two threads.  ``prepare`` hands the factor-free products
(y0, S'V^{-1}S from the slice's basis Grams, S'V^{-1}y0, y0'V^{-1}y0,
ln|V| and V^{-1} [S | y0]) to the solve pool as one task, and meanwhile
assembles and factors F on the calling thread, where SuperLU releases the
GIL; ``start`` puts the half solves on the pool in column blocks, each unit
block also taking its nodes' variances; ``finish`` takes U'W on the pool
beside W'W on the calling thread.  A task over fewer than
SOLVE_BLOCK_MIN_ENTRIES numbers runs on the calling thread instead
(``run_sized``): handing it over costs more than it saves.  Per smooth-65k
step (N = 65,536, r = 99, 32 nodes; one BLAS thread of a 2-vCPU host,
two passes) the calling thread spends about 40 ms assembling F, 210-230 ms
in SuperLU and 115-130 ms exporting L and setting up the levels, then waits
for the solves (230-240 ms of pool-thread time) and takes W'W.  The
products, ~50 ms a step on the pool (each slice's basis Grams on first use
included), and the unit variances, ~17 ms, run beside SuperLU and the
solves; a step takes 0.58-0.62 s.

Because the stage reads no state, ``filter_pass`` factors the next step's F
on the calling thread while this step's solves run on the solve pool.  That
holds two factors at once, so it does so only while the last factor was
small (LOOKAHEAD_MAX_NNZ); the next step's products then queue behind this
step's solves (submitting them first measured the same at N = 4,096 and
10^4).  A larger step starts nothing of the next before its solves end:
forced on at smooth-65k, the look-ahead cut the run by ~15% but raised peak
RSS from 467-484 to 628-672 MB, and assembling F_{t+1} alone during step
t's solves, with no second factor, still raised it to 536-556 MB through
heap interleaving.  The factors are always built, and psi always
allocated, on the calling thread: 24 factorizations at N = 10^4 peaked at
223 MB RSS there and at 319 MB on pool threads, through heap fragmentation.

The E-step reads the spread of xi_t about its mean from that same factor:
``filter_pass`` hands each step's factor of F (of Q at a step without
records) to an optional callback before dropping it.  Each step also yields
its term of the marginal -2 log-likelihood (``FilterResult.neg2loglik``).
Parameters without a CAR block (``DFGPParams.car == ()``) are the fixed-rank
model: there is no xi, so D = V^{-1}, no F is formed and delta = 0.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from concurrent.futures import Future, wait
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .car import CARParams, SparseFactor, column_blocks, run_ahead, run_sized
from .exceptions import FactorizationError, NumericalError
from .model import AssembledTimeSlice, DFGPParams, ModelData, sym

# filter_pass factors the next step's F ahead, during this step's solves,
# while the last step's factor held at most LOOKAHEAD_MAX_NNZ entries
# (SparseFactor.nnz).  A factor holds about 7 bytes an entry, 14 once its
# backward pass has read L by columns, and about 26 while SuperLU builds it
# (measured at N = 10^4 and 65,536), so the second factor stays under ~30 MB
# and peaks near 50 MB.  Measured on the bench scenario, one BLAS thread of a
# 2-CPU host: the SEM filter pass (T = 8, every node tracked, two columns)
# with the look-ahead against without, time and process peak RSS:
#   N = 10,000, nnz 0.64M: -10%, 221 -> 256 MB
#   N = 16,384, nnz 1.15M: -13%, 295 -> 358 MB
#   N = 32,400, nnz 2.49M:  -7%, 486 -> 533 MB
#   N = 65,536, nnz 5.83M: -25%, 897 -> 1004 MB
# The time gain holds at every size, while the extra memory grows with the
# factor, so the rule bounds the memory.  The smoothing pass (T = 4, 32
# nodes with variances) moved by -6%, -5%, +3% and -1% at the same sizes,
# and by -3% at N = 4,096.
LOOKAHEAD_MAX_NNZ = 2_000_000

__all__ = [
    "StatePosterior", "FilterResult", "SmootherResult", "PredictionField",
    "forecast_step", "fine_factor", "filter_step", "filter_pass", "smoother_pass",
    "predict_filter", "predict_smooth",
]


def _cho(m: np.ndarray, t: int, what: str):
    try:
        return la.cho_factor(sym(m), lower=True)
    except la.LinAlgError as exc:
        raise NumericalError(f"{what} is not positive definite", time_index=t) from exc


def _cho_logdet(cf) -> float:
    return 2.0 * float(np.log(np.diag(cf[0])).sum())


def _cho_inv(cf) -> np.ndarray:
    return sym(la.cho_solve(cf, np.eye(cf[0].shape[0])))


def _row_quad(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Diagonal of rows @ m @ rows' without forming the full product."""
    return np.einsum("ij,jk,ik->i", rows, m, rows, optimize=True)


@dataclass
class StatePosterior:
    """Moments of (eta_t, delta_t^P) given data up to some horizon.

    At the m tracked nodes xi_t | eta_t, Z ~ N(delta0 - psi eta_t, F_t^{-1}),
    which needs no state: ``fine_var`` = diag F_t^{-1} (None without
    want_variance).  Filtered and smoothed states share delta0, psi and
    fine_var and differ only in (eta, P, lag1); ``delta`` and ``R_diag``
    follow.  ``eta``, ``delta0`` and ``quad`` = alpha' Sigma^{-1} alpha carry
    one column, the data's; ``logdet_sigma`` is ln|Sigma|; ``lag1`` is
    cov(eta_t, eta_{t-1} | Z), on smoothed states only.
    """

    time_index: int
    eta: np.ndarray                 # (r, 1)
    P: np.ndarray                   # (r, r)
    eta_pred: np.ndarray            # (r, 1)
    P_pred: np.ndarray              # (r, r)
    delta0: np.ndarray              # (m, 1)
    fine_var: np.ndarray | None     # (m,)
    psi: np.ndarray                 # (m, r)
    n_obs: int = 0
    logdet_sigma: float = 0.0
    quad: np.ndarray = field(default_factory=lambda: np.zeros(1))
    lag1: np.ndarray | None = None

    @property
    def delta(self) -> np.ndarray:
        """E[delta_t^P | data] = delta0 - psi eta, (m, 1)."""
        return self.delta0 - self.psi @ self.eta

    @property
    def R_diag(self) -> np.ndarray | None:
        """var(delta_t^P | data) = fine_var + diag(psi P psi'), (m,)."""
        if self.fine_var is None:
            return None
        return self.fine_var + _row_quad(self.psi, self.P)


@dataclass
class FilterResult:
    states: list[StatePosterior]
    pred_nodes: np.ndarray

    @property
    def neg2loglik(self) -> float:
        """Marginal -2 log-likelihood of the real data (up to a constant):
        the fsum of ln|Sigma_t| + alpha' Sigma^{-1} alpha."""
        return math.fsum(
            [s.logdet_sigma for s in self.states]
            + [float(s.quad[0]) for s in self.states])


@dataclass
class SmootherResult:
    states: list[StatePosterior]
    eta0: np.ndarray               # (r, 1) smoothed initial state mean
    P0: np.ndarray                 # (r, r)
    pred_nodes: np.ndarray


@dataclass
class PredictionField:
    """BAU-level predicted mean and standard error at one time step."""

    time_index: int
    bau_indices: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray


def forecast_step(eta: np.ndarray, P: np.ndarray, H: np.ndarray,
                  U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-step-ahead forecast moments: (H eta, H P H' + U)."""
    return H @ eta, sym(H @ P @ H.T + U)


def filter_pass(data: ModelData, params: DFGPParams, *,
                pred_bau: np.ndarray | None = None,
                want_variance: bool = False,
                on_factor: Callable[[int, SparseFactor], None] | None = None) -> FilterResult:
    """Forward filtering sweep over t = 1..data.T; params must span data.T
    steps (``ModelData.horizon`` cuts the data to a shorter horizon).

    pred_bau: flat BAU indices where the fine-scale posterior (delta0, psi,
        fine_var) is tracked; None disables tracking,
        data.structure.valid_idx tracks every BAU.
    want_variance: also compute fine_var: at m <= r tracked nodes from
        the half solves of their unit vectors that the step makes anyway,
        at more a half solve per node below SELECTED_INVERSION_MIN nodes,
        else one selected inversion of the factor (see
        ``SparseFactor.solve_selected_diag``).
    on_factor: called as on_factor(t, factor) on this thread, in step order,
        with step t's factor of F_t (``fine_factor``; of Q_t at a step
        without records) after the step's solves are done and before the
        pass drops it: its work would hold the GIL that the solves'
        per-level calls need.  It needs a CAR block.

    Each step is a ``_SparseStage`` built here, the single carrier of its
    theta_t, slice and outputs, run as ``filter_step(eta_pred, P_pred,
    stage)``.  The stage reads no state, so while the last step's factor of
    F held at most LOOKAHEAD_MAX_NNZ entries, the next step's F is factored
    on this thread while this step's solves run on the solve pool.  A pass
    that fails raises once every pool task it started has ended.
    """
    u = data.T
    if params.u != u:
        raise ValueError(f"parameters span {params.u} time steps, the data {u}")
    r = params.r
    if pred_bau is None:
        pred_nodes = np.zeros(0, dtype=np.int64)
    else:
        pred_nodes = data.node_index(np.asarray(pred_bau, dtype=np.int64))
    # every step's psi and delta0 in one block each: the states keep them
    # all, and one allocation keeps them out of the heap that the per-step
    # factors reuse
    psi = np.zeros((u, pred_nodes.size, r))
    delta0 = np.zeros((u, pred_nodes.size, 1))

    def stage(t: int) -> _SparseStage:
        return _SparseStage(data, params, t, pred_nodes, psi[t - 1], delta0[t - 1],
                            want_variance)

    eta = np.zeros((r, 1))
    P = params.K0.copy()
    states: list[StatePosterior] = []
    this = ahead = None
    last_nnz = 0         # entries of the last step's factor; 0 when it made none
    try:
        for t in range(1, u + 1):
            eta_pred, P_pred = forecast_step(eta, P, params.H_at(t), params.U_at(t))
            this = stage(t) if ahead is None else ahead
            ahead = None
            if t < u and 0 < last_nnz <= LOOKAHEAD_MAX_NNZ:
                this.start()
                ahead = stage(t + 1)
                ahead.prepare()
            st = filter_step(eta_pred, P_pred, this)
            if on_factor is not None:
                on_factor(t, this.factor if this.slc.n_obs else
                          fine_factor(data, this.car, this.slc, this.sigma2_row))
            last_nnz = this.factor_nnz
            states.append(st)
            eta, P = st.eta, st.P
    except BaseException:
        for s in (this, ahead):     # no task of a failed pass outlives it
            if s is not None:
                s.settle()
        raise
    return FilterResult(states=states, pred_nodes=pred_nodes)


def fine_factor(data: ModelData, car: CARParams, slc: AssembledTimeSlice,
                sigma2_row: np.ndarray) -> SparseFactor:
    """The factor of F_t = (D - gamma E)/tau2 + B' V_t^{-1} B, the precision
    of xi_t | eta_t, Z_t, built and factored in ``data.fine_order``; a
    non-SPD F_t is a NumericalError at this step."""
    order = data.fine_order
    vinv = 1.0 / slc.v_diag(sigma2_row)
    B = order.relabel(slc.B)
    try:
        return SparseFactor((order.base_precision(car.gamma) / car.tau2
                             + B.T @ sp.diags(vinv) @ B).tocsc(), order.order)
    except FactorizationError as exc:
        raise NumericalError(str(exc), time_index=slc.time_index) from exc


class _SparseStage:
    """The state-free part of step t of a filter pass (see the module docstring).

    It runs in three parts, so that filter_pass can factor the next step's F
    while this step's solves run: ``prepare`` (the factor-free products on
    the solve pool, the factor of F on the calling thread), ``start`` (the
    half solves against F on the solve pool) and ``finish`` (the Grams,
    psi, delta0 and fine_var).  Each part runs the parts before it that
    have not run, and ``settle`` waits for every pool task the stage
    started.  After ``finish``: ``ln_dinv`` = ln|D^{-1}|,
    ``sds`` = S'DS, ``sdy`` = S'D y0 and ``ydy`` = y0'D y0 for
    y0 = z - X beta (one column), ``delta0`` and ``psi`` at the tracked
    nodes (filled in place), ``fine_var`` and ``factor_nnz``.
    """

    def __init__(self, data: ModelData, params: DFGPParams, t: int, pred_nodes: np.ndarray,
                 psi: np.ndarray, delta0: np.ndarray, want_variance: bool):
        self.data, self.slc = data, data.slices[t - 1]
        self.car = params.car[t - 1] if params.car else None
        self.sigma2_row, self.beta_t = params.sigma2_eps[t - 1], params.beta[t - 1]
        self.pred_nodes, self.psi, self.delta0 = pred_nodes, psi, delta0
        self.want_variance = want_variance
        self.fine_var = np.zeros(pred_nodes.size) if want_variance else None
        self.factor: SparseFactor | None = None
        self.factor_nnz = 0
        self._tasks: list[Future] = []      # the products', then the pool tasks'
        self._solves: list[Future] | None = None

    def prepare(self) -> None:
        """Start the factor-free products on the solve pool (``run_sized``),
        then factor F on this thread: SuperLU releases the GIL while it
        factors."""
        if self._tasks or self.slc.n_obs == 0:
            return
        self._tasks.append(run_sized(self._products, self.slc.n_obs * self.psi.shape[1]))
        if self.car is not None:
            self.factor = fine_factor(self.data, self.car, self.slc, self.sigma2_row)
            self.factor_nnz = self.factor.nnz

    def _products(self) -> None:
        """Everything the step computes without F: y0, S'V^{-1}S from the
        slice's basis Grams, S'V^{-1}y0, y0'V^{-1}y0, ln|V| and, with a CAR
        block, V^{-1} [S | y0] by columns, so that a block of them is a
        cheap slice."""
        slc, sigma2_row = self.slc, self.sigma2_row
        y0 = slc.z[:, None] - (slc.X @ self.beta_t)[:, None]
        v = slc.v_diag(sigma2_row)
        vy = y0 / v[:, None]
        svt = sp.csr_matrix(slc.S).T.multiply(1.0 / v)            # S' V^{-1}
        self.sds = sum(g / sigma2_row[k - 1] for k, g in slc.basis_gram.items())
        self.sdy = svt @ y0
        self.ydy = (y0 * vy).sum(axis=0)
        self.ln_dinv = float(np.log(v).sum())
        if self.car is not None:
            self.vsy = sp.hstack([svt.T, sp.csc_matrix(vy)], format="csc")

    def settle(self) -> None:
        """Wait for every pool task this stage started, whatever they raise."""
        wait(self._tasks)

    def start(self) -> None:
        """Start the half solves W = D^{-1/2} L^{-1} P B'V^{-1} [S | y0]
        against F = P'L D L'P on the solve pool, in column blocks, and at
        m <= r tracked nodes U = D^{-1/2} L^{-1} P E_nodes, whose blocks also
        give fine_var at their nodes; at more nodes the W blocks finish
        their solves, F^{-1} B'V^{-1} [S | y0] at the nodes."""
        if self._solves is not None:
            return
        self.prepare()
        self._solves = []
        car, factor, nodes = self.car, self.factor, self.pred_nodes
        want_var = self.want_variance and nodes.size and car is not None
        if self.slc.n_obs == 0:
            if want_var:        # the prior variance
                afac = self.data.structure.factor(car.gamma)
                self.fine_var = car.tau2 * afac.solve_selected_diag(nodes)
            return
        self._tasks[0].result()         # the products
        if factor is None:
            return
        self.ln_dinv += factor.logdet() - self.data.structure.precision_logdet(car)
        B, vsy, order = self.slc.B, self.vsy, factor.positions
        n, k, r = factor.shape[0], vsy.shape[1], self.psi.shape[1]
        few = nodes.size < k
        self.W = W = np.empty((n, k))
        bt = sp.csr_matrix((B.data, order[B.indices], B.indptr), shape=B.shape).T   # in F's order

        def half(cols: slice) -> None:
            # the blocks write disjoint columns of W, psi and delta0
            W[:, cols] = w = factor.solve(bt @ vsy[:, cols].toarray(), half=True)
            if not few:     # F^{-1} B'V^{-1} [S | y0] at the nodes
                g = factor.finish_solve(w, nodes)
                xs = slice(cols.start, min(cols.stop, r))
                self.psi[:, xs] = g[:, :xs.stop - xs.start]
                if cols.stop > r:
                    self.delta0[:] = g[:, r - cols.start:]

        tasks = [partial(half, c) for c in column_blocks(k, n)]
        self.U = None
        if few and nodes.size:
            self.U = U = np.empty((n, nodes.size))

            def units(cols: slice) -> None:
                # the blocks write disjoint columns of U and entries of fine_var
                e = np.zeros((n, cols.stop - cols.start))
                e[order[nodes[cols]], np.arange(e.shape[1])] = 1.0
                U[:, cols] = u = factor.solve(e, half=True)
                if want_var:
                    self.fine_var[cols] = factor.solve_selected_diag(nodes[cols], u)

            tasks += [partial(units, c) for c in column_blocks(nodes.size, n)]
        self._solves = [run_ahead(task) for task in tasks]
        self._tasks += self._solves

    def finish(self) -> None:
        """The Woodbury corrections, all Grams of W; at few nodes psi and
        delta0 as U'W, on the pool beside W'W.  At more nodes ``fine_var``
        comes from the factor once the solves are done: selected
        inversion's many short numpy calls would hold the GIL that the
        solves' per-level calls need."""
        self.start()
        if not self._solves:        # no observation, or no fine-scale component
            return
        for f in self._solves:
            f.result()
        W, U, r = self.W, self.U, self.psi.shape[1]
        if U is not None:
            utw = run_sized(partial(np.matmul, U.T, W), U.size)   # F^{-1} B'V^{-1} [S | y0] at the nodes
            self._tasks.append(utw)
        elif self.fine_var is not None and self.pred_nodes.size:
            self.fine_var = self.factor.solve_selected_diag(self.pred_nodes)
        gram = W.T @ W          # [S | y0]' V^{-1} B F^{-1} B' V^{-1} [S | y0]
        if U is not None:
            g = utw.result()
            self.psi[:], self.delta0[:] = g[:, :r], g[:, r:]
        self.sds = self.sds - gram[:r, :r]
        self.sdy = self.sdy - gram[:r, r:]
        self.ydy = self.ydy - gram[r, r:]
        self.W = self.U = None


def filter_step(eta_pred: np.ndarray, P_pred: np.ndarray,
                stage: _SparseStage) -> StatePosterior:
    """One measurement update from forecast moments to filtered moments:
    finish the step's sparse stage, then run the r x r recursion.

    eta_pred has one column, the data's.  With no observations the filtered
    moments equal the forecast and the fine-scale posterior reverts to its
    prior.  All D-applications
    factor through the sparse SPD matrix F = Q + B' V^{-1} B; without a CAR
    block (the fixed-rank model) D = V^{-1}.
    """
    slc = stage.slc
    t = slc.time_index
    stage.finish()
    if slc.n_obs == 0:
        return StatePosterior(
            time_index=t, eta=eta_pred.copy(), P=P_pred.copy(),
            eta_pred=eta_pred, P_pred=P_pred, delta0=stage.delta0,
            fine_var=stage.fine_var, psi=stage.psi, n_obs=0, quad=np.zeros(1))
    sda = stage.sdy - stage.sds @ eta_pred                          # S' D alpha
    ada = stage.ydy - (eta_pred * (stage.sdy + sda)).sum(axis=0)   # alpha' D alpha
    pp_cf = _cho(P_pred, t, "forecast covariance")
    A = sym(_cho_inv(pp_cf) + stage.sds)
    a_cf = _cho(A, t, "information matrix")
    gain = la.cho_solve(a_cf, sda)                  # (r, 1)
    eta_f = eta_pred + gain
    P_f = _cho_inv(a_cf)
    return StatePosterior(
        time_index=t, eta=eta_f, P=P_f, eta_pred=eta_pred, P_pred=P_pred,
        delta0=stage.delta0, fine_var=stage.fine_var, psi=stage.psi, n_obs=slc.n_obs,
        logdet_sigma=_cho_logdet(a_cf) + _cho_logdet(pp_cf) + stage.ln_dinv,
        quad=ada - (sda * gain).sum(axis=0))


def smoother_pass(filt: FilterResult, params: DFGPParams) -> SmootherResult:
    """Backward smoothing sweep over (eta, P) alone: each smoothed state keeps
    its filtered state's fine-scale pieces (delta0, psi, fine_var)."""
    u = len(filt.states)
    fs = filt.states
    out = [replace(fs[-1])]
    # lag-1 cross covariances: cov(eta_t, eta_{t-1} | Z) = P_{t|Z} J_{t-1}'
    for t in range(u - 1, 0, -1):
        f_t, nxt = fs[t - 1], out[-1]
        pp_cf = _cho(fs[t].P_pred, t + 1, "forecast covariance")
        J = f_t.P @ la.cho_solve(pp_cf, params.H_at(t + 1)).T   # P_f H' P_pred^{-1}
        nxt.lag1 = nxt.P @ J.T
        out.append(replace(f_t, eta=f_t.eta + J @ (nxt.eta - fs[t].eta_pred),
                           P=sym(f_t.P + J @ (nxt.P - fs[t].P_pred) @ J.T)))
    out.reverse()
    # smoothed initial state (eta_{0|0} = 0, P_{0|0} = K0)
    pp_cf = _cho(fs[0].P_pred, 1, "forecast covariance")
    J0 = params.K0 @ la.cho_solve(pp_cf, params.H_at(1)).T
    eta0 = J0 @ (out[0].eta - fs[0].eta_pred)
    P0 = sym(params.K0 + J0 @ (out[0].P - fs[0].P_pred) @ J0.T)
    out[0].lag1 = out[0].P @ J0.T
    return SmootherResult(states=out, eta0=eta0, P0=P0, pred_nodes=filt.pred_nodes)


def _predict(result: FilterResult | SmootherResult, data: ModelData, params: DFGPParams,
             t: int, pred_bau: np.ndarray) -> PredictionField:
    """Field mean and standard error from time t's posterior moments (column
    0, the real data): Y - X beta - delta0 = (S - psi) eta + e with
    e ~ N(0, diag fine_var) independent of eta, so var(Y) is a PSD form in P
    plus a diagonal."""
    nodes = data.node_index(np.asarray(pred_bau, dtype=np.int64))
    if not np.array_equal(nodes, result.pred_nodes):
        raise ValueError("pred_bau differs from the prediction set tracked "
                         "during the filter pass")
    Xp, Sp = data.design_at(pred_bau)
    post = result.states[t - 1]
    G = Sp - post.psi
    mean = Xp @ params.beta[t - 1] + G @ post.eta[:, 0] + post.delta0[:, 0]
    var = _row_quad(G, post.P)
    if post.fine_var is not None:
        var = var + post.fine_var
    scale = float(np.max(np.abs(var), initial=0.0))
    bad = var < -1e-10 * max(scale, 1.0)
    if bad.any():
        raise NumericalError("prediction variance significantly negative",
                             time_index=post.time_index)
    if (var < 0).any():
        warnings.warn("clamping tiny negative prediction variances to zero")
        var = np.maximum(var, 0.0)
    return PredictionField(time_index=post.time_index, bau_indices=pred_bau,
                           mean=mean, stderr=np.sqrt(var))


def predict_filter(filt: FilterResult, data: ModelData, params: DFGPParams,
                   t: int, pred_bau: np.ndarray) -> PredictionField:
    """Filtered field predictor at time t over the tracked prediction BAUs."""
    return _predict(filt, data, params, t, pred_bau)


def predict_smooth(smooth: SmootherResult, data: ModelData, params: DFGPParams,
                   t: int, pred_bau: np.ndarray) -> PredictionField:
    """Smoothed field predictor at time t over the tracked prediction BAUs."""
    return _predict(smooth, data, params, t, pred_bau)
