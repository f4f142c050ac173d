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
0.25 rather than 0.43-0.49 s, and 8 columns are solved in about 0.04 rather
than 0.044 s.  The same factor gives the fine-scale posterior at no extra
factorization cost: given eta_t and Z_t, xi_t ~ N(delta0 - psi eta_t, F^{-1}) with
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
pieces cached on the slice (``AssembledTimeSlice.basis_gram``), and the
Woodbury terms are S'V^{-1}(B G) with G = F^{-1} B'V^{-1}S solved in column
blocks.  The recursion forms the innovation terms from eta_p:

    S'D alpha     = S'D y0 - S'DS eta_p,
    alpha'D alpha = y0'D y0 - 2 eta_p'S'D y0 + eta_p'S'DS eta_p,

then A, eta_f and P_f as above, and ln|Sigma| = ln|A| + ln|P_p| + ln|D^{-1}|.

Because the stage reads no state, ``filter_pass`` factors the next step's F
on the calling thread while this step's solves run on the solve pool.  That
holds two factors at once, so it does so only while the last factor was
small (LOOKAHEAD_MAX_NNZ).  The factors are always built, and psi always
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
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .car import SOLVE_BLOCK, CARParams, SparseFactor, run_ahead
from .exceptions import FactorizationError, NumericalError
from .model import AssembledTimeSlice, DFGPParams, ModelData, sym

# filter_pass factors the next step's F ahead, during this step's solves,
# while the last step's factor held at most LOOKAHEAD_MAX_NNZ entries
# (SparseFactor.nnz, about 21 bytes an entry), so the second factor it holds
# stays under ~40 MB.  Measured on the bench scenario, one BLAS thread of a
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
    want_variance: also compute fine_var (per step, one sparse solve per
        prediction BAU for small sets, else one selected inversion of the
        factor; see ``SparseFactor.solve_selected_diag``).
    on_factor: called as on_factor(t, factor) on this thread, in step order,
        with step t's factor of F_t (``fine_factor``; of Q_t at a step
        without records) before the pass drops it, while the step's solves
        run on the solve pool.  It needs a CAR block.

    Each step is a ``_SparseStage`` built here, the single carrier of its
    theta_t, slice and outputs, run as ``filter_step(eta_pred, P_pred,
    stage)``.  The stage reads no state, so while the last step's factor of
    F held at most LOOKAHEAD_MAX_NNZ entries, the next step's F is factored
    on this thread while this step's solves run on the solve pool.
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
    ahead = None
    last_nnz = 0         # entries of the last step's factor; 0 when it made none
    for t in range(1, u + 1):
        eta_pred, P_pred = forecast_step(eta, P, params.H_at(t), params.U_at(t))
        this = stage(t) if ahead is None else ahead
        ahead = None
        if t < u and 0 < last_nnz <= LOOKAHEAD_MAX_NNZ:
            this.start()
            ahead = stage(t + 1)
            ahead.prepare()
        if on_factor is not None:
            this.start()
            on_factor(t, this.factor if this.slc.n_obs else
                      fine_factor(data, this.car, this.slc, this.sigma2_row))
        st = filter_step(eta_pred, P_pred, this)
        last_nnz = this.factor_nnz
        states.append(st)
        eta, P = st.eta, st.P
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
    while this step's solves run: ``prepare`` (the products with V^{-1} and
    the factor of F), ``start`` (the solves against F on the solve pool,
    which fill ``psi``, and meanwhile ``fine_var`` on the calling thread) and
    ``finish`` (the Woodbury corrections).  Each part runs the parts before
    it that have not run.  After ``finish``: ``ln_dinv`` = ln|D^{-1}|,
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
        self._prepared = False
        self._solves: list[Future] | None = None

    def prepare(self) -> None:
        if self._prepared or self.slc.n_obs == 0:
            return
        self._prepared = True
        slc, car, sigma2_row = self.slc, self.car, self.sigma2_row
        y0 = slc.z[:, None] - (slc.X @ self.beta_t)[:, None]
        v = slc.v_diag(sigma2_row)
        vy = y0 / v[:, None]
        # S' V^{-1} by rows, so that a block of its rows is a cheap slice
        self.svt = svt = sp.csr_matrix(sp.csr_matrix(slc.S).T.multiply(1.0 / v))
        self.sds = sum(g / sigma2_row[k - 1] for k, g in slc.basis_gram.items())
        self.sdy = svt @ y0
        self.ydy = (y0 * vy).sum(axis=0)
        self.ln_dinv = float(np.log(v).sum())
        if car is not None:
            self.factor = fine_factor(self.data, car, slc, sigma2_row)
            self.bvy = slc.B.T @ vy                                    # B' V^{-1} y0
            self.ln_dinv += self.factor.logdet() - self.data.structure.precision_logdet(car)
            self.factor_nnz = self.factor.nnz

    def start(self) -> None:
        """F^{-1} B' V^{-1} y0, and F^{-1} B' V^{-1} S in column blocks that
        fill psi and gcorr = S' V^{-1} B F^{-1} B' V^{-1} S."""
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
        if factor is None:
            return
        B, svt, psi = self.slc.B, self.svt, self.psi
        r = psi.shape[1]
        self.gcorr = gcorr = np.zeros((r, r))

        def solve_cols(cols: slice) -> None:
            # the blocks write disjoint columns of gcorr and psi
            gf = factor.solve(B.T @ svt[cols].toarray().T)
            gcorr[:, cols] = svt @ (B @ gf)
            psi[:, cols] = gf[nodes]

        self._solves = [run_ahead(task) for task in
                        [partial(factor.solve, self.bvy)]
                        + [partial(solve_cols, slice(c0, min(c0 + SOLVE_BLOCK, r)))
                           for c0 in range(0, r, SOLVE_BLOCK)]]
        if want_var:
            self.fine_var = factor.solve_selected_diag(nodes)

    def finish(self) -> None:
        self.start()
        if not self._solves:        # no observation, or no fine-scale component
            return
        # fb = F^{-1} B' V^{-1} y0 = E[xi | eta = 0, Z] at every node
        fb = [f.result() for f in self._solves][0]
        self.sds = self.sds - self.gcorr
        self.sdy = self.sdy - self.svt @ (self.slc.B @ fb)
        self.ydy = self.ydy - (self.bvy * fb).sum(axis=0)
        np.take(fb, self.pred_nodes, axis=0, out=self.delta0)


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
