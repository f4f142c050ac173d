"""Kalman filter, smoother, and field predictors for the fused model.

The filter runs in information form.  With forecast moments (eta_p, P_p) and
the effective observation precision D = (B Q^{-1} B' + V)^{-1}, one step is

    A      = P_p^{-1} + S' D S
    eta_f  = eta_p + A^{-1} S' D alpha,      P_f = A^{-1}

and every application of D uses the Woodbury identity

    D = V^{-1} - V^{-1} B F^{-1} B' V^{-1},      F = Q + B' V^{-1} B,

so the only large factorization per step is the sparse SPD matrix F.  The
same factor gives the fine-scale posterior at no extra factorization cost:
given eta_t and Z_t, xi_t ~ N(delta0 - psi eta_t, F^{-1}) with
    delta0 = F^{-1} B' V^{-1} (z - X beta),      psi = F^{-1} B' V^{-1} S,
which depend on no state.  Each step stores them at the tracked nodes, so
the smoother moves (eta, P) alone and the predictors read E[xi] and var(xi)
from (eta, P).  No dense N x N or n x n matrix is ever formed.

Means are computed for any number of observation columns at once (the
conditional-simulation machinery feeds simulated replicates through the same
sweep); covariances are shared across columns.  Each step also yields its
term of the marginal -2 log-likelihood (``FilterResult.neg2loglik``).
Parameters without a CAR block (``DFGPParams.car == ()``) are the fixed-rank
model: there is no xi, so D = V^{-1}, no F is formed and delta = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .car import SOLVE_BLOCK, CARParams, run_parallel, sparse_factorize
from .exceptions import FactorizationError, NumericalError
from .model import AssembledTimeSlice, DFGPParams, ModelData, as_dense, sym

__all__ = [
    "StatePosterior", "FilterResult", "SmootherResult", "PredictionField",
    "forecast_step", "fine_precision", "filter_step", "filter_pass", "smoother_pass",
    "predict_filter", "predict_smooth", "predict_from_posterior",
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
    fine_var and differ only in (eta, P, lag1); ``delta``, ``R_diag`` and
    ``C`` follow.  ``eta``, ``delta0`` and ``quad`` = alpha' Sigma^{-1} alpha
    carry one column per observation set fed through the sweep (column 0 is
    the real data); ``logdet_sigma`` is ln|Sigma|; ``lag1`` is
    cov(eta_t, eta_{t-1} | Z), on smoothed states only.
    """

    time_index: int
    eta: np.ndarray                 # (r, k)
    P: np.ndarray                   # (r, r)
    eta_pred: np.ndarray            # (r, k)
    P_pred: np.ndarray              # (r, r)
    delta0: np.ndarray              # (m, k)
    fine_var: np.ndarray | None     # (m,)
    psi: np.ndarray                 # (m, r)
    n_obs: int = 0
    logdet_sigma: float = 0.0
    quad: np.ndarray = field(default_factory=lambda: np.zeros(1))
    lag1: np.ndarray | None = None

    @property
    def delta(self) -> np.ndarray:
        """E[delta_t^P | data] = delta0 - psi eta, (m, k)."""
        return self.delta0 - self.psi @ self.eta

    @property
    def R_diag(self) -> np.ndarray | None:
        """var(delta_t^P | data) = fine_var + diag(psi P psi'), (m,)."""
        if self.fine_var is None:
            return None
        return self.fine_var + _row_quad(self.psi, self.P)

    @property
    def C(self) -> np.ndarray:
        """cov(eta_t, delta_t^P) = -P psi' (r, m)."""
        return -self.P @ self.psi.T


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
    eta0: np.ndarray               # (r, k) smoothed initial state mean
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
                extra_obs: list[np.ndarray | None] | None = None,
                want_variance: bool = False) -> FilterResult:
    """Forward filtering sweep over t = 1..params.u.

    pred_bau: flat BAU indices where the fine-scale posterior (delta0, psi,
        fine_var) is tracked; None disables tracking,
        data.structure.valid_idx tracks every BAU.
    extra_obs: optional per-time arrays (n_t, k-1) of additional observation
        columns sharing the design of the real data.
    want_variance: also compute fine_var (per step, one sparse solve per
        prediction BAU for small sets, else one selected inversion of the
        factor; see ``SparseFactor.solve_selected_diag``).
    """
    u = params.u
    if len(data.slices) < u:
        raise ValueError(f"data has {len(data.slices)} time steps, need {u}")
    r = params.r
    if pred_bau is None:
        pred_nodes = np.zeros(0, dtype=np.int64)
    else:
        pred_nodes = data.node_index(np.asarray(pred_bau, dtype=np.int64))
    n_rhs = 1 + (0 if extra_obs is None else
                 next((e.shape[1] for e in extra_obs if e is not None), 0))

    eta = np.zeros((r, n_rhs))
    P = params.K0.copy()
    states: list[StatePosterior] = []
    for t in range(1, u + 1):
        slc = data.slices[t - 1]
        eta_pred, P_pred = forecast_step(eta, P, params.H_at(t), params.U_at(t))
        extra = None if extra_obs is None else extra_obs[t - 1]
        st = filter_step(
            eta_pred, P_pred, slc, params.car[t - 1] if params.car else None,
            data.structure, params.sigma2_eps[t - 1], params.beta[t - 1],
            pred_nodes=pred_nodes, extra=extra, want_variance=want_variance)
        states.append(st)
        eta, P = st.eta, st.P
    return FilterResult(states=states, pred_nodes=pred_nodes)


def fine_precision(structure, car: CARParams, B, vinv: np.ndarray) -> sp.csc_matrix:
    """F = (D - gamma E)/tau2 + B' diag(vinv) B, the precision of xi_t | eta_t, Z_t."""
    return (structure.base_precision(car.gamma) / car.tau2
            + B.T @ sp.diags(vinv) @ B).tocsc()


def filter_step(eta_pred: np.ndarray, P_pred: np.ndarray,
                slc: AssembledTimeSlice, car: CARParams | None, structure,
                sigma2_row: np.ndarray, beta_t: np.ndarray, *,
                pred_nodes: np.ndarray, extra: np.ndarray | None,
                want_variance: bool) -> StatePosterior:
    """One measurement update from forecast moments to filtered moments.

    eta_pred has one column for the data and one per column of ``extra``.
    With no observations the filtered moments equal the forecast and the
    fine-scale posterior reverts to its prior.  All D-applications factor
    through the sparse SPD matrix F = Q + B' V^{-1} B.  ``car`` None means
    there is no fine-scale component (the fixed-rank model): D = V^{-1}.
    """
    t = slc.time_index
    r, n_rhs = eta_pred.shape
    m = pred_nodes.size
    psi = np.zeros((m, r))
    delta0 = np.zeros((m, n_rhs))
    fine_var = np.zeros(m) if want_variance else None
    if slc.n_obs == 0:
        if want_variance and m and car is not None:
            afac = structure.factor(car.gamma)
            fine_var = car.tau2 * afac.solve_selected_diag(pred_nodes)
        return StatePosterior(
            time_index=t, eta=eta_pred.copy(), P=P_pred.copy(),
            eta_pred=eta_pred, P_pred=P_pred, delta0=delta0,
            fine_var=fine_var, psi=psi, n_obs=0, quad=np.zeros(n_rhs))

    zcols = slc.z[:, None] if extra is None else np.column_stack([slc.z, extra])
    v = slc.v_diag(sigma2_row)
    vinv = 1.0 / v
    alpha = zcols - (slc.X @ beta_t)[:, None] - as_dense(slc.S @ eta_pred)
    VS = sp.diags(vinv) @ slc.S
    sds = as_dense(slc.S.T @ VS)                      # S' V^{-1} S
    sda = as_dense(VS.T @ alpha)                      # S' V^{-1} alpha
    ada = (alpha * (vinv[:, None] * alpha)).sum(axis=0)
    if car is None:
        ln_dinv = float(np.log(v).sum())
    else:
        try:
            ffac = sparse_factorize(fine_precision(structure, car, slc.B, vinv))
        except FactorizationError as exc:
            raise NumericalError(str(exc), time_index=t) from exc
        nmat = slc.B.T @ VS                          # (n_valid, r) sparse
        bva = as_dense(slc.B.T @ (vinv[:, None] * alpha))
        gcorr = np.zeros((r, r))

        def solve_cols(cols: slice) -> None:
            # the blocks write disjoint columns of gcorr and psi
            gf = ffac.solve(as_dense(nmat[:, cols]))
            gcorr[:, cols] = as_dense(nmat.T @ gf)
            if m:
                psi[:, cols] = gf[pred_nodes]

        fb = run_parallel([partial(ffac.solve, bva)]
                          + [partial(solve_cols, slice(c0, min(c0 + SOLVE_BLOCK, r)))
                             for c0 in range(0, r, SOLVE_BLOCK)])[0]
        sds = sds - gcorr
        sda = sda - as_dense(nmat.T @ fb)
        ada = ada - (bva * fb).sum(axis=0)
        ln_dinv = (ffac.logdet() - structure.precision_logdet(car)
                   + float(np.log(v).sum()))
        if m:
            # fb = E[xi | eta_pred, Z] at every node; E[xi | eta, Z] is affine in eta
            delta0 = fb[pred_nodes] + psi @ eta_pred
            if want_variance:
                fine_var = ffac.solve_selected_diag(pred_nodes)

    pp_cf = _cho(P_pred, t, "forecast covariance")
    A = sym(_cho_inv(pp_cf) + sds)
    a_cf = _cho(A, t, "information matrix")
    gain = la.cho_solve(a_cf, sda)                  # (r, k)
    eta_f = eta_pred + gain
    P_f = _cho_inv(a_cf)
    return StatePosterior(
        time_index=t, eta=eta_f, P=P_f, eta_pred=eta_pred, P_pred=P_pred,
        delta0=delta0, fine_var=fine_var, psi=psi, n_obs=slc.n_obs,
        logdet_sigma=_cho_logdet(a_cf) + _cho_logdet(pp_cf) + ln_dinv,
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


def predict_from_posterior(post: StatePosterior, Xp: np.ndarray, Sp: np.ndarray,
                           beta_t: np.ndarray, bau_indices: np.ndarray) -> PredictionField:
    """Field mean and standard error from one time's posterior moments
    (column 0, the real data): Y - X beta - delta0 = (S - psi) eta + e with
    e ~ N(0, diag fine_var) independent of eta, so var(Y) is a PSD form in P
    plus a diagonal."""
    G = Sp - post.psi
    mean = Xp @ beta_t + G @ post.eta[:, 0] + post.delta0[:, 0]
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
    return PredictionField(time_index=post.time_index, bau_indices=bau_indices,
                           mean=mean, stderr=np.sqrt(var))


def _predict(result: FilterResult | SmootherResult, data: ModelData, params: DFGPParams,
             t: int, pred_bau: np.ndarray) -> PredictionField:
    nodes = data.node_index(np.asarray(pred_bau, dtype=np.int64))
    if not np.array_equal(nodes, result.pred_nodes):
        raise ValueError("pred_bau differs from the prediction set tracked "
                         "during the filter pass")
    Xp, Sp = data.design_at(pred_bau)
    return predict_from_posterior(result.states[t - 1], Xp, Sp, params.beta[t - 1], pred_bau)


def predict_filter(filt: FilterResult, data: ModelData, params: DFGPParams,
                   t: int, pred_bau: np.ndarray) -> PredictionField:
    """Filtered field predictor at time t over the tracked prediction BAUs."""
    return _predict(filt, data, params, t, pred_bau)


def predict_smooth(smooth: SmootherResult, data: ModelData, params: DFGPParams,
                   t: int, pred_bau: np.ndarray) -> PredictionField:
    """Smoothed field predictor at time t over the tracked prediction BAUs."""
    return _predict(smooth, data, params, t, pred_bau)
