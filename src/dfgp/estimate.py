"""Maximum-likelihood parameter estimation.

Two modes share one M-step.  Moments of the dynamic coefficients come
exactly from a filter/smoother sweep in both; the fine-scale expectations:

* ``sem``: stochastic EM, from conditional-simulation draws.
* ``exact``: full EM, exact from the smoothed fine-scale moments and one
  selected inversion of F_t per step; no dense joint, so no cap on N.

Parameters without a CAR block (``car == ()``) are the fixed-rank model, so both
modes run its exact E-step; only ``run_estimator`` reads ``lowrank_only``.

Each iteration's sweep also yields the marginal -2 log-likelihood at the
current parameters (``FilterResult.neg2loglik``), which drives the
convergence monitor and the trace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .car import GAMMA_MAX, CARParams, SparseFactor, sample_car, sparse_factorize
from .dynamics import _row_quad, filter_pass, fine_precision, smoother_pass
from .exceptions import InvalidParameterError
from .model import DFGPParams, ModelData, as_dense, sym

_VAR_FLOOR = 1e-12


def _pd_floor(m: np.ndarray) -> np.ndarray:
    """Tiny ridge keeping an (analytically PSD) update numerically PD."""
    r = m.shape[0]
    return sym(m) + max(1e-10 * float(np.trace(m)) / r, _VAR_FLOOR) * np.eye(r)


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings for run_estimator.

    hu_blocks: increasing 1-based end times of the H/U blocks (empty = one
    time-invariant block; the last entry must equal the fitted horizon).
    lowrank_only: fit the fixed-rank model, which has no fine-scale CAR
    component: run_estimator starts from the start parameters with car = ().
    """

    mode: str = "sem"
    max_iter: int = 100
    tol_loglik: float = 1e-6
    tol_param: float = 1e-5
    consecutive: int = 5
    nugget_time_invariant: bool = False
    hu_blocks: tuple[int, ...] = ()
    draws: int = 1
    sem_average_frac: float = 0.2
    lowrank_only: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("sem", "exact"):
            raise ValueError(f"mode must be 'sem' or 'exact', got {self.mode!r}")
        if self.tol_loglik <= 0 or self.tol_param <= 0:
            raise ValueError("convergence thresholds must be > 0")
        if min(self.max_iter, self.draws, self.consecutive) < 1:
            raise ValueError("max_iter, draws and consecutive must be >= 1")
        if not 0 < self.sem_average_frac <= 1:
            raise ValueError(f"sem_average_frac must lie in (0, 1], got {self.sem_average_frac}")
        if list(self.hu_blocks) != sorted(set(self.hu_blocks)):
            raise ValueError("hu_blocks must be strictly increasing")
        if min(self.hu_blocks, default=1) < 1:
            raise ValueError(f"hu_blocks must be >= 1, got {self.hu_blocks}")


@dataclass
class SufficientStats:
    """Per-iteration E-step summaries consumed by the M-step.

    K[t] = P_{t|u} + eta eta' for t = 0..u; L[t-1] couples t to t-1.
    xi_* fields are exact expectations (exact mode) or draw averages (SEM);
    meas_trace is the beta-free spread term of E[res' V_eps^{-1} res].
    """

    eta_mean: np.ndarray           # (u+1, r)
    K: np.ndarray                  # (u+1, r, r)
    L: np.ndarray                  # (u, r, r)
    xi_mean: np.ndarray            # (u, n_valid)
    xi_quad_deg: np.ndarray        # (u,)  E[xi' D xi]
    xi_quad_adj: np.ndarray        # (u,)  E[xi' E xi]
    meas_trace: np.ndarray         # (u, k0)
    neg2loglik: float = np.nan


@dataclass
class EstimationResult:
    """Point estimate plus the iteration record.

    params is the reported estimate (tail average for SEM, final iterate for
    exact EM, or the iterate with the lowest -2 log-likelihood when exact EM
    did not converge); message says why the iteration stopped.
    """

    params: DFGPParams
    trace: np.ndarray
    n_iter: int
    converged: bool
    params_last: DFGPParams | None = None
    message: str = ""


def conditional_simulate(data: ModelData, params: DFGPParams,
                         rng: np.random.Generator, *, ndraws: int = 1):
    """Draws from [eta_{0:u}, xi_{1:u} | Z_{1:u}] by conditional simulation.

    A prior trajectory (eta*, xi*) and synthetic data Z* are drawn from the
    generative model; the conditional draw is
        x* + E[x | Z] - E[x | Z*],
    with both conditional means obtained from one multi-column sweep.
    Returns (eta_draws (ndraws, u+1, r), xi_draws (ndraws, u, n_valid), sweep)
    where sweep = (filter result, smoother result) at the real data.
    """
    u = params.u
    r, nv = params.r, data.structure.n
    eta_star = np.zeros((u + 1, r, ndraws))
    eta_star[0] = np.linalg.cholesky(params.K0) @ rng.standard_normal((r, ndraws))
    xi_star = np.zeros((u, nv, ndraws))
    z_star: list[np.ndarray | None] = []
    gammas = [c.gamma for c in params.car[:u]]
    factors: dict[float, SparseFactor] = {}   # D - gamma E, kept while a later step shares gamma
    for t in range(1, u + 1):
        cu = np.linalg.cholesky(params.U_at(t))
        eta_star[t] = params.H_at(t) @ eta_star[t - 1] + cu @ rng.standard_normal((r, ndraws))
        g = gammas[t - 1]
        if g not in factors:
            factors[g] = data.structure.factor(g)
        factor = factors[g] if g in gammas[t:] else factors.pop(g)
        xi_star[t - 1] = sample_car(data.structure, params.car[t - 1], rng, size=ndraws,
                                    factor=factor).reshape(ndraws, nv).T
        slc = data.slices[t - 1]
        if slc.n_obs == 0:
            z_star.append(None)
            continue
        eps = (np.sqrt(slc.v_diag(params.sigma2_eps[t - 1]))[:, None]
               * rng.standard_normal((slc.n_obs, ndraws)))
        z_star.append((slc.X @ params.beta[t - 1])[:, None]
                      + as_dense(slc.S @ eta_star[t]) + slc.B @ xi_star[t - 1] + eps)

    filt = filter_pass(data, params, pred_bau=data.structure.valid_idx, extra_obs=z_star)
    sm = smoother_pass(filt, params)
    eta_draws = np.empty((ndraws, u + 1, r))
    xi_draws = np.empty((ndraws, u, nv))
    eta_draws[:, 0] = (eta_star[0] + sm.eta0[:, :1] - sm.eta0[:, 1:]).T
    for t in range(1, u + 1):
        st = sm.states[t - 1]
        delta = st.delta
        eta_draws[:, t] = (eta_star[t] + st.eta[:, :1] - st.eta[:, 1:]).T
        xi_draws[:, t - 1] = (xi_star[t - 1] + delta[:, :1] - delta[:, 1:]).T
    return eta_draws, xi_draws, (filt, sm)


def _eta_stats_from_smoother(sm, u: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    eta_mean = np.vstack([sm.eta0[:, 0]] + [sm.states[t - 1].eta[:, 0] for t in range(1, u + 1)])
    K = np.empty((u + 1, r, r))
    L = np.empty((u, r, r))
    K[0] = sym(sm.P0 + np.outer(eta_mean[0], eta_mean[0]))
    for t in range(1, u + 1):
        st = sm.states[t - 1]
        K[t] = sym(st.P + np.outer(eta_mean[t], eta_mean[t]))
        L[t - 1] = st.lag1 + np.outer(eta_mean[t], eta_mean[t - 1])
    return eta_mean, K, L


def e_step(data: ModelData, params: DFGPParams, config: EstimatorConfig,
           rng: np.random.Generator) -> SufficientStats:
    """E-step summaries plus the -2 log-likelihood, from one filter/smoother
    sweep.  Exact mode uses Cov(xi_t | Z) = Z_t + psi_t P_{t|u} psi_t', with
    Z_t = F_t^{-1} on pattern(F_t).  The fixed-rank model has no xi to draw,
    so it takes the exact branch in both modes and tracks no node."""
    u = params.u
    r, nv = params.r, data.structure.n
    deg = data.structure.degrees
    adj = data.structure.adjacency
    xi_mean, xi_qd, xi_qa = np.zeros((u, nv)), np.zeros(u), np.zeros(u)
    meas_trace = np.zeros((u, params.n_instruments))
    if config.mode == "exact" or not params.car:
        filt = filter_pass(data, params, pred_bau=data.structure.valid_idx if params.car else None)
        sm = smoother_pass(filt, params)
        for t in range(1, u + 1):
            slc, st = data.slices[t - 1], sm.states[t - 1]
            if not params.car:
                quad_rows = _row_quad(as_dense(slc.S), st.P)
            else:
                # E's pattern, which E[xi' E xi] reads, drops out of F_t at gamma = 0
                if params.car[t - 1].gamma == 0:
                    raise InvalidParameterError("exact EM needs gamma > 0 at every time step")
                Z = sparse_factorize(fine_precision(
                    data.structure, params.car[t - 1], slc.B,
                    1.0 / slc.v_diag(params.sigma2_eps[t - 1]))).selected_inverse()
                m, psi, P = st.delta[:, 0], st.psi, st.P
                xi_mean[t - 1] = m
                xi_qd[t - 1] = m @ (deg * m) + deg @ (Z.diagonal() + _row_quad(psi, P))
                xi_qa[t - 1] = (m @ (adj @ m) + adj.multiply(Z).sum()
                                + float((P * (psi.T @ (adj @ psi))).sum()))
                # rows of Cov(S eta + B xi) = (S - B psi) P (S - B psi)' + B F^{-1} B'
                quad_rows = (_row_quad(as_dense(slc.S) - slc.B @ psi, P)
                             + np.asarray((slc.B @ Z).multiply(slc.B).sum(axis=1)).ravel())
            for k, rows in slc.instrument_rows.items():
                meas_trace[t - 1, k - 1] = float(
                    (quad_rows[rows] / slc.v_factors[rows]).sum())
    else:
        # SEM: fine-scale expectations from conditional draws
        _eta_draws, xi_draws, (filt, sm) = conditional_simulate(
            data, params, rng, ndraws=config.draws)
        xi_mean = xi_draws.mean(axis=0)
        xi_qd = np.array([np.mean([x @ (deg * x) for x in xi_draws[:, t]])
                          for t in range(u)])
        xi_qa = np.array([np.mean([x @ (adj @ x) for x in xi_draws[:, t]])
                          for t in range(u)])
        if config.draws > 1:
            for t in range(1, u + 1):
                slc = data.slices[t - 1]
                if slc.n_obs == 0:
                    continue
                spread = slc.B @ (xi_draws[:, t - 1] - xi_mean[t - 1]).T  # (n, ndraws)
                for k, rows in slc.instrument_rows.items():
                    meas_trace[t - 1, k - 1] = float(
                        (spread[rows] ** 2 / slc.v_factors[rows, None]).sum()) / config.draws
    eta_mean, K, L = _eta_stats_from_smoother(sm, u, r)
    return SufficientStats(eta_mean, K, L, xi_mean, xi_qd, xi_qa, meas_trace,
                           neg2loglik=filt.neg2loglik)


def _gamma_objective(gamma: float, quad_adj: float, tau2: float, structure) -> float:
    return (-gamma * quad_adj / tau2
            - structure.logdet_curve(gamma))


def optimize_gamma(structure, quad_adj: float, tau2: float,
                   gamma_old: float) -> float:
    """Bounded scalar minimization of the CAR dependence objective.

    ln|I - gamma W| comes from the structure's cached log-determinant curve,
    so no evaluation here factorizes once that curve exists.  Never returns
    a value worse than gamma_old (EM monotonicity guard).
    """
    res = minimize_scalar(_gamma_objective, bounds=(0.0, GAMMA_MAX),
                          args=(quad_adj, tau2, structure), method="bounded",
                          options={"xatol": 1e-9})
    g_new, g_old = float(res.x), float(gamma_old)
    if (_gamma_objective(g_new, quad_adj, tau2, structure)
            <= _gamma_objective(g_old, quad_adj, tau2, structure)):
        return g_new
    return g_old


def m_step(stats: SufficientStats, data: ModelData, prev: DFGPParams,
           config: EstimatorConfig) -> DFGPParams:
    """Closed-form conditional-maximization updates for every parameter block."""
    u = prev.u
    r = prev.r
    nv = data.structure.n
    beta = prev.beta.copy()
    resid = []  # per-time residual with new beta, states plugged in
    for t in range(1, u + 1):
        slc = data.slices[t - 1]
        if slc.n_obs == 0:
            resid.append(np.zeros(0))
            continue
        v = slc.v_diag(prev.sigma2_eps[t - 1])
        target = (slc.z - as_dense(slc.S @ stats.eta_mean[t])
                  - slc.B @ stats.xi_mean[t - 1])
        xtv = slc.X.T / v
        try:
            beta[t - 1] = np.linalg.solve(xtv @ slc.X, xtv @ target)
        except np.linalg.LinAlgError:
            warnings.warn(f"singular GLS system at t={t}; regularizing")
            beta[t - 1] = np.linalg.lstsq(xtv @ slc.X, xtv @ target, rcond=None)[0]
        resid.append(target - slc.X @ beta[t - 1])

    k0n = prev.n_instruments
    sigma2 = prev.sigma2_eps.copy()
    num = np.zeros((u, k0n))
    cnt = np.zeros((u, k0n))
    for t in range(1, u + 1):
        slc = data.slices[t - 1]
        for k, rows in slc.instrument_rows.items():
            res_k = resid[t - 1][rows]
            num[t - 1, k - 1] = (float(res_k @ (res_k / slc.v_factors[rows]))
                                 + stats.meas_trace[t - 1, k - 1])
            cnt[t - 1, k - 1] = res_k.size
    if config.nugget_time_invariant:
        tot = num.sum(axis=0)
        n_tot = cnt.sum(axis=0)
        pooled = np.where(n_tot > 0, tot / np.maximum(n_tot, 1), sigma2[0])
        sigma2 = np.tile(np.maximum(pooled, _VAR_FLOOR), (u, 1))
    else:
        upd = cnt > 0
        sigma2[upd] = np.maximum(num[upd] / cnt[upd], _VAR_FLOOR)

    K0 = _pd_floor(stats.K[0])
    blocks = list(config.hu_blocks) if config.hu_blocks else [u]
    if blocks[-1] != u:
        raise ValueError(f"hu_blocks must end at the horizon {u}")
    h_parts, u_parts, spans = [], [], []
    lo = 0
    for hi in blocks:
        ks = stats.K[lo:hi]                       # K_{lo} .. K_{hi-1}
        ls = stats.L[lo:hi]                       # L_{lo+1} .. L_{hi}
        H_b = np.linalg.solve(ks.sum(axis=0).T, ls.sum(axis=0).T).T
        acc = np.zeros((r, r))
        for j in range(hi - lo):
            acc += (stats.K[lo + j + 1] - H_b @ ls[j].T - ls[j] @ H_b.T
                    + H_b @ ks[j] @ H_b.T)
        u_new = _pd_floor(acc / (hi - lo))
        h_parts.append(H_b)
        u_parts.append(u_new)
        spans.append(hi - lo)
        lo = hi
    if len(blocks) == 1:
        H_new, U_new = h_parts[0], u_parts[0]
    else:
        H_new = np.concatenate([np.repeat(h[None], n, axis=0)
                                for h, n in zip(h_parts, spans)])
        U_new = np.concatenate([np.repeat(v[None], n, axis=0)
                                for v, n in zip(u_parts, spans)])

    car = []   # none for the fixed-rank model
    for c, quad_deg, quad_adj in zip(prev.car, stats.xi_quad_deg, stats.xi_quad_adj):
        tau2 = max((quad_deg - c.gamma * quad_adj) / nv, _VAR_FLOOR)
        car.append(CARParams(optimize_gamma(data.structure, quad_adj, tau2, c.gamma), tau2))
    return DFGPParams(beta=beta, H=H_new, U=U_new, K0=K0, car=tuple(car),
                      sigma2_eps=sigma2)


def init_params(data: ModelData, *, horizon: int | None = None) -> DFGPParams:
    """Default starting point: OLS trend, scaled-identity state covariances,
    gamma = 0.5, H = I.

    tau2 starts at half the OLS residual variance.  Starting it near zero
    traps the EM iteration: the shrunk fine-scale posterior keeps the tau2
    update near zero for hundreds of iterations while the nugget absorbs the
    signal.
    """
    u = len(data.slices) if horizon is None else horizon
    r = data.basis.r
    p = data.X_bau.shape[1]
    k0n = data.n_instruments
    beta = np.zeros((u, p))
    res_by_k = {k: [] for k in range(1, k0n + 1)}
    all_res = []
    for t in range(1, u + 1):
        slc = data.slices[t - 1]
        if slc.n_obs == 0:
            continue
        coef, *_ = np.linalg.lstsq(slc.X, slc.z, rcond=None)
        beta[t - 1] = coef
        res = slc.z - slc.X @ coef
        all_res.append(res)
        for k, rows in slc.instrument_rows.items():
            res_by_k[k].append(res[rows])
    var_all = float(np.var(np.concatenate(all_res))) if all_res else 1.0
    var_all = max(var_all, _VAR_FLOOR)
    sigma2 = np.empty((u, k0n))
    for k in range(1, k0n + 1):
        vk = (float(np.var(np.concatenate(res_by_k[k])))
              if res_by_k[k] else var_all)
        sigma2[:, k - 1] = max(0.1 * vk, _VAR_FLOOR)
    return DFGPParams(
        beta=beta,
        H=np.eye(r),
        U=var_all * np.eye(r),
        K0=var_all * np.eye(r),
        car=tuple(CARParams(0.5, max(0.5 * var_all, _VAR_FLOOR)) for _ in range(u)),
        sigma2_eps=sigma2)


def _average_params(history: list[DFGPParams], frac: float) -> DFGPParams:
    keep = max(1, int(np.ceil(frac * len(history))))
    tail = history[-keep:]
    mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
    return DFGPParams(
        beta=mean([p.beta for p in tail]),
        H=mean([np.asarray(p.H) for p in tail]),
        U=mean([np.asarray(p.U) for p in tail]),
        K0=mean([p.K0 for p in tail]),
        car=tuple(CARParams(mean([c.gamma for c in cs]), mean([c.tau2 for c in cs]))
                  for cs in zip(*(p.car for p in tail))),
        sigma2_eps=mean([p.sigma2_eps for p in tail]))


def run_estimator(data: ModelData, config: EstimatorConfig, init: DFGPParams | None = None,
                  *, horizon: int | None = None) -> EstimationResult:
    """Iterate E/M steps until the likelihood trace or parameters settle.

    SEM reports the average of the last ``sem_average_frac`` of the iterate
    history as the point estimate; exact mode reports the final iterate.
    ``config.lowrank_only`` drops the start's CAR block (the fixed-rank
    model); otherwise the start must have one.  Deterministic for fixed
    (data, config, seed).
    """
    u = len(data.slices) if horizon is None else horizon
    if u < 1:
        raise ValueError("need at least one time step")
    if config.hu_blocks and config.hu_blocks[-1] != u:
        raise ValueError(f"hu_blocks must end at the horizon {u}")
    rng = np.random.default_rng(config.seed)
    params = init.truncated(u) if init is not None and init.u >= u else (
        init if init is not None else init_params(data, horizon=u))
    if params.u != u:
        raise ValueError(f"init has horizon {params.u}, need {u}")
    if config.lowrank_only:
        params = replace(params, car=())
    elif not params.car:
        raise InvalidParameterError("the start parameters have no CAR block (the "
                                    "fixed-rank model), but lowrank_only is off")
    trace: list[float] = []
    history: list[DFGPParams] = []
    best: tuple[float, DFGPParams] | None = None
    converged = False
    message = "max_iter reached"
    stable = 0
    for it in range(config.max_iter):
        stats = e_step(data, params, config, rng)
        trace.append(stats.neg2loglik)
        history.append(params)
        if best is None or stats.neg2loglik < best[0]:
            best = (stats.neg2loglik, params)
        if len(trace) >= 2:
            rel = abs(trace[-1] - trace[-2]) / max(abs(trace[-2]), 1.0)
            stable = stable + 1 if rel < config.tol_loglik else 0
            if stable >= config.consecutive:
                converged = True
                message = "likelihood settled"
                break
        new = m_step(stats, data, params, config)
        new_flat, old_flat = new.flat(), params.flat()
        if (new_flat.size == old_flat.size
                and np.linalg.norm(new_flat - old_flat) < config.tol_param):
            params = new
            history.append(params)
            converged = True
            message = "parameters settled"
            break
        params = new
    if config.mode == "sem" and len(history) > 1:
        final = _average_params(history, config.sem_average_frac)
    else:
        final = history[-1]
    if not converged and best is not None and config.mode == "exact":
        final = best[1]
    return EstimationResult(params=final, trace=np.asarray(trace),
                            n_iter=len(trace), converged=converged,
                            params_last=history[-1],
                            message=message)


def fit_filtering_sequence(data: ModelData,
                           config: EstimatorConfig) -> dict[int, EstimationResult]:
    """One fit per horizon u = 2..T on Z_{1:u}, each started from the fit
    at u-1 extended by one time step (u = 2 from init_params)."""
    T = len(data.slices)
    if T < 2:
        raise ValueError("filtering protocol needs T >= 2")
    results: dict[int, EstimationResult] = {}
    prev: DFGPParams | None = None
    for u in range(2, T + 1):
        start = None if prev is None else _extend_params(prev)
        cfg_u = config
        if config.hu_blocks:
            # clip block boundaries to the current horizon
            blocks = tuple(b for b in config.hu_blocks if b < u) + (u,)
            cfg_u = replace(config, hu_blocks=blocks)
        res = run_estimator(data, cfg_u, init=start, horizon=u)
        results[u] = res
        prev = res.params
    return results


def _extend_params(params: DFGPParams) -> DFGPParams:
    """Extend a parameter set by one time step, repeating its last."""
    grow = lambda a: np.concatenate([a, a[-1:]])  # noqa: E731
    per_time = params.H.ndim == 3
    return replace(params, beta=grow(params.beta), H=grow(params.H) if per_time else params.H,
                   U=grow(params.U) if per_time else params.U,
                   car=params.car + params.car[-1:], sigma2_eps=grow(params.sigma2_eps))
