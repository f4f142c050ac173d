"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line with its measured
statistic and runtime.  Criteria 5, 6 and 8 run multi-minute experiments
and carry the ``slow`` marker (``pytest -m "not slow"`` leaves them out);
the whole suite is sized for a plain workstation run.  Criteria 5 and 6 run
their seeded replicates on a process pool, and their time gates bound the
sum of the replicates' own times, the same work as a serial loop.
"""


import multiprocessing
import os
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES, make_instance, relerr
from oracle import DenseJoint
from scipy.optimize import minimize, minimize_scalar
from scipy.stats import norm



from dfgp.baselines import LocalKrigeSettings
from dfgp.cv import HoldoutPlan, run_cv
from dfgp.dynamics import (filter_pass, predict_filter, predict_smooth,
                           smoother_pass)
from dfgp.estimate import (EstimatorConfig, _gamma_objective, e_step,
                           init_params, m_step, run_estimator)
from dfgp.model import DEFAULT_COVARIATES
from dfgp.scoring import crps_gaussian, rmspe
from dfgp.synth import InstrumentSpec, ScenarioConfig, scenario_data


def _report(criterion: str, ok: bool, detail: str, seconds: float) -> None:
    # conftest prints the collected lines in pytest's terminal summary
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} "
                            f"({detail}; {seconds:.1f}s)")
    assert ok, f"{criterion}: {detail}"


def _replicates(rep, seeds):
    """[(statistics, seconds)] of ``rep(seed)`` per seed, in seed order, from
    a pool of spawned processes, one per CPU this process may run on and no
    more than there are seeds.  ``rep`` must be a module-level function; each
    replicate times itself, so the sum of the seconds is the serial work."""
    workers = min(len(os.sched_getaffinity(0)), len(seeds))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(rep, seeds))


def _instance_catalog():
    """50+ random instances with N <= 64, r <= 5, T <= 4."""
    specs = []
    for seed in range(14):
        specs.append(dict(seed=seed))                                  # 3x3
    for seed in range(14, 26):
        specs.append(dict(seed=seed, nx=5, ny=4, T=4, r_counts=(4,)))  # N=20
    for seed in range(26, 38):
        specs.append(dict(seed=seed, nx=8, ny=8, T=2, r_counts=(5,)))  # N=64
    for seed in range(38, 46):
        specs.append(dict(seed=seed, nx=6, ny=4, T=4, r_counts=(2,),
                          empty_times=(2,)))
    mask = np.ones(36, dtype=bool)
    mask[[0, 7, 35]] = False
    for seed in range(46, 52):
        specs.append(dict(seed=seed, nx=6, ny=6, T=3, r_counts=(4,), mask=mask))
    return [make_instance(**s) for s in specs]


@pytest.fixture(scope="module")
def catalog():
    return _instance_catalog()


def test_criterion_1_dense_oracle_equivalence(catalog):
    t0 = time.time()
    worst = 0.0
    for data, params in catalog:
        T = params.u
        pred = data.structure.valid_idx
        nodes = np.arange(data.structure.n)
        dj = DenseJoint(data, params)
        filt = filter_pass(data, params, pred_bau=pred, want_variance=True)
        sm = smoother_pass(filt, params)
        mT, cT = dj.posterior(upto=T)
        for t in range(1, T + 1):
            m, c = dj.posterior(upto=t)
            st = filt.states[t - 1]
            worst = max(worst, relerr(st.eta[:, 0], m[dj.eta_slice(t)]))
            worst = max(worst, relerr(st.P, c[dj.eta_slice(t), dj.eta_slice(t)]))
            fld = predict_filter(filt, data, params, t, pred)
            mu, se = dj.predict_field(t, nodes, upto=t)
            worst = max(worst, relerr(fld.mean, mu), relerr(fld.stderr, se))
            ss = sm.states[t - 1]
            worst = max(worst, relerr(ss.eta[:, 0], mT[dj.eta_slice(t)]))
            worst = max(worst, relerr(ss.P, cT[dj.eta_slice(t), dj.eta_slice(t)]))
            worst = max(worst, relerr(ss.lag1, cT[dj.eta_slice(t), dj.eta_slice(t - 1)]))
            fls = predict_smooth(sm, data, params, t, pred)
            mus, ses = dj.predict_field(t, nodes, upto=T)
            worst = max(worst, relerr(fls.mean, mus), relerr(fls.stderr, ses))
    dt = time.time() - t0
    _report("1 dense-oracle equivalence", worst < 1e-6 and dt < 120,
            f"{len(catalog)} instances, worst rel err {worst:.2e}", dt)


def test_criterion_2_likelihood_equivalence(catalog):
    t0 = time.time()
    worst = 0.0
    for data, params in catalog:
        dense = DenseJoint(data, params).neg2loglik()
        got = filter_pass(data, params).neg2loglik
        worst = max(worst, abs(got - dense) / max(abs(dense), 1e-12))
    dt = time.time() - t0
    _report("2 likelihood equivalence", worst < 1e-8 and dt < 60,
            f"worst rel err {worst:.2e}", dt)


def test_criterion_3_exact_em_monotonicity():
    t0 = time.time()
    worst_increase = -np.inf
    for seed in range(10):
        data, _ = make_instance(seed, nx=4, ny=3, T=3)
        cfg = EstimatorConfig(mode="exact", seed=seed)
        params = init_params(data)
        rng = np.random.default_rng(seed)
        trace = []
        for _ in range(50):
            stats = e_step(data, params, cfg, rng)
            trace.append(stats.neg2loglik)
            params = m_step(stats, data, params, cfg)
            np.linalg.cholesky(params.K0)
            np.linalg.cholesky(np.asarray(params.U))
        worst_increase = max(worst_increase, float(np.diff(trace).max()))
    dt = time.time() - t0
    _report("3 exact-EM monotonicity", worst_increase <= 1e-9 and dt < 300,
            f"10 instances x 50 iters, worst increase {worst_increase:.2e}", dt)


def test_criterion_4_m_step_correctness():
    t0 = time.time()
    data, params = make_instance(2)
    cfg = EstimatorConfig(mode="exact")
    stats = e_step(data, params, cfg, np.random.default_rng(0))
    new = m_step(stats, data, params, cfg)
    r, u = params.r, params.u
    worst = 0.0

    def q_meas_beta(b, t):
        slc = data.slices[t - 1]
        v = slc.v_diag(params.sigma2_eps[t - 1])
        res = (slc.z - slc.X @ b - slc.S @ stats.eta_mean[t]
               - slc.B @ stats.xi_mean[t - 1])
        return float(res @ (res / v))

    for t in range(1, u + 1):
        opt = minimize(q_meas_beta, new.beta[t - 1], args=(t,), method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14})
        worst = max(worst, relerr(new.beta[t - 1], opt.x))

    def q_sigma(log_s, t, k):
        slc = data.slices[t - 1]
        rows = slc.instrument_rows[k]
        v = np.exp(log_s) * slc.v_factors[rows]
        res = (slc.z - slc.X @ new.beta[t - 1] - slc.S @ stats.eta_mean[t]
               - slc.B @ stats.xi_mean[t - 1])[rows]
        trace_term = stats.meas_trace[t - 1, k - 1] / np.exp(log_s)
        return float(res @ (res / v)) + trace_term + res.size * log_s

    for t in (1, u):
        for k in (1, 2):
            opt = minimize_scalar(q_sigma, bounds=(-12, 6), args=(t, k),
                                  method="bounded", options={"xatol": 1e-13})
            worst = max(worst, abs(np.exp(opt.x) - new.sigma2_eps[t - 1, k - 1])
                        / new.sigma2_eps[t - 1, k - 1])

    def tril_pack(m):
        return m[np.tril_indices(r)]

    def tril_unpack(v):
        m = np.zeros((r, r))
        m[np.tril_indices(r)] = v
        return m @ m.T

    def q_k0(v):
        k0 = tril_unpack(v) + 1e-12 * np.eye(r)
        sign, ld = np.linalg.slogdet(k0)
        if sign <= 0:
            return 1e12
        return float(ld + np.trace(np.linalg.solve(k0, stats.K[0])))

    opt = minimize(q_k0, tril_pack(np.linalg.cholesky(new.K0)), method="Nelder-Mead",
                   options={"maxfev": 20000, "xatol": 1e-12, "fatol": 1e-14})
    worst = max(worst, relerr(tril_unpack(opt.x), new.K0))

    def q_h(hflat):
        H = hflat.reshape(r, r)
        Uin = np.linalg.inv(np.asarray(new.U))
        tot = 0.0
        for t in range(1, u + 1):
            tot += np.trace(Uin @ (stats.K[t] - H @ stats.L[t - 1].T
                                   - stats.L[t - 1] @ H.T + H @ stats.K[t - 1] @ H.T))
        return float(tot)

    opt = minimize(q_h, np.asarray(new.H).ravel(), method="BFGS", tol=1e-14)
    worst = max(worst, relerr(opt.x.reshape(r, r), np.asarray(new.H)))

    def q_u(v):
        U = tril_unpack(v) + 1e-12 * np.eye(r)
        sign, ld = np.linalg.slogdet(U)
        if sign <= 0:
            return 1e12
        H = np.asarray(new.H)
        acc = np.zeros((r, r))
        for t in range(1, u + 1):
            acc += (stats.K[t] - H @ stats.L[t - 1].T - stats.L[t - 1] @ H.T
                    + H @ stats.K[t - 1] @ H.T)
        return float(u * ld + np.trace(np.linalg.solve(U, acc)))

    opt = minimize(q_u, tril_pack(np.linalg.cholesky(np.asarray(new.U))),
                   method="Nelder-Mead",
                   options={"maxfev": 20000, "xatol": 1e-12, "fatol": 1e-14})
    worst = max(worst, relerr(tril_unpack(opt.x), np.asarray(new.U)))

    nv = data.structure.n
    for t in range(1, u + 1):
        gamma_old = params.car[t - 1].gamma

        def q_tau(log_tau, t=t, g=gamma_old):
            quad = stats.xi_quad_deg[t - 1] - g * stats.xi_quad_adj[t - 1]
            return quad / np.exp(log_tau) + nv * log_tau

        opt = minimize_scalar(q_tau, bounds=(-16, 6), method="bounded",
                              options={"xatol": 1e-13})
        worst = max(worst, abs(np.exp(opt.x) - new.car[t - 1].tau2)
                    / new.car[t - 1].tau2)

        grid = np.arange(0.0, 0.999999, 1e-3)
        gv = [_gamma_objective(g, stats.xi_quad_adj[t - 1], new.car[t - 1].tau2,
                               data.structure) for g in grid]
        gbest = grid[int(np.argmin(gv))]
        assert abs(new.car[t - 1].gamma - gbest) <= 1e-3 + 1e-9

    dt = time.time() - t0
    _report("4 M-step correctness", worst < 1e-4 and dt < 120,
            f"worst block rel err {worst:.2e}; gamma within one 1e-3 grid step", dt)


def _recovery_rep(seed):
    """(|gamma error|, sigma2 relative errors) of one SEM fit, and its seconds."""
    t0 = time.perf_counter()
    true_gamma, true_sig = 0.75, np.array([0.25, 0.04])
    cfg = ScenarioConfig(seed=seed)      # defaults: 40x40=1600, T=8, r=9
    truth, _obs, data = scenario_data(cfg)
    est = EstimatorConfig(mode="sem", max_iter=150, seed=seed + 1,
                          nugget_time_invariant=True)
    res = run_estimator(data, est)
    g = float(np.mean([c.gamma for c in res.params.car]))
    stats = (abs(g - true_gamma), np.abs(res.params.sigma2_eps[0] / true_sig - 1.0))
    return stats, time.perf_counter() - t0


@pytest.mark.slow
def test_criterion_5_parameter_recovery():
    reps = _replicates(_recovery_rep, (101, 202, 303, 404, 505))
    gam_err, sig_rel = zip(*(stats for stats, _s in reps))
    med_g = float(np.median(gam_err))
    med_s = np.median(np.asarray(sig_rel), axis=0)
    dt = sum(seconds for _stats, seconds in reps)   # the serial work, not wall time
    ok = med_g <= 0.15 and (med_s <= 0.30).all() and dt < 1800
    _report("5 parameter recovery",
            ok, f"median |gamma err| {med_g:.3f} (<=0.15), "
                f"median sigma2 rel err {np.round(med_s, 3)} (<=0.30)", dt)


def _ordering_rep(seed):
    """Holdout RMSPE and CRPS of DFGP and the fixed-rank model under both
    protocols, and the replicate's seconds."""
    t0 = time.perf_counter()
    cfg = ScenarioConfig(
        nx=20, ny=20, T=8, basis_counts=(9,), seed=seed,
        h_diag=0.95, u_scale=1.5, gamma=0.8, tau2=0.4,
        instruments=(InstrumentSpec(1, 0.2, swath_width=8, swath_period=16,
                                    swath_shift=5, drop_rate=0.5),
                     InstrumentSpec(4, 0.04, swath_width=2, swath_period=5,
                                    swath_shift=2, drop_rate=0.2)))
    truth, obs, _ = scenario_data(cfg)
    plan = HoldoutPlan(x0=5.0, x1=10.0, y0=5.0, y1=15.0,
                       t_first=2, t_last=7, fraction=0.1, seed=seed)
    out = {}
    for proto, tag, iters in (("filtering", "F", 25), ("smoothing", "S", 150)):
        est = EstimatorConfig(mode="sem", max_iter=iters, seed=seed,
                              nugget_time_invariant=True)
        res = run_cv(obs, truth.grid, truth.basis, truth.structure, plan,
                     methods=("dfgp", "lowrank"), protocol=proto, est_config=est,
                     lk_settings=LocalKrigeSettings(k=100), covariates=DEFAULT_COVARIATES)
        for row in res.rows:
            if row.time_index == "all" and row.subset == "all":
                key = ("dfgp" if row.method == "dfgp" else "fr") + tag
                out[key + "_rmspe"] = row.rmspe
                out[key + "_crps"] = row.crps
    return out, time.perf_counter() - t0


@pytest.mark.slow
def test_criterion_6_directional_orderings():
    reps = _replicates(_ordering_rep, range(4000, 4020))
    acc = {}
    for rep, _seconds in reps:
        for k, v in rep.items():
            acc.setdefault(k, []).append(v)
    m = {k: float(np.mean(v)) for k, v in acc.items()}
    checks = [
        m["dfgpF_rmspe"] < m["frF_rmspe"],
        m["dfgpS_rmspe"] < m["frS_rmspe"],
        m["dfgpS_rmspe"] <= m["dfgpF_rmspe"],
        m["dfgpF_crps"] < m["frF_crps"],
        m["dfgpS_crps"] < m["frS_crps"],
        m["dfgpS_crps"] <= m["dfgpF_crps"],
    ]
    dt = sum(seconds for _rep, seconds in reps)   # the serial work, not wall time
    detail = (f"RMSPE dfgpF {m['dfgpF_rmspe']:.3f} frF {m['frF_rmspe']:.3f} "
              f"dfgpS {m['dfgpS_rmspe']:.3f} frS {m['frS_rmspe']:.3f}; "
              f"CRPS dfgpF {m['dfgpF_crps']:.3f} frF {m['frF_crps']:.3f} "
              f"dfgpS {m['dfgpS_crps']:.3f} frS {m['frS_crps']:.3f}")
    _report("6 directional orderings", all(checks) and dt < 3600, detail, dt)


def test_criterion_7_scoring():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(0)
    n = 10**6
    for mu in (-1.0, 0.0, 2.0):
        for sigma in (0.5, 1.0, 2.0):
            for y in (-2.0, 0.0, 1.5):
                lo = min(mu - 9 * sigma, y - 2 * sigma)
                hi = max(mu + 9 * sigma, y + 2 * sigma)
                x = lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n
                integrand = (norm.cdf((x - mu) / sigma) - (x >= y)) ** 2
                ref = (hi - lo) * integrand.mean()
                worst = max(worst, abs(crps_gaussian(mu, sigma, y) - ref))
    assert rmspe([3.0, 4.0], [0.0, 0.0]) == np.sqrt(12.5)
    assert rmspe([1.0, 2.0], [1.0, 2.0]) == 0.0
    dt = time.time() - t0
    _report("7 scoring", worst < 1e-3 and dt < 60,
            f"CRPS worst |closed form - MC| {worst:.2e}; RMSPE hand cases exact", dt)


@pytest.mark.slow
def test_criterion_8_scalability_smoke():
    t0 = time.time()
    cfg = ScenarioConfig(
        nx=500, ny=500, T=8, basis_counts=(9, 25, 65), seed=7,
        beta=(1.0, 0.01, -2e-5),
        h_diag=0.9, u_scale=0.5, gamma=0.75, tau2=0.5,
        instruments=(InstrumentSpec(1, 0.2, swath_width=120, swath_period=260,
                                    swath_shift=90, drop_rate=0.3),
                     InstrumentSpec(4, 0.04, drop_rate=0.1)))
    truth, _obs, data = scenario_data(cfg)
    assert truth.grid.n_bau == 250_000 and truth.basis.r == 99
    pred = np.random.default_rng(0).choice(truth.structure.valid_idx, size=50,
                                           replace=False)
    tracemalloc.start()
    filt = filter_pass(data, truth.params, pred_bau=pred, want_variance=True)
    sm = smoother_pass(filt, truth.params)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    fld = predict_smooth(sm, data, truth.params, 4, pred)
    assert np.isfinite(fld.mean).all() and np.isfinite(fld.stderr).all()
    n = truth.grid.n_bau
    dense_nxn = 8 * n * n
    dt = time.time() - t0
    ok = dt < 1800 and peak < 0.02 * dense_nxn
    _report("8 scalability smoke", ok,
            f"N=250000, T=8, r=99 in {dt/60:.1f} min; "
            f"peak traced alloc {peak/1e6:.0f} MB vs dense NxN {dense_nxn/1e9:.0f} GB",
            dt)
