import dataclasses

import numpy as np
import pytest
from conftest import make_instance, make_observations
from oracle import DenseJoint

from dfgp import car as car_mod
from dfgp import dynamics
from dfgp import estimate as estimate_mod
from dfgp.car import GAMMA_MAX, CARParams, sample_car
from dfgp.estimate import (EstimatorConfig, SufficientStats, _gamma_objective, e_step,
                           fit_filtering_sequence, init_params, m_step, optimize_gamma,
                           run_estimator)
from dfgp.synth import ScenarioConfig, scenario_data



class TestEStep:
    def test_prior_moments_without_data(self):
        # H=0, U=K0, no data: K_t = K0 for all t, L_t = 0
        data, params = make_instance(5, T=3, empty_times=(1, 2, 3))
        params = dataclasses.replace(params, H=np.zeros((params.r, params.r)),
                                     U=params.K0.copy())
        cfg = EstimatorConfig(mode="exact")
        stats = e_step(data, params, cfg, np.random.default_rng(0))
        for t in range(params.u + 1):
            assert np.allclose(stats.K[t], params.K0)
        for t in range(params.u):
            assert np.allclose(stats.L[t], 0.0)

    def test_sem_reproducible(self):
        data, params = make_instance(3)
        cfg = EstimatorConfig(mode="sem", seed=0, draws=2)
        a = e_step(data, params, cfg, np.random.default_rng(11))
        b = e_step(data, params, cfg, np.random.default_rng(11))
        for f in dataclasses.fields(SufficientStats):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
        c = e_step(data, params, cfg, np.random.default_rng(12))
        assert not np.array_equal(a.meas_trace, c.meas_trace)

    def test_sem_draws_deterministic_given_seed(self):
        # the filter-pass draws e = F_t^{-1} w themselves, at every step,
        # one with no records included
        data, params = make_instance(0, empty_times=(2,))

        def draws(seed):
            spread = estimate_mod._DrawnSpread(data, params, 3, np.random.default_rng(seed))
            dynamics.filter_pass(data, params, on_factor=spread)
            return spread.e

        a, b, c = draws(3), draws(3), draws(4)
        assert sorted(a) == list(range(1, params.u + 1))
        for t in a:
            assert a[t].shape == (data.structure.n, 3)
            assert np.array_equal(a[t], b[t]), t
            assert not np.array_equal(a[t], c[t]), t

    @pytest.mark.parametrize("empty_times", [(), (2,)], ids=["observed", "empty-t2"])
    def test_exact_factors_each_step_once(self, monkeypatch, empty_times):
        # the spread reads the filter pass's own factor of F_t, which is Q_t
        # at a step without records
        data, params = make_instance(4, T=3, empty_times=empty_times)
        made = []
        monkeypatch.setattr(dynamics, "SparseFactor",
                            lambda *a: made.append(1) or car_mod.SparseFactor(*a))
        e_step(data, params, EstimatorConfig(mode="exact"), np.random.default_rng(0))
        assert len(made) == params.u

    @pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
    def test_sem_factors_d_minus_gamma_e_once_per_gamma(self, monkeypatch, masked):
        # four steps sharing two gammas: the likelihood's log-determinants
        # factor D - gamma E once per gamma, and drawing needs no such factor
        mask = None
        if masked:
            mask = np.ones(16, dtype=bool)
            mask[5] = False
        data, params = make_instance(2, nx=4, ny=4, T=4, mask=mask)
        car = params.car
        params = dataclasses.replace(params, car=(car[0], car[1], car[0], car[0]))
        assert data.structure.closed_form != masked
        made = []
        real = car_mod.CARStructure.factor
        monkeypatch.setattr(car_mod.CARStructure, "factor",
                            lambda self, gamma: made.append(gamma) or real(self, gamma))
        e_step(data, params, EstimatorConfig(mode="sem", draws=2), np.random.default_rng(5))
        assert sorted(made) == sorted([car[0].gamma, car[1].gamma])

    def test_sem_matches_dense_posterior(self):
        # xi_mean is the smoothed mean, exact mode's bit for bit.  The rest
        # are m'Mm plus draw averages of Gaussian quadratic forms y'My with
        # y ~ N(0, C): mean tr(MC), sd sqrt(2 tr((MC)^2) / n).  C is the
        # posterior covariance of xi_t, or of (eta_t, xi_t) for the rows of
        # Cov(S eta + B xi | Z) in meas_trace.
        data, params = make_instance(4, T=2)
        ndraws = 4000
        sem = e_step(data, params, EstimatorConfig(mode="sem", draws=ndraws),
                     np.random.default_rng(1))
        exact = e_step(data, params, EstimatorConfig(mode="exact"), np.random.default_rng(0))
        assert np.array_equal(sem.xi_mean, exact.xi_mean)
        want = _dense_e_step(data, params)
        dj = DenseJoint(data, params)
        _, cov = dj.posterior()
        deg, adj = data.structure.degrees, data.structure.adjacency.toarray()

        def close(got, expect, M, C):
            sd = np.sqrt(2 * np.trace(M @ C @ M @ C) / ndraws)
            return abs(got - expect) <= 5 * sd

        for t in range(1, params.u + 1):
            es, xs = dj.eta_slice(t), dj.xi_slice(t)
            C = cov[xs, xs]
            assert close(sem.xi_quad_deg[t - 1], want.xi_quad_deg[t - 1], np.diag(deg), C)
            assert close(sem.xi_quad_adj[t - 1], want.xi_quad_adj[t - 1], adj, C)
            idx = np.r_[es.start:es.stop, xs.start:xs.stop]
            slc = data.slices[t - 1]
            for k, rr in slc.instrument_rows.items():
                SB = np.hstack([slc.S[rr].toarray(), slc.B[rr].toarray()])
                M = SB.T @ (SB / slc.v_factors[rr, None])
                assert close(sem.meas_trace[t - 1, k - 1], want.meas_trace[t - 1, k - 1],
                             M, cov[np.ix_(idx, idx)]), (t, k)

    def test_sem_draws_the_prior_on_uninformative_data(self):
        # as the data lose all weight, the spread of xi_t is its prior Q_t^{-1}
        data, params = make_instance(1, v_range=(1e14, 2e14))
        ndraws = 4000
        sem = e_step(data, params, EstimatorConfig(mode="sem", draws=ndraws),
                     np.random.default_rng(0))
        dj = DenseJoint(data, params)
        deg, adj = np.diag(data.structure.degrees), data.structure.adjacency.toarray()
        assert np.abs(sem.xi_mean).max() < 1e-5
        for t in range(1, params.u + 1):
            C = dj.q_inv[t - 1]
            for M, got in ((deg, sem.xi_quad_deg[t - 1]), (adj, sem.xi_quad_adj[t - 1])):
                sd = np.sqrt(2 * np.trace(M @ C @ M @ C) / ndraws)
                assert abs(got - np.trace(M @ C)) <= 5 * sd, t

    def test_sem_interpolation_limit(self):
        # every BAU observed once with near-zero noise: S eta + B xi is pinned
        # to Z - X beta, so the smoothed means reproduce the residual and a
        # draw's spread of S eta + B xi about them is at the noise scale
        data, params = make_instance(2, k0=1, v_range=(1e-10, 2e-10))
        from dfgp.model import assemble
        rng0 = np.random.default_rng(9)
        records = [(t, 1, [i], float(rng0.standard_normal()), 1e-10)
                   for t in range(1, params.u + 1) for i in range(data.grid.n_bau)]
        data = assemble(make_observations(records, params.u), data.grid, data.basis,
                        data.structure, covariates=("1", "y"))
        params = dataclasses.replace(params, sigma2_eps=params.sigma2_eps[:, :1])
        sem = e_step(data, params, EstimatorConfig(mode="sem"), np.random.default_rng(1))
        for t in range(1, params.u + 1):
            slc = data.slices[t - 1]
            fitted = slc.S @ sem.eta_mean[t] + slc.B @ sem.xi_mean[t - 1]
            resid = slc.z - slc.X @ params.beta[t - 1]
            assert np.abs(fitted - resid).max() < 1e-3
            # sum over records of (spread / noise variance factor), each
            # at most sigma2 in expectation: chi-square-sized, not 1e10
            assert sem.meas_trace[t - 1, 0] < 10 * slc.n_obs * params.sigma2_eps[t - 1, 0]

    def test_exact_vs_sem_averaged_agree(self):
        data, params = make_instance(4, T=2)
        exact = e_step(data, params, EstimatorConfig(mode="exact"),
                       np.random.default_rng(0))
        sem = e_step(data, params, EstimatorConfig(mode="sem", draws=800),
                     np.random.default_rng(1))
        dj = DenseJoint(data, params)
        _, cov = dj.posterior()
        for t in range(1, params.u + 1):
            sd = np.sqrt(np.diag(cov[dj.xi_slice(t), dj.xi_slice(t)]) / 800)
            diff = np.abs(sem.xi_mean[t - 1] - exact.xi_mean[t - 1])
            assert (diff <= 6 * sd).all()
        # quadratic statistics agree within a loose MC band
        assert np.allclose(sem.xi_quad_deg, exact.xi_quad_deg, rtol=0.25)

    def test_sem_spread_term_matches_dense(self):
        # SEM's meas_trace is the draws' spread of S eta + B xi per record:
        # sum over rows of diag([S B] Cov((eta_t, xi_t) | Z) [S B]') / v
        data, params = make_instance(4, T=2)
        ndraws = 800
        sem = e_step(data, params, EstimatorConfig(mode="sem", draws=ndraws),
                     np.random.default_rng(2))
        dj = DenseJoint(data, params)
        _, cov = dj.posterior()
        for t in range(1, params.u + 1):
            es, xs = dj.eta_slice(t), dj.xi_slice(t)
            idx = np.r_[es.start:es.stop, xs.start:xs.stop]
            slc, C = data.slices[t - 1], cov[np.ix_(idx, idx)]
            for k, rr in slc.instrument_rows.items():
                SB = np.hstack([slc.S[rr].toarray(), slc.B[rr].toarray()])
                M = SB.T @ (SB / slc.v_factors[rr, None])
                want = np.trace(M @ C)
                # the draw average of a Gaussian quadratic form: sd sqrt(2 tr((MC)^2) / n)
                sd = np.sqrt(2 * np.trace(M @ C @ M @ C) / ndraws)
                assert abs(sem.meas_trace[t - 1, k - 1] - want) <= 5 * sd, (t, k)

    def test_sem_on_steps_without_records(self):
        data, params = make_instance(0, T=4, empty_times=(1, 2))
        res = fit_filtering_sequence(data, EstimatorConfig(mode="sem", max_iter=2))
        assert sorted(res) == [2, 3, 4]
        assert np.array_equal(res[2].trace, [0.0, 0.0])    # no record up to u = 2
        for draws in (1, 2):
            stats = e_step(data.horizon(2), params.truncated(2),
                           EstimatorConfig(mode="sem", draws=draws), np.random.default_rng(0))
            assert not stats.meas_trace.any() and np.isfinite(stats.xi_quad_deg).all()

    def test_exact_mode_above_dense_cap(self):
        data, params = make_instance(0, nx=17, ny=16)     # N = 272 > DENSE_N_CAP
        stats = e_step(data, params, EstimatorConfig(mode="exact"), np.random.default_rng(0))
        for f in dataclasses.fields(stats):
            assert np.isfinite(getattr(stats, f.name)).all()
        for k in stats.K:
            np.linalg.cholesky(k)
        expect = dynamics.filter_pass(data, params).neg2loglik
        assert stats.neg2loglik == expect

    def test_fixed_rank_same_in_both_modes(self):
        # nothing is drawn in the fixed-rank model, so SEM and exact EM agree,
        # meas_trace (the rows of S P S' / v) included
        data, params = make_instance(4, T=3, empty_times=(2,))
        params = dataclasses.replace(params, car=())
        sem, exact = (e_step(data, params, EstimatorConfig(mode=mode), np.random.default_rng(0))
                      for mode in ("sem", "exact"))
        assert sem.meas_trace.any()
        for f in dataclasses.fields(SufficientStats):
            assert np.array_equal(getattr(sem, f.name), getattr(exact, f.name)), f.name

    def test_exact_mode_refuses_gamma_zero(self):
        data, params = make_instance(1)
        params = dataclasses.replace(params, car=(CARParams(0.0, 1.0),) + params.car[1:])
        with pytest.raises(ValueError, match="gamma > 0"):
            e_step(data, params, EstimatorConfig(mode="exact"), np.random.default_rng(0))


def _dense_e_step(data, params):
    """SufficientStats from the dense joint posterior (DenseJoint)."""
    u = params.u
    deg, adj = data.structure.degrees, data.structure.adjacency
    dj = DenseJoint(data, params)
    mean, cov = dj.posterior()
    eta = np.vstack([mean[dj.eta_slice(t)] for t in range(u + 1)])
    K = np.stack([cov[dj.eta_slice(t), dj.eta_slice(t)] + np.outer(eta[t], eta[t])
                  for t in range(u + 1)])
    L = np.stack([cov[dj.eta_slice(t), dj.eta_slice(t - 1)] + np.outer(eta[t], eta[t - 1])
                  for t in range(1, u + 1)])
    xi = np.vstack([mean[dj.xi_slice(t)] for t in range(1, u + 1)])
    qd, qa = np.zeros(u), np.zeros(u)
    trace = np.zeros((u, params.n_instruments))
    for t in range(1, u + 1):
        es, xs, m = dj.eta_slice(t), dj.xi_slice(t), xi[t - 1]
        qd[t - 1] = m @ (deg * m) + deg @ np.diag(cov[xs, xs])
        qa[t - 1] = m @ (adj @ m) + adj.multiply(cov[xs, xs]).sum()
        slc = data.slices[t - 1]
        if slc.n_obs:
            SB = np.hstack([slc.S.toarray(), slc.B.toarray()])
            idx = np.r_[np.arange(es.start, es.stop), np.arange(xs.start, xs.stop)]
            rows = np.einsum("ij,jk,ik->i", SB, cov[np.ix_(idx, idx)], SB)
            for k, rr in slc.instrument_rows.items():
                trace[t - 1, k - 1] = (rows[rr] / slc.v_factors[rr]).sum()
    return SufficientStats(eta, K, L, xi, qd, qa, trace, neg2loglik=dj.neg2loglik())


class TestExactEStepMatchesDense:
    """Exact EM's sparse E-step (one sweep plus F_t^{-1} by selected
    inversion) against the dense joint posterior."""

    @pytest.mark.parametrize("lowrank_only", [False, True])
    @pytest.mark.parametrize("kw", [
        dict(seed=0), dict(seed=1, nx=6, ny=5), dict(seed=2, nx=16, ny=16, r_counts=(4, 9)),
        dict(seed=3, nx=5, ny=4, mask=np.arange(20) % 7 != 3),
        dict(seed=4, empty_times=(2,)), dict(seed=5, T=1, k0=1),
    ], ids=["3x3", "6x5", "16x16-r13", "masked-5x4", "empty-t2", "T1-one-instrument"])
    def test_every_field_matches(self, kw, lowrank_only):
        # k0 = 2 (the default) adds multi-BAU footprints of 2-4 cells
        data, params = make_instance(**kw)
        if lowrank_only:
            params = dataclasses.replace(params, car=())
        got = e_step(data, params, EstimatorConfig(mode="exact"), np.random.default_rng(0))
        expect = _dense_e_step(data, params)
        for f in dataclasses.fields(SufficientStats):
            a, b = np.asarray(getattr(got, f.name)), np.asarray(getattr(expect, f.name))
            assert np.abs(a - b).max() <= 1e-10 * max(np.abs(b).max(), 1e-12), f.name


def _neg2_qsem(data, params, stats):
    """Independent direct evaluation of the SEM objective (complete-data
    likelihood at the E-step quantities), up to theta-free constants."""
    u, r = params.u, params.r
    total = 0.0
    for t in range(1, u + 1):
        slc = data.slices[t - 1]
        if slc.n_obs:
            v = slc.v_diag(params.sigma2_eps[t - 1])
            res = (slc.z - slc.X @ params.beta[t - 1]
                   - slc.S @ stats.eta_mean[t] - slc.B @ stats.xi_mean[t - 1])
            total += float(res @ (res / v)) + float(np.log(v).sum())
            for k, rows in slc.instrument_rows.items():
                total += stats.meas_trace[t - 1, k - 1] / params.sigma2_eps[t - 1, k - 1]
        U = params.U_at(t)
        H = params.H_at(t)
        total += float(np.linalg.slogdet(U)[1])
        total += float(np.trace(np.linalg.solve(
            U, stats.K[t] - H @ stats.L[t - 1].T - stats.L[t - 1] @ H.T
            + H @ stats.K[t - 1] @ H.T)))
        car = params.car[t - 1]
        quad = (stats.xi_quad_deg[t - 1] - car.gamma * stats.xi_quad_adj[t - 1])
        total += quad / car.tau2 - data.structure.precision_logdet(car)
    total += float(np.linalg.slogdet(params.K0)[1])
    total += float(np.trace(np.linalg.solve(params.K0, stats.K[0])))
    return total


class TestMStep:
    def _stats_and_prev(self, seed=2):
        data, params = make_instance(seed)
        cfg = EstimatorConfig(mode="exact")
        stats = e_step(data, params, cfg, np.random.default_rng(0))
        return data, params, cfg, stats

    def test_gls_reduces_to_ols_when_states_zero_and_v_one(self):
        data, params = make_instance(8, k0=1, v_range=(1.0, 1.0000001))
        params = dataclasses.replace(
            params, sigma2_eps=np.ones_like(params.sigma2_eps[:, :1]))
        u, r, nv = params.u, params.r, data.structure.n
        stats = SufficientStats(
            eta_mean=np.zeros((u + 1, r)), K=np.tile(np.eye(r), (u + 1, 1, 1)),
            L=np.zeros((u, r, r)), xi_mean=np.zeros((u, nv)),
            xi_quad_deg=np.ones(u), xi_quad_adj=np.zeros(u),
            meas_trace=np.zeros((u, 1)))
        new = m_step(stats, data, params, EstimatorConfig(mode="exact"))
        for t in range(1, u + 1):
            slc = data.slices[t - 1]
            ols, *_ = np.linalg.lstsq(slc.X, slc.z, rcond=None)
            assert np.allclose(new.beta[t - 1], ols, atol=1e-6)

    def test_zero_residuals_give_floor_sigma2(self):
        data, params, cfg, stats = self._stats_and_prev(9)
        for t, slc in enumerate(data.slices, 1):
            slc.z = (slc.X @ params.beta[t - 1] + slc.S @ stats.eta_mean[t]
                     + slc.B @ stats.xi_mean[t - 1])
        stats2 = dataclasses.replace(stats, meas_trace=np.zeros_like(stats.meas_trace))
        new = m_step(stats2, data, params, cfg)
        fresh = e_step(data, params, cfg, np.random.default_rng(0))
        # with residuals forced to zero and no trace term, sigma2 hits the floor
        assert (new.sigma2_eps <= 1e-10).all()
        del fresh

    def test_u_equals_1_h_update(self):
        data, params = make_instance(10, T=1)
        cfg = EstimatorConfig(mode="exact")
        stats = e_step(data, params, cfg, np.random.default_rng(0))
        new = m_step(stats, data, params, cfg)
        expect = stats.L[0] @ np.linalg.inv(stats.K[0])
        assert np.allclose(np.asarray(new.H), expect)

    def test_gamma_objective_at_zero(self):
        data, params, cfg, stats = self._stats_and_prev(3)
        g0 = _gamma_objective(0.0, stats.xi_quad_adj[0], 1.3, data.structure)
        assert abs(g0) <= 1e-12   # -0*quad - ln|I| = 0, up to the curve's rounding

    def test_each_block_maximizes_qsem(self):
        from scipy.optimize import minimize, minimize_scalar
        data, params, cfg, stats = self._stats_and_prev(2)
        new = m_step(stats, data, params, cfg)
        r, u = params.r, params.u

        # beta block (holding states, sigma2 at previous values)
        for t in (1,):
            def f_beta(b):
                trial = dataclasses.replace(new, beta=np.vstack(
                    [b if s == t - 1 else new.beta[s] for s in range(u)]))
                return _neg2_qsem(data, dataclasses.replace(
                    trial, sigma2_eps=params.sigma2_eps), stats)
            opt = minimize(f_beta, new.beta[t - 1], method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12})
            assert f_beta(new.beta[t - 1]) <= opt.fun + 1e-8

        # H block: compare objective value at closed form vs numeric optimum
        def f_h(hflat):
            return _neg2_qsem(data, dataclasses.replace(
                new, H=hflat.reshape(r, r)), stats)
        opt = minimize(f_h, np.asarray(new.H).ravel(), method="BFGS", tol=1e-12)
        assert f_h(np.asarray(new.H).ravel()) <= opt.fun + 1e-6

        # tau2 block at gamma held to the previous iterate
        t = 1
        def f_tau(log_tau):
            car = list(new.car)
            car[t - 1] = CARParams(params.car[t - 1].gamma, float(np.exp(log_tau)))
            return _neg2_qsem(data, dataclasses.replace(new, car=tuple(car)), stats)
        opt = minimize_scalar(f_tau, bounds=(-12, 6), method="bounded",
                              options={"xatol": 1e-12})
        assert abs(np.exp(opt.x) - new.car[t - 1].tau2) / new.car[t - 1].tau2 < 1e-4

        # gamma block matches a fine grid search of the objective
        grid = np.arange(0.0, 0.999999, 1e-3)
        gv = [_gamma_objective(g, stats.xi_quad_adj[t - 1], new.car[t - 1].tau2,
                               data.structure) for g in grid]
        gbest = grid[int(np.argmin(gv))]
        assert abs(new.car[t - 1].gamma - gbest) <= 1e-3 + 1e-9

    def test_nugget_time_invariant_pools(self):
        data, params, _, stats = self._stats_and_prev(4)
        cfg = EstimatorConfig(mode="exact", nugget_time_invariant=True)
        new = m_step(stats, data, params, cfg)
        assert np.allclose(new.sigma2_eps, new.sigma2_eps[0])

    def test_blockwise_hu(self):
        data, params, _, stats = self._stats_and_prev(6)
        cfg = EstimatorConfig(mode="exact", hu_blocks=(1, 3))
        new = m_step(stats, data, params, cfg)
        H = np.asarray(new.H)
        assert H.shape == (3, params.r, params.r)
        assert np.array_equal(H[1], H[2])       # block 2 spans t in {2, 3}
        h1 = stats.L[0] @ np.linalg.inv(stats.K[0])
        assert np.allclose(H[0], h1)
        h2 = (stats.L[1] + stats.L[2]) @ np.linalg.inv(stats.K[1] + stats.K[2])
        assert np.allclose(H[1], h2)


class TestRunEstimator:
    def test_exact_em_monotone(self):
        data, _ = make_instance(0)
        cfg = EstimatorConfig(mode="exact", max_iter=25, seed=0,
                              tol_loglik=1e-14, tol_param=1e-14)
        res = run_estimator(data, cfg)
        assert (np.diff(res.trace) <= 1e-9).all()

    def test_deterministic(self):
        data, _ = make_instance(1)
        cfg = EstimatorConfig(mode="sem", max_iter=8, seed=5)
        a = run_estimator(data, cfg)
        b = run_estimator(data, cfg)
        assert np.array_equal(a.trace, b.trace)
        assert np.array_equal(a.params.flat(), b.params.flat())

    def test_trace_matches_neg2_loglik_of_iterates(self):
        data, _ = make_instance(2)
        cfg = EstimatorConfig(mode="exact", max_iter=3, seed=0)
        res = run_estimator(data, cfg)
        start = init_params(data)
        expect = dynamics.filter_pass(data, start).neg2loglik
        assert res.trace[0] == pytest.approx(expect, rel=1e-8)

    def test_lowrank_mode_keeps_car_fixed(self):
        # the fixed-rank fit drops the start's CAR block and never grows one
        data, _ = make_instance(3)
        cfg = EstimatorConfig(mode="sem", max_iter=5, seed=1, lowrank_only=True)
        res = run_estimator(data, cfg, init=init_params(data))
        assert res.params.car == () and res.params_last.car == ()

    def test_start_without_car_block_needs_lowrank_only(self):
        data, _ = make_instance(3)
        start = dataclasses.replace(init_params(data), car=())
        with pytest.raises(ValueError, match="no CAR block .* but lowrank_only is off"):
            run_estimator(data, EstimatorConfig(mode="sem", max_iter=2), init=start)
        res = run_estimator(data, EstimatorConfig(mode="sem", max_iter=2, lowrank_only=True),
                            init=start)
        assert res.params.car == ()

    def test_pd_preserved_every_iteration(self):
        data, _ = make_instance(4)
        cfg = EstimatorConfig(mode="exact", max_iter=20, seed=0,
                              tol_loglik=1e-14, tol_param=1e-14)
        res = run_estimator(data, cfg)
        np.linalg.cholesky(res.params_last.K0)
        np.linalg.cholesky(np.asarray(res.params_last.U))

    @pytest.mark.parametrize("blocks, message", [
        ((0, 4), r"hu_blocks must be >= 1"),
        ((-1, 4), r"hu_blocks must be >= 1"),
        ((2, 3), r"hu_blocks must end at the horizon 4"),
    ], ids=["zero", "negative", "short-of-horizon"])
    def test_bad_hu_blocks_fail_before_any_e_step(self, monkeypatch, blocks, message):
        data, _ = make_instance(6, nx=8, ny=8, T=4)
        calls = []
        e_step = estimate_mod.e_step
        monkeypatch.setattr(estimate_mod, "e_step", lambda *a: calls.append(1) or e_step(*a))
        with pytest.raises(ValueError, match=message):
            run_estimator(data, EstimatorConfig(mode="exact", max_iter=1, hu_blocks=blocks))
        assert calls == []
        run_estimator(data, EstimatorConfig(mode="exact", max_iter=1, hu_blocks=(2, 4)))
        assert calls == [1]   # the count sees e_step calls


class TestSparseGammaSearch:
    """The gamma search runs on the cached log-det curve."""

    @staticmethod
    def _data():
        _truth, _obs, data = scenario_data(ScenarioConfig(nx=48, ny=48, T=3, seed=3))
        return data

    def test_factorization_budget(self, monkeypatch):
        data = self._data()
        assert data.structure.closed_form
        calls = []

        def counting(where, real):
            def factorize(*args):
                calls.append(where)
                return real(*args)
            return factorize

        monkeypatch.setattr(car_mod, "sparse_factorize",
                            counting("D - gamma E", car_mod.sparse_factorize))
        monkeypatch.setattr(dynamics, "SparseFactor", counting("F_t", car_mod.SparseFactor))
        res = run_estimator(data, EstimatorConfig(mode="sem", max_iter=3, seed=0))
        u = len(data.slices)
        assert res.n_iter == 3
        # the CAR prior of a full grid (gamma curve, draws, likelihood) is in
        # closed form: the only sparse factorizations are one F_t per step
        assert calls == ["F_t"] * (u * res.n_iter)

    @pytest.mark.parametrize("gamma_true", [0.3, 0.9, 0.999])
    def test_curve_search_matches_exact_search(self, gamma_true):
        from scipy.optimize import minimize_scalar
        s = self._data().structure
        x = sample_car(s, CARParams(gamma_true, 1.0), np.random.default_rng(1))
        quad_adj = float(x @ (s.adjacency @ x))
        tau2 = float(x @ (s.degrees * x) - 0.5 * quad_adj) / s.n

        def exact(g):
            return -g * quad_adj / tau2 - s.logdet_i_minus_gamma_w(g)

        grid = np.concatenate([np.linspace(0.0, 0.99, 100), 1.0 - np.geomspace(1e-2, 1e-6, 20)])
        k = int(np.argmin([exact(g) for g in grid]))
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
        best = minimize_scalar(exact, bounds=(lo, hi), method="bounded",
                               options={"xatol": 1e-12}).x
        got = optimize_gamma(s, quad_adj, tau2, 0.5)
        assert 0.0 <= got <= GAMMA_MAX
        assert abs(got - best) <= 1e-6


class TestFilteringSequence:
    def test_t2_single_fit(self):
        data, _ = make_instance(5, T=2)
        cfg = EstimatorConfig(mode="sem", max_iter=4, seed=0)
        fits = fit_filtering_sequence(data, cfg)
        assert sorted(fits) == [2]

    def test_horizons_cover_2_to_T(self):
        data, _ = make_instance(6, T=4)
        cfg = EstimatorConfig(mode="sem", max_iter=3, seed=0)
        fits = fit_filtering_sequence(data, cfg)
        assert sorted(fits) == [2, 3, 4]
        for u, res in fits.items():
            assert res.params.u == u

    def test_blockwise_hu_clipped_per_horizon(self):
        data, _ = make_instance(8, T=4)
        cfg = EstimatorConfig(mode="sem", max_iter=3, seed=0, hu_blocks=(2, 4))
        fits = fit_filtering_sequence(data, cfg)
        assert np.asarray(fits[2].params.H).ndim == 2      # single block at u=2
        assert np.asarray(fits[4].params.H).shape == (4, 2, 2)

    def test_sequence_fits_match_fits_from_init_params(self):
        # model-generated data: the sequence's starts (the previous horizon's
        # fit) and init_params settle to the same fit
        from dfgp.synth import InstrumentSpec, ScenarioConfig, scenario_data
        cfg = ScenarioConfig(nx=6, ny=6, T=3, basis_counts=(1,), seed=4,
                             instruments=(InstrumentSpec(1, 0.2),
                                          InstrumentSpec(2, 0.05)))
        _, _, data = scenario_data(cfg)
        warm = fit_filtering_sequence(
            data, EstimatorConfig(mode="exact", max_iter=300, seed=0))
        cold = {u: run_estimator(data.horizon(u), EstimatorConfig(mode="exact", max_iter=300,
                                                                   seed=0)) for u in (2, 3)}
        for u in (2, 3):
            a, b = warm[u].trace[-1], cold[u].trace[-1]
            assert abs(a - b) / max(abs(b), 1.0) < 0.01
