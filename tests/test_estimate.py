import dataclasses

import numpy as np
import pytest
from conftest import make_instance, make_observations

from dfgp import car as car_mod
from dfgp import dynamics
from dfgp import estimate as estimate_mod
from dfgp.car import DENSE_EIG_CAP, GAMMA_MAX, LOGDET_CURVE_NODES, CARParams, sample_car
from dfgp.dense import DenseJoint
from dfgp.estimate import (EstimatorConfig, SufficientStats, _gamma_objective,
                           conditional_simulate, e_step, fit_filtering_sequence,
                           init_params, m_step, optimize_gamma, run_estimator)
from dfgp.synth import ScenarioConfig, scenario_data



class TestConditionalSimulate:
    def test_deterministic_given_seed(self):
        data, params = make_instance(0)
        a = conditional_simulate(data, params, np.random.default_rng(3))
        b = conditional_simulate(data, params, np.random.default_rng(3))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_one_factor_per_gamma_keeps_draws(self, monkeypatch):
        data, params = make_instance(2, nx=4, ny=4, T=4)
        car = params.car
        params = dataclasses.replace(params, car=(car[0], car[1], car[0], car[0]))
        made = []
        real = estimate_mod.sparse_factorize
        monkeypatch.setattr(estimate_mod, "sparse_factorize",
                            lambda m: made.append(1) or real(m))
        a = conditional_simulate(data, params, np.random.default_rng(5), ndraws=2)
        assert len(made) == 2
        # a factorization per draw, as sample_car makes without a prebuilt factor
        monkeypatch.setattr(estimate_mod, "sample_car",
                            lambda s, p, rng, size=1, factor=None: sample_car(s, p, rng, size))
        b = conditional_simulate(data, params, np.random.default_rng(5), ndraws=2)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_uninformative_data_returns_prior_draw(self):
        data, params = make_instance(1, v_range=(1e14, 2e14))
        rng = np.random.default_rng(0)
        etas, xis, (filt, sm) = conditional_simulate(data, params, rng, ndraws=1)
        # correction E[x|Z] - E[x|Z*] must vanish as the data become useless
        # (scales as 1/sqrt(V): the simulated Z* carries noise of size sqrt(V))
        for t in range(1, params.u + 1):
            st = sm.states[t - 1]
            assert np.abs(st.delta[:, 0] - st.delta[:, 1]).max() < 1e-5
            assert np.abs(st.eta[:, 0] - st.eta[:, 1]).max() < 1e-5

    def test_interpolation_limit_reproduces_residual(self):
        # every BAU observed once with near-zero noise: S eta + B xi must
        # reproduce Z - X beta along the conditional draw
        data, params = make_instance(2, k0=1, v_range=(1e-10, 2e-10))
        # keep only time steps where every BAU is observed: rebuild with full cover
        from dfgp.model import assemble
        rng0 = np.random.default_rng(9)
        records = [(t, 1, [i], float(rng0.standard_normal()), 1e-10)
                   for t in range(1, params.u + 1) for i in range(data.grid.n_bau)]
        data = assemble(make_observations(records, params.u), data.grid, data.basis,
                        data.structure, covariates=("1", "y"))
        params = dataclasses.replace(params, sigma2_eps=params.sigma2_eps[:, :1])
        etas, xis, _ = conditional_simulate(data, params, np.random.default_rng(1))
        for t in range(1, params.u + 1):
            slc = data.slices[t - 1]
            fitted = slc.S @ etas[0, t] + slc.B @ xis[0, t - 1]
            resid = slc.z - slc.X @ params.beta[t - 1]
            assert np.abs(fitted - resid).max() < 1e-3

    def test_draw_mean_matches_posterior(self):
        data, params = make_instance(1, T=2)
        rng = np.random.default_rng(0)
        etas, xis, _ = conditional_simulate(data, params, rng, ndraws=3000)
        dj = DenseJoint(data, params)
        mean, cov = dj.posterior()
        for t in range(1, 3):
            ex = mean[dj.xi_slice(t)]
            se = np.sqrt(np.diag(cov[dj.xi_slice(t), dj.xi_slice(t)]) / 3000)
            assert (np.abs(xis[:, t - 1].mean(axis=0) - ex) <= 5 * se).all()
            ee = mean[dj.eta_slice(t)]
            see = np.sqrt(np.diag(cov[dj.eta_slice(t), dj.eta_slice(t)]) / 3000)
            assert (np.abs(etas[:, t].mean(axis=0) - ee) <= 5 * see).all()


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
        cfg = EstimatorConfig(mode="sem", seed=0)
        a = e_step(data, params, cfg, np.random.default_rng(11))
        b = e_step(data, params, cfg, np.random.default_rng(11))
        assert np.array_equal(a.xi_mean, b.xi_mean)
        assert np.array_equal(a.K, b.K)

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

    def test_exact_mode_refused_above_cap(self):
        data, params = make_instance(0, nx=17, ny=16)     # N = 272 > DENSE_N_CAP
        cfg = EstimatorConfig(mode="exact")
        with pytest.raises(ValueError, match="dense path refused above N=256"):
            e_step(data, params, cfg, np.random.default_rng(0))


def _neg2_qsem(data, params, stats, lowrank=False):
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
        if not lowrank:
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
        assert g0 == 0.0   # -0*quad - ln|I| = 0

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
        data, _ = make_instance(3)
        cfg = EstimatorConfig(mode="sem", max_iter=5, seed=1)
        res = run_estimator(data, cfg, lowrank_only=True)
        start = init_params(data)
        assert all(c == s for c, s in zip(res.params_last.car, start.car))

    def test_pd_preserved_every_iteration(self):
        data, _ = make_instance(4)
        cfg = EstimatorConfig(mode="exact", max_iter=20, seed=0,
                              tol_loglik=1e-14, tol_param=1e-14)
        res = run_estimator(data, cfg)
        np.linalg.cholesky(res.params_last.K0)
        np.linalg.cholesky(np.asarray(res.params_last.U))


class TestSparseGammaSearch:
    """Above DENSE_EIG_CAP the gamma search runs on the cached log-det curve."""

    @staticmethod
    def _data():
        _truth, _obs, data = scenario_data(ScenarioConfig(nx=48, ny=48, T=3, seed=3))
        assert data.structure.n > DENSE_EIG_CAP
        return data

    def test_factorization_budget(self, monkeypatch):
        data = self._data()
        calls = []
        real = car_mod.sparse_factorize

        def counting(matrix):
            calls.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(car_mod, "sparse_factorize", counting)
        monkeypatch.setattr(dynamics, "sparse_factorize", counting)
        monkeypatch.setattr(estimate_mod, "sparse_factorize", counting)
        res = run_estimator(data, EstimatorConfig(mode="sem", max_iter=3, seed=0))
        u = len(data.slices)
        assert res.n_iter == 3
        # the first E-step samples at the u equal gammas of init_params from one factor
        assert len(calls) <= LOGDET_CURVE_NODES + 2 * u * res.n_iter + 1 - (u - 1)

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
        cold = {u: run_estimator(data, EstimatorConfig(mode="exact", max_iter=300, seed=0),
                                 horizon=u) for u in (2, 3)}
        for u in (2, 3):
            a, b = warm[u].trace[-1], cold[u].trace[-1]
            assert abs(a - b) / max(abs(b), 1.0) < 0.01
