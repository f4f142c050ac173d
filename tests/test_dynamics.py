import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest
from conftest import make_instance, make_observations, relerr, stand_in_pool
from oracle import DenseJoint, build_precision

from dfgp import dynamics
from dfgp.car import SELECTED_INVERSION_MIN, SOLVE_BLOCK, SparseFactor, sparse_factorize
from dfgp.dynamics import (filter_pass, forecast_step, predict_filter,
                           predict_smooth, smoother_pass)
from dfgp.exceptions import NumericalError


class TestForecastStep:
    def test_identity_no_innovation(self):
        eta, P = np.array([[1.0], [2.0]]), np.array([[3.0, 0.1], [0.1, 2.0]])
        e2, p2 = forecast_step(eta, P, np.eye(2), np.zeros((2, 2)))
        assert np.allclose(e2, eta) and np.allclose(p2, P)

    def test_zero_mean_stays_zero(self):
        e2, _ = forecast_step(np.zeros((3, 1)), np.eye(3),
                              np.arange(9.0).reshape(3, 3), np.eye(3))
        assert np.allclose(e2, 0.0)

    def test_scalar_hand_value(self):
        _, p2 = forecast_step(np.zeros((1, 1)), np.array([[4.0]]),
                              np.array([[0.5]]), np.array([[1.0]]))
        assert p2[0, 0] == pytest.approx(2.0)


def _oracle_check(seed, **kw):
    data, params = make_instance(seed, **kw)
    T = params.u
    pred = data.structure.valid_idx
    nodes = np.arange(data.structure.n)
    dj = DenseJoint(data, params)
    filt = filter_pass(data, params, pred_bau=pred, want_variance=True)
    worst = 0.0
    for t in range(1, T + 1):
        m, c = dj.posterior(upto=t)
        st = filt.states[t - 1]
        worst = max(worst, relerr(st.eta[:, 0], m[dj.eta_slice(t)]))
        worst = max(worst, relerr(st.P, c[dj.eta_slice(t), dj.eta_slice(t)]))
        worst = max(worst, relerr(st.delta[:, 0], m[dj.xi_slice(t)]))
        worst = max(worst, relerr(st.R_diag, np.diag(c[dj.xi_slice(t), dj.xi_slice(t)])))
        worst = max(worst, relerr(-st.P @ st.psi.T, c[dj.eta_slice(t), dj.xi_slice(t)]))
        fld = predict_filter(filt, data, params, t, pred)
        mu, se = dj.predict_field(t, nodes, upto=t)
        worst = max(worst, relerr(fld.mean, mu), relerr(fld.stderr, se))
    sm = smoother_pass(filt, params)
    mT, cT = dj.posterior(upto=T)
    for t in range(1, T + 1):
        st = sm.states[t - 1]
        worst = max(worst, relerr(st.eta[:, 0], mT[dj.eta_slice(t)]))
        worst = max(worst, relerr(st.P, cT[dj.eta_slice(t), dj.eta_slice(t)]))
        worst = max(worst, relerr(st.delta[:, 0], mT[dj.xi_slice(t)]))
        worst = max(worst, relerr(st.R_diag, np.diag(cT[dj.xi_slice(t), dj.xi_slice(t)])))
        worst = max(worst, relerr(st.lag1, cT[dj.eta_slice(t), dj.eta_slice(t - 1)]))
        worst = max(worst, relerr(-st.P @ st.psi.T, cT[dj.eta_slice(t), dj.xi_slice(t)]))
        fld = predict_smooth(sm, data, params, t, pred)
        mu, se = dj.predict_field(t, nodes, upto=T)
        worst = max(worst, relerr(fld.mean, mu), relerr(fld.stderr, se))
    worst = max(worst, relerr(sm.eta0[:, 0], mT[dj.eta_slice(0)]))
    worst = max(worst, relerr(sm.P0, cT[dj.eta_slice(0), dj.eta_slice(0)]))
    return worst


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances(self, seed):
        assert _oracle_check(seed) < 1e-8

    def test_larger_instance(self):
        assert _oracle_check(123, nx=5, ny=5, T=4, r_counts=(4,)) < 1e-8

    def test_masked_grid(self):
        mask = np.ones(16, dtype=bool)
        mask[[0, 5]] = False
        assert _oracle_check(7, nx=4, ny=4, mask=mask) < 1e-8

    def test_missing_time_step(self):
        assert _oracle_check(11, T=3, empty_times=(2,)) < 1e-8

    def test_lowrank_mode_vs_dense(self):
        # the fixed-rank model is the parameter set without a CAR block
        data, params = make_instance(5)
        params = dataclasses.replace(params, car=())
        dj = DenseJoint(data, params)
        filt = filter_pass(data, params)
        sm = smoother_pass(filt, params)
        mT, cT = dj.posterior()
        for t in range(1, params.u + 1):
            assert relerr(sm.states[t - 1].eta[:, 0], mT[dj.eta_slice(t)]) < 1e-8
            assert relerr(sm.states[t - 1].P,
                          cT[dj.eta_slice(t), dj.eta_slice(t)]) < 1e-8


class TestSolvePool:
    """The solve pool only reorders independent SuperLU calls, and the
    look-ahead only moves when the next step's F is factored, so the states
    depend neither on how many threads run them nor on the look-ahead rule.
    Nor does a seeded SEM E-step, whose draws the filter pass's callback
    makes on the calling thread while the step's solves run on the pool.
    With one worker, a pool task that waited on the pool would hang here."""

    @pytest.mark.parametrize("workers", [1, 8])
    def test_states_bit_identical(self, monkeypatch, workers):
        # two blocks of columns (r = 13), an empty step; every node is
        # tracked: the 6x5 grid's 30 take unit solves, the 12x10 grid's 120 a
        # selected inversion.  The look-ahead rule is forced off for the
        # reference, then off and on.
        from dfgp.estimate import EstimatorConfig, SufficientStats, e_step
        for nx, ny in ((6, 5), (12, 10)):
            data, params = make_instance(3, nx=nx, ny=ny, T=4, r_counts=(4, 9),
                                         empty_times=(2,))
            pred = data.structure.valid_idx
            assert params.r > SOLVE_BLOCK and (pred.size < SELECTED_INVERSION_MIN) == (nx == 6)
            run = partial(filter_pass, data, params, pred_bau=pred, want_variance=True)
            sem = partial(e_step, data, params, EstimatorConfig(mode="sem", draws=3))
            monkeypatch.setattr(dynamics, "LOOKAHEAD_MAX_NNZ", 0)
            ref, ref_sem = run(), sem(np.random.default_rng(7))
            for max_nnz in (0, 10**12):
                monkeypatch.setattr(dynamics, "LOOKAHEAD_MAX_NNZ", max_nnz)
                with stand_in_pool(workers) as requests:
                    runs = [run() for _ in range(5)]  # repeats give a race more chances
                    sems = [sem(np.random.default_rng(7)) for _ in range(3)]
                assert requests
                for got in runs:
                    for a, b in zip(ref.states, got.states, strict=True):
                        for f in dataclasses.fields(a):
                            x, y = getattr(a, f.name), getattr(b, f.name)
                            assert np.array_equal(x, y), (nx, max_nnz, f.name)
                for got in sems:
                    for f in dataclasses.fields(SufficientStats):
                        x, y = getattr(ref_sem, f.name), getattr(got, f.name)
                        assert np.array_equal(x, y), (nx, max_nnz, f.name)


class TestLookAhead:
    """Factoring the next step's F ahead never factors an F twice."""

    @pytest.fixture
    def counted(self, monkeypatch):
        builds = []
        real = SparseFactor.__init__

        def counting(self, matrix, order):
            builds.append(matrix.shape[0])
            real(self, matrix, order)

        monkeypatch.setattr(SparseFactor, "__init__", counting)
        monkeypatch.setattr(dynamics, "LOOKAHEAD_MAX_NNZ", 10**12)
        return builds

    def test_filter_pass_factors_each_observed_step_once(self, counted):
        data, params = make_instance(1, nx=6, ny=5, T=5, r_counts=(4,))
        assert data.structure.closed_form and all(s.n_obs for s in data.slices)
        filter_pass(data, params, pred_bau=data.structure.valid_idx)
        assert counted == [data.structure.n] * params.u

    def test_sem_iteration_factors_each_observed_step_once(self, counted):
        from dfgp.estimate import EstimatorConfig, run_estimator
        data, params = make_instance(2, nx=8, ny=7, T=4, r_counts=(4,))
        assert data.structure.closed_form and all(s.n_obs for s in data.slices)
        run_estimator(data, EstimatorConfig(mode="sem", max_iter=1), init=params)
        assert counted == [data.structure.n] * params.u


class TestFineOrder:
    """Every F_t of a data set is factored in one nested-dissection order,
    computed on the first factorization and kept on the data."""

    def test_ordered_once_on_first_factorization(self, monkeypatch):
        from dfgp import model
        from dfgp.estimate import EstimatorConfig, run_estimator
        calls = []
        real = model.nested_dissection
        monkeypatch.setattr(model, "nested_dissection",
                            lambda *args: calls.append(1) or real(*args))
        data, params = make_instance(2, nx=8, ny=7, T=4, r_counts=(4,))
        assert calls == []              # assembling does not order
        run_estimator(data, EstimatorConfig(mode="sem", max_iter=2), init=params)
        filter_pass(data, params, pred_bau=data.structure.valid_idx, want_variance=True)
        assert calls == [1]
        order = data.fine_order.order
        assert np.array_equal(np.sort(order), np.arange(data.structure.n))


class TestHorizon:
    """``ModelData.horizon(u)`` is the data of steps 1..u, and every
    computation runs over its data's T steps."""

    @pytest.mark.parametrize("cut_first", [True, False], ids=["cut-first", "whole-first"])
    def test_shares_the_order_of_every_slice(self, monkeypatch, cut_first):
        from dfgp import model
        calls = []
        real = model.nested_dissection
        monkeypatch.setattr(model, "nested_dissection",
                            lambda *args: calls.append(1) or real(*args))
        data, _ = make_instance(2, nx=8, ny=7, T=4, r_counts=(4,))
        cut = data.horizon(2)
        first = (cut if cut_first else data).fine_order
        assert cut.fine_order is data.fine_order is first
        assert data.horizon(3).horizon(2).fine_order is first
        assert calls == [1]
        other, _ = make_instance(2, nx=8, ny=7, T=4, r_counts=(4,))
        assert np.array_equal(first.order, other.fine_order.order)

    def test_cut_holds_the_first_slices(self):
        data, _ = make_instance(5, T=4)
        cut = data.horizon(2)
        assert cut.T == 2 and all(a is b for a, b in zip(cut.slices, data.slices[:2]))
        for name in ("grid", "basis", "structure", "X_bau", "S_bau"):
            assert getattr(cut, name) is getattr(data, name)
        assert data.horizon(data.T) is data
        for u in (0, 5):
            with pytest.raises(ValueError, match=f"horizon {u} outside the data's 1..4"):
                data.horizon(u)

    def test_keeps_the_instrument_count(self):
        from dfgp.estimate import init_params
        from dfgp.grid import build_grid
        from dfgp.model import assemble
        data, _ = make_instance(0)
        # instrument 2 has no record before t = 3
        recs = [(t, 1, [b], 0.1 * t + b, 1.0) for t in (1, 2, 3) for b in (0, 4, 8)]
        recs.append((3, 2, [0, 1, 3, 4], 0.5, 1.0))
        data = assemble(make_observations(recs, 3), build_grid(3, 3, 1.0), data.basis,
                        data.structure, covariates=("1", "y"))
        assert data.horizon(2).n_instruments == data.n_instruments == 2
        assert init_params(data.horizon(2)).sigma2_eps.shape == (2, 2)

    def test_filter_on_a_cut_is_the_prefix_of_the_whole(self):
        data, params = make_instance(7, nx=5, ny=4, T=4, r_counts=(4,))
        pred = data.structure.valid_idx
        whole = filter_pass(data, params, pred_bau=pred, want_variance=True)
        cut = filter_pass(data.horizon(2), params.truncated(2), pred_bau=pred,
                          want_variance=True)
        for a, b in zip(cut.states, whole.states[:2], strict=True):
            for f in ("eta", "P", "psi", "delta0", "fine_var", "logdet_sigma", "quad"):
                assert np.array_equal(getattr(a, f), getattr(b, f)), f

    def test_params_of_another_horizon_are_rejected(self):
        from dfgp.estimate import EstimatorConfig, e_step, run_estimator
        data, params = make_instance(1, T=3)
        for p, d in ((params.truncated(2), data), (params, data.horizon(2))):
            message = f"parameters span {p.u} time steps, the data {d.T}"
            with pytest.raises(ValueError, match=message):
                filter_pass(d, p)
            for mode in ("sem", "exact"):
                with pytest.raises(ValueError, match=message):
                    e_step(d, p, EstimatorConfig(mode=mode), np.random.default_rng(0))
        with pytest.raises(ValueError, match="init spans 2 time steps, the data 3"):
            run_estimator(data, EstimatorConfig(max_iter=1), init=params.truncated(2))


class TestFilterSpecialCases:
    def test_no_data_filtered_equals_forecast(self):
        data, params = make_instance(11, T=3, empty_times=(2,))
        pred = data.structure.valid_idx
        filt = filter_pass(data, params, pred_bau=pred, want_variance=True)
        st = filt.states[1]
        assert np.array_equal(st.eta, st.eta_pred)
        assert np.array_equal(st.P, st.P_pred)
        assert np.all(st.delta == 0.0)
        qinv = np.linalg.inv(build_precision(data.structure, params.car[1]).toarray())
        assert np.allclose(st.R_diag, np.diag(qinv))

    def test_no_data_fine_var_is_prior_variance_from_sparse_path(self):
        data, params = make_instance(13, nx=6, ny=5, T=3, empty_times=(2,))
        assert data.structure.closed_form
        nodes = np.arange(data.structure.n)
        st = filter_pass(data, params, pred_bau=data.structure.valid_idx,
                         want_variance=True).states[1]
        car = params.car[1]
        sparse = sparse_factorize(data.structure.base_precision(car.gamma))
        assert relerr(st.fine_var, car.tau2 * sparse.solve_selected_diag(nodes)) <= 1e-12

    def test_huge_noise_gain_vanishes(self):
        data, params = make_instance(2, v_range=(1e9, 2e9))
        filt = filter_pass(data, params)
        for st in filt.states:
            assert np.abs(st.eta[:, 0] - st.eta_pred[:, 0]).max() < 1e-6
            assert relerr(st.P, st.P_pred) < 1e-6

    def test_prior_predictive_no_data_beta_zero(self):
        data, params = make_instance(0, T=2, empty_times=(1, 2))
        params = dataclasses.replace(params, beta=np.zeros_like(params.beta))
        pred = data.structure.valid_idx
        filt = filter_pass(data, params, pred_bau=pred, want_variance=True)
        fld = predict_filter(filt, data, params, 1, pred)
        assert np.allclose(fld.mean, 0.0)
        Sp = data.S_bau[pred]
        qinv = np.linalg.inv(build_precision(data.structure, params.car[0]).toarray())
        expect = np.einsum("ij,jk,ik->i", Sp, filt.states[0].P_pred, Sp) + np.diag(qinv)
        assert np.allclose(fld.stderr**2, expect)

    def test_interpolation_limit(self):
        # single-BAU footprint with near-zero noise: prediction -> observation
        data, params = make_instance(4, v_range=(1e-10, 2e-10))
        slc = data.slices[0]
        bau = int(data.structure.valid_idx[slc.B[0].indices[0]])
        filt = filter_pass(data, params, pred_bau=np.array([bau]), want_variance=True)
        fld = predict_filter(filt, data, params, 1, np.array([bau]))
        assert fld.mean[0] == pytest.approx(slc.z[0], abs=1e-4)

    def test_variance_monotone_in_data(self):
        # adding observations at time t cannot increase prediction variance
        data_full, params = make_instance(21, nx=4, ny=4, T=1, k0=1)
        batch = data_full.slices[0]
        from dfgp.model import assemble
        grid = data_full.grid
        recs_all = []
        for i in range(batch.n_obs):
            bau = int(data_full.structure.valid_idx[batch.B[i].indices[0]])
            recs_all.append((1, 1, [bau], float(batch.z[i]), float(batch.v_factors[i])))
        pred = grid.valid_indices()
        prev_var = None
        for n_keep in (1, len(recs_all) // 2, len(recs_all)):
            d = assemble(make_observations(recs_all[:n_keep], 1), grid, data_full.basis,
                         data_full.structure, covariates=("1", "y"))
            filt = filter_pass(d, params, pred_bau=pred, want_variance=True)
            var = predict_filter(filt, d, params, 1, pred).stderr ** 2
            if prev_var is not None:
                assert (var <= prev_var + 1e-10).all()
            prev_var = var

    def test_numerical_error_carries_time_index(self):
        data, params = make_instance(0)
        params.U[:] = -np.eye(params.r)    # break PD-ness behind the validator
        with pytest.raises(NumericalError) as exc:
            filter_pass(data, params)
        assert exc.value.time_index == 1


class TestSmootherSpecialCases:
    def test_final_time_smoothed_equals_filtered(self):
        data, params = make_instance(3)
        pred = data.structure.valid_idx
        filt = filter_pass(data, params, pred_bau=pred, want_variance=True)
        sm = smoother_pass(filt, params)
        last_f, last_s = filt.states[-1], sm.states[-1]
        assert np.array_equal(last_s.eta, last_f.eta)
        assert np.array_equal(last_s.P, last_f.P)
        assert np.array_equal(last_s.delta, last_f.delta)

    def test_smoother_keeps_filtered_fine_scale_arrays(self):
        # the fine-scale pieces need no state: the smoother moves (eta, P) only
        data, params = make_instance(3, T=3, empty_times=(2,))
        filt = filter_pass(data, params, pred_bau=data.structure.valid_idx,
                           want_variance=True)
        sm = smoother_pass(filt, params)
        for fs, ss in zip(filt.states, sm.states, strict=True):
            assert ss is not fs
            assert ss.delta0 is fs.delta0 and ss.psi is fs.psi and ss.fine_var is fs.fine_var

    def test_h_zero_smoothed_equals_filtered(self):
        data, params = make_instance(3)
        params = dataclasses.replace(params, H=np.zeros((params.r, params.r)))
        pred = data.structure.valid_idx
        filt = filter_pass(data, params, pred_bau=pred, want_variance=True)
        sm = smoother_pass(filt, params)
        for fs, ss in zip(filt.states, sm.states):
            assert np.allclose(ss.eta, fs.eta)
            assert np.allclose(ss.P, fs.P)
            assert np.allclose(ss.delta, fs.delta)

    def test_predict_smooth_equals_filter_at_T(self):
        data, params = make_instance(9)
        pred = data.structure.valid_idx
        filt = filter_pass(data, params, pred_bau=pred, want_variance=True)
        sm = smoother_pass(filt, params)
        t = params.u
        f1 = predict_filter(filt, data, params, t, pred)
        f2 = predict_smooth(sm, data, params, t, pred)
        assert np.allclose(f1.mean, f2.mean)
        assert np.allclose(f1.stderr, f2.stderr)


class TestLag1:
    def test_h_zero_all_lag1_zero(self):
        data, params = make_instance(6)
        params = dataclasses.replace(params, H=np.zeros((params.r, params.r)))
        filt = filter_pass(data, params)
        sm = smoother_pass(filt, params)
        for st in sm.states:
            assert np.allclose(st.lag1, 0.0)

    def test_no_data_at_T_gives_H_P(self):
        data, params = make_instance(12, T=3, empty_times=(3,))
        filt = filter_pass(data, params)
        sm = smoother_pass(filt, params)
        expect = params.H_at(3) @ filt.states[1].P
        assert np.allclose(sm.states[-1].lag1, expect)


class TestStateCovariances:
    def test_all_covariances_symmetric(self):
        data, params = make_instance(8)
        filt = filter_pass(data, params, pred_bau=data.structure.valid_idx,
                           want_variance=True)
        sm = smoother_pass(filt, params)
        for st in [*filt.states, *sm.states]:
            assert np.array_equal(st.P, st.P.T)
            assert np.array_equal(st.P_pred, st.P_pred.T)


def test_allocation_budget_no_dense_nxn():
    """A filter+smooth pass at N = 10^4 must not allocate a dense N x N array."""
    from dfgp.synth import InstrumentSpec, ScenarioConfig, scenario_data
    cfg = ScenarioConfig(
        nx=100, ny=100, T=3, basis_counts=(9,), seed=1,
        beta=(1.0, 0.05, -0.002),
        instruments=(InstrumentSpec(1, 0.2, drop_rate=0.4),
                     InstrumentSpec(4, 0.04, drop_rate=0.1)))
    truth, _obs, data = scenario_data(cfg)
    pred = np.arange(0, truth.grid.n_bau, 23)
    tracemalloc.start()
    filt = filter_pass(data, truth.params, pred_bau=pred, want_variance=True)
    smoother_pass(filt, truth.params)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    n = truth.grid.n_bau
    assert peak < 0.25 * 8 * n * n, f"peak {peak/1e6:.0f} MB vs N^2 {8*n*n/1e6:.0f} MB"


class TestSelectedDiagWork:
    """All-BAU variances come from selected inversion, small sets from unit solves."""

    def test_all_bau_variance_makes_no_unit_solves(self, monkeypatch):
        from dfgp.synth import ScenarioConfig, scenario_data
        truth, _obs, data = scenario_data(ScenarioConfig(nx=20, ny=16, T=2, seed=4))
        params = truth.params
        assert data.structure.n >= SELECTED_INVERSION_MIN
        unit_cols = []
        real = SparseFactor.solve

        def recording(self, b):
            b = np.asarray(b)
            if b.ndim == 2 and ((b != 0).sum(axis=0) == 1).all() and (b.max(axis=0) == 1.0).all():
                unit_cols.append(b.shape[1])
            return real(self, b)

        monkeypatch.setattr(SparseFactor, "solve", recording)
        full = filter_pass(data, params, pred_bau=data.structure.valid_idx, want_variance=True)
        assert unit_cols == []
        nodes = np.array([0, 37, 150, 300])
        few = filter_pass(data, params, pred_bau=data.structure.valid_idx[nodes],
                          want_variance=True)
        assert sum(unit_cols) == nodes.size * params.u
        for a, b in zip(full.states, few.states):
            assert relerr(b.R_diag, a.R_diag[nodes]) <= 1e-12
