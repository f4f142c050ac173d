import dataclasses

import numpy as np
import pytest

from dfgp.baselines import LocalKrigeSettings
from dfgp.cv import METHODS, HoldoutPlan, _score_rows, holdout_bau, run_cv, split_holdout
from dfgp.estimate import EstimatorConfig, run_estimator
from dfgp.model import DEFAULT_COVARIATES
from dfgp.synth import InstrumentSpec, ScenarioConfig, scenario_data


@pytest.fixture(scope="module")
def scenario():
    cfg = ScenarioConfig(nx=8, ny=8, T=4, basis_counts=(4,), seed=2,
                         instruments=(InstrumentSpec(1, 0.25, drop_rate=0.1),
                                      InstrumentSpec(4, 0.04)))
    return scenario_data(cfg)


@pytest.fixture(scope="module")
def plan():
    return HoldoutPlan(x0=2.0, x1=4.0, y0=2.0, y1=6.0,
                       t_first=2, t_last=4, fraction=0.15, seed=1)


class TestSplit:
    def test_block_and_random_tags(self, scenario, plan):
        truth, obs, _ = scenario
        train, held, block = split_holdout(obs, truth.grid, plan, "filtering")
        assert set(block.tolist()) == {True, False}
        c = truth.grid.centroids[holdout_bau(held)[block]]
        assert ((2.0 <= c[:, 0]) & (c[:, 0] <= 4.0) & (2.0 <= c[:, 1]) & (c[:, 1] <= 6.0)).all()
        assert ((plan.t_first <= held.time) & (held.time <= plan.t_last)).all()

    def test_held_records_are_obs_records_in_order(self, scenario, plan):
        truth, obs, _ = scenario
        train, held, block = split_holdout(obs, truth.grid, plan, "filtering")
        assert block.shape == (held.n_obs,) and block.dtype == bool
        for name in ("fp_indptr", "fp_indices"):
            assert np.array_equal(getattr(held, name), getattr(obs, name))
        row = {key: i for i, key in enumerate(zip(
            obs.time.tolist(), obs.instrument.tolist(), obs.footprint.tolist()))}
        assert len(row) == obs.n_obs
        at = np.array([row[key] for key in zip(
            held.time.tolist(), held.instrument.tolist(), held.footprint.tolist())])
        assert (np.diff(at) > 0).all()
        assert np.array_equal(held.value, obs.value[at])
        assert np.array_equal(held.var_factor, obs.var_factor[at])
        assert train.n_obs + held.n_obs == obs.n_obs

    def test_training_does_not_contain_holdouts(self, scenario, plan):
        truth, obs, _ = scenario
        train, held, _ = split_holdout(obs, truth.grid, plan, "filtering")
        keys = set(zip(held.time.tolist(), holdout_bau(held).tolist()))
        fine = train.instrument == 1
        first = train.fp_indices[train.fp_indptr[train.footprint[fine]]]
        assert not keys & set(zip(train.time[fine].tolist(), first.tolist()))

    def test_counts_preserved(self, scenario, plan):
        truth, obs, _ = scenario
        train, held, _ = split_holdout(obs, truth.grid, plan, "filtering")
        total = int((obs.instrument == 1).sum())
        kept = int((train.instrument == 1).sum())
        assert kept + held.n_obs == total

    @pytest.mark.parametrize("change", [dict(instrument=7), dict(t_first=5, t_last=9)],
                             ids=["no-such-instrument", "times-beyond-data"])
    def test_plan_selecting_nothing_rejected(self, scenario, plan, change):
        truth, obs, _ = scenario
        empty = dataclasses.replace(plan, **change)
        with pytest.raises(ValueError, match=(
                f"selects no record of instrument {empty.instrument} "
                f"at times {empty.t_first}..{empty.t_last}")):
            split_holdout(obs, truth.grid, empty, "filtering")

    def test_instrument_below_one_rejected(self, plan):
        with pytest.raises(ValueError, match="instrument must be >= 1, got 0"):
            dataclasses.replace(plan, instrument=0)

    def test_coarse_instrument_untouched(self, scenario, plan):
        truth, obs, _ = scenario
        train, _, _ = split_holdout(obs, truth.grid, plan, "filtering")
        for name in ("time", "footprint", "value"):
            col0, col1 = getattr(obs, name), getattr(train, name)
            assert np.array_equal(col0[obs.instrument == 2], col1[train.instrument == 2])


class TestScoring:
    def test_oracle_passthrough_scores_zero(self, scenario, plan):
        truth, obs, _ = scenario
        _, held, block = split_holdout(obs, truth.grid, plan, "filtering")
        rows = _score_rows("oracle", "filtering", held, block, held.value,
                           np.ones(held.n_obs), [2, 3, 4])
        for row in rows:
            assert row.rmspe == 0.0

    def test_absent_cells_skipped(self, scenario, plan):
        truth, obs, _ = scenario
        _, held, block = split_holdout(obs, truth.grid, plan, "filtering")
        rows = _score_rows("m", "filtering", held, block, held.value,
                           np.ones(held.n_obs), [2, 3, 4, 9])
        assert not any(r.time_index == 9 for r in rows)

    def test_unscored_times_left_out(self, scenario, plan):
        truth, obs, _ = scenario
        _, held, block = split_holdout(obs, truth.grid, plan, "filtering")
        mean = np.where(held.time == 2, np.nan, held.value)
        rows = _score_rows("m", "filtering", held, block, mean, np.ones(held.n_obs), [3, 4])
        agg = [r for r in rows if r.time_index == "all" and r.subset == "all"]
        assert agg[0].rmspe == 0.0 and agg[0].n == int((held.time >= 3).sum())
        assert {r.subset for r in rows} == {"all", "block", "random"}


class TestRunCV:
    def test_three_methods_report_rows(self, scenario, plan):
        truth, obs, _ = scenario
        est = EstimatorConfig(mode="sem", max_iter=4, seed=0)
        lk = LocalKrigeSettings(k=40, fit=False)
        res = run_cv(obs, truth.grid, truth.basis, truth.structure, plan,
                     methods=("dfgp", "lowrank", "localkrige"),
                     protocol="smoothing", est_config=est, lk_settings=lk,
                     covariates=DEFAULT_COVARIATES)
        agg = [r for r in res.rows if r.time_index == "all" and r.subset == "all"]
        assert {r.method for r in agg} == {"dfgp", "lowrank", "localkrige"}
        for r in res.rows:
            assert np.isfinite(r.rmspe) and np.isfinite(r.crps)

    def test_localkrige_alone_assembles_no_model(self, scenario, plan, monkeypatch):
        from dfgp import cv
        truth, obs, _ = scenario
        monkeypatch.setattr(cv, "assemble", lambda *a, **k: pytest.fail("assembled"))
        res = run_cv(obs, truth.grid, truth.basis, truth.structure, plan,
                     methods=("localkrige",), protocol="smoothing",
                     est_config=EstimatorConfig(max_iter=3),
                     lk_settings=LocalKrigeSettings(k=40, fit=False),
                     covariates=DEFAULT_COVARIATES)
        assert {r.method for r in res.rows} == {"localkrige"}

    def test_filtering_protocol_skips_time_one(self, scenario):
        truth, obs, _ = scenario
        plan = HoldoutPlan(x0=2.0, x1=4.0, y0=2.0, y1=6.0,
                           t_first=1, t_last=4, fraction=0.15, seed=1)
        est = EstimatorConfig(mode="sem", max_iter=3, seed=0)
        res = run_cv(obs, truth.grid, truth.basis, truth.structure, plan,
                     methods=("dfgp",), protocol="filtering", est_config=est,
                     lk_settings=LocalKrigeSettings(k=100), covariates=DEFAULT_COVARIATES)
        times = {r.time_index for r in res.rows if r.method == "dfgp"}
        assert 1 not in times
        assert {2, 3, 4} <= times

    def test_filtering_fits_horizons_up_to_last_scored_holdout(self, scenario, plan,
                                                              monkeypatch):
        from dfgp import estimate
        truth, obs, _ = scenario
        horizons = []

        def recorded(data, config, init=None):
            horizons.append(data.T)
            return run_estimator(data, config, init)
        monkeypatch.setattr(estimate, "run_estimator", recorded)
        run_cv(obs, truth.grid, truth.basis, truth.structure,
               dataclasses.replace(plan, t_last=3), methods=("dfgp", "lowrank"),
               protocol="filtering", est_config=EstimatorConfig(mode="sem", max_iter=2, seed=0),
               lk_settings=LocalKrigeSettings(k=40, fit=False), covariates=DEFAULT_COVARIATES)
        assert horizons == [2, 3, 2, 3]   # T = 4 has no held-out record: no u = 4 fit

    def test_filtering_orders_the_training_data_once(self, scenario, plan, monkeypatch):
        # the fits on the cut to the last held-out time and the filter passes
        # of every horizon share the training set's one order
        from dfgp import model
        truth, obs, _ = scenario
        calls = []
        real = model.nested_dissection
        monkeypatch.setattr(model, "nested_dissection",
                            lambda *args: calls.append(1) or real(*args))
        run_cv(obs, truth.grid, truth.basis, truth.structure,
               dataclasses.replace(plan, t_last=3), methods=("dfgp",),
               protocol="filtering", est_config=EstimatorConfig(mode="sem", max_iter=2, seed=0),
               lk_settings=LocalKrigeSettings(k=40, fit=False), covariates=DEFAULT_COVARIATES)
        assert calls == [1]

    def test_smoothing_protocol_reports_1_to_Tminus1(self, scenario, plan):
        truth, obs, _ = scenario
        est = EstimatorConfig(mode="sem", max_iter=3, seed=0)
        res = run_cv(obs, truth.grid, truth.basis, truth.structure, plan,
                     methods=("dfgp",), protocol="smoothing", est_config=est,
                     lk_settings=LocalKrigeSettings(k=100), covariates=DEFAULT_COVARIATES)
        times = {r.time_index for r in res.rows if r.time_index != "all"}
        assert times <= {1, 2, 3}
        assert 4 not in times   # t = T is not scored under smoothing

    def test_no_holdout_leakage_sentinel(self, scenario, plan):
        truth, obs, _ = scenario
        est = EstimatorConfig(mode="sem", max_iter=3, seed=0)
        res1 = run_cv(obs, truth.grid, truth.basis, truth.structure, plan,
                      methods=("dfgp",), protocol="smoothing", est_config=est,
                      lk_settings=LocalKrigeSettings(k=100), covariates=DEFAULT_COVARIATES)
        # poison every held-out record's value; training must not change
        _, held, _ = split_holdout(obs, truth.grid, plan, "smoothing")
        keys = set(zip(held.time.tolist(), holdout_bau(held).tolist()))
        first = obs.fp_indices[obs.fp_indptr[obs.footprint]]
        hit = np.array([k == 1 and key in keys for k, key in zip(
            obs.instrument.tolist(), zip(obs.time.tolist(), first.tolist()))])
        assert hit.sum() == held.n_obs
        poisoned = dataclasses.replace(obs, value=np.where(hit, 1e12, obs.value))
        res2 = run_cv(poisoned, truth.grid, truth.basis, truth.structure, plan,
                      methods=("dfgp",), protocol="smoothing", est_config=est,
                      lk_settings=LocalKrigeSettings(k=100), covariates=DEFAULT_COVARIATES)
        # sentinel never reached any training path: predictions are identical
        (m1, s1), (m2, s2) = res1.predictions["dfgp"], res2.predictions["dfgp"]
        assert np.array_equal(m1, m2, equal_nan=True) and np.array_equal(s1, s2, equal_nan=True)
        scored = res1.held.time <= 3
        assert np.isfinite(m1[scored]).all() and np.isnan(m1[~scored]).all()
        assert (np.abs(m1[scored]) < 1e11).all()   # sentinel-free
        assert res1.held.n_obs == res2.held.n_obs

    def test_unknown_method_rejected(self, scenario, plan):
        truth, obs, _ = scenario
        with pytest.raises(ValueError):
            run_cv(obs, truth.grid, truth.basis, truth.structure, plan,
                   methods=("nope",), protocol="filtering",
                   est_config=EstimatorConfig(max_iter=30),
                   lk_settings=LocalKrigeSettings(k=100), covariates=DEFAULT_COVARIATES)

    @pytest.mark.parametrize("methods, message", [
        ((), "methods: none given"), (("lowrank", "lowrank"), "methods: lowrank named twice")])
    def test_no_or_repeated_method_rejected_before_any_fit(self, scenario, plan, monkeypatch,
                                                          methods, message):
        from dfgp import cv
        truth, obs, _ = scenario
        for name in ("assemble", "run_estimator", "fit_filtering_sequence", "local_krige"):
            monkeypatch.setattr(cv, name, lambda *a, **k: pytest.fail("assembled or fitted"))
        with pytest.raises(ValueError, match=message):
            run_cv(obs, truth.grid, truth.basis, truth.structure, plan,
                   methods=methods, protocol="smoothing",
                   est_config=EstimatorConfig(max_iter=30),
                   lk_settings=LocalKrigeSettings(k=100), covariates=DEFAULT_COVARIATES)

    @pytest.mark.parametrize("protocol, t", [("smoothing", 4), ("filtering", 1)])
    def test_holdout_at_unscored_times_fails_before_any_fit(self, scenario, plan,
                                                            monkeypatch, protocol, t):
        from dfgp import cv
        truth, obs, _ = scenario
        for name in ("assemble", "run_estimator", "fit_filtering_sequence", "local_krige"):
            monkeypatch.setattr(cv, name, lambda *a, **k: pytest.fail("assembled or fitted"))
        scored = "1..3" if protocol == "smoothing" else "2..4"
        with pytest.raises(ValueError, match=(
                f"selects records at times {t} only, but protocol = {protocol} "
                f"scores times {scored}")):
            run_cv(obs, truth.grid, truth.basis, truth.structure,
                   dataclasses.replace(plan, t_first=t, t_last=t),
                   methods=METHODS, protocol=protocol,
                   est_config=EstimatorConfig(mode="sem", max_iter=3, seed=0),
                   lk_settings=LocalKrigeSettings(k=40, fit=False),
                   covariates=DEFAULT_COVARIATES)
