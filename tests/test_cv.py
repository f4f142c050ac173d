import dataclasses

import numpy as np
import pytest

from dfgp.baselines import LocalKrigeSettings
from dfgp.cv import METHODS, HoldoutPlan, _score_rows, run_cv, split_holdout
from dfgp.estimate import EstimatorConfig
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
        train, hold = split_holdout(obs, truth.grid, plan)
        assert {h.subset for h in hold} == {"block", "random"}
        cents = truth.grid.centroids
        for h in hold:
            c = cents[h.bau_index]
            if h.subset == "block":
                assert 2.0 <= c[0] <= 4.0 and 2.0 <= c[1] <= 6.0
            assert plan.t_first <= h.time_index <= plan.t_last

    def test_training_does_not_contain_holdouts(self, scenario, plan):
        truth, obs, _ = scenario
        train, hold = split_holdout(obs, truth.grid, plan)
        held = {(h.time_index, h.bau_index) for h in hold}
        fine = train.instrument == 1
        first = train.fp_indices[train.fp_indptr[train.footprint[fine]]]
        assert not held & set(zip(train.time[fine].tolist(), first.tolist()))

    def test_counts_preserved(self, scenario, plan):
        truth, obs, _ = scenario
        train, hold = split_holdout(obs, truth.grid, plan)
        total = int((obs.instrument == 1).sum())
        kept = int((train.instrument == 1).sum())
        assert kept + len(hold) == total

    @pytest.mark.parametrize("change", [dict(instrument=7), dict(t_first=5, t_last=9)],
                             ids=["no-such-instrument", "times-beyond-data"])
    def test_plan_selecting_nothing_rejected(self, scenario, plan, change):
        truth, obs, _ = scenario
        empty = dataclasses.replace(plan, **change)
        with pytest.raises(ValueError, match=(
                f"selects no record of instrument {empty.instrument} "
                f"at times {empty.t_first}..{empty.t_last}")):
            split_holdout(obs, truth.grid, empty)

    def test_instrument_below_one_rejected(self, plan):
        with pytest.raises(ValueError, match="instrument must be >= 1, got 0"):
            dataclasses.replace(plan, instrument=0)

    def test_coarse_instrument_untouched(self, scenario, plan):
        truth, obs, _ = scenario
        train, _ = split_holdout(obs, truth.grid, plan)
        for name in ("time", "footprint", "value"):
            col0, col1 = getattr(obs, name), getattr(train, name)
            assert np.array_equal(col0[obs.instrument == 2], col1[train.instrument == 2])


class TestScoring:
    def test_oracle_passthrough_scores_zero(self, scenario, plan):
        truth, obs, _ = scenario
        _, hold = split_holdout(obs, truth.grid, plan)
        preds = {(h.time_index, h.bau_index): (h.value, 1.0) for h in hold}
        rows = _score_rows("oracle", "filtering", preds, hold, [2, 3, 4])
        for row in rows:
            assert row.rmspe == 0.0

    def test_absent_cells_skipped(self, scenario, plan):
        truth, obs, _ = scenario
        _, hold = split_holdout(obs, truth.grid, plan)
        preds = {(h.time_index, h.bau_index): (h.value, 1.0) for h in hold}
        rows = _score_rows("m", "filtering", preds, hold, [2, 3, 4, 9])
        assert not any(r.time_index == 9 for r in rows)


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
        _, hold = split_holdout(obs, truth.grid, plan)
        held = {(h.time_index, h.bau_index) for h in hold}
        first = obs.fp_indices[obs.fp_indptr[obs.footprint]]
        hit = np.array([k == 1 and key in held for k, key in zip(
            obs.instrument.tolist(), zip(obs.time.tolist(), first.tolist()))])
        assert hit.sum() == len(hold)
        poisoned = dataclasses.replace(obs, value=np.where(hit, 1e12, obs.value))
        res2 = run_cv(poisoned, truth.grid, truth.basis, truth.structure, plan,
                      methods=("dfgp",), protocol="smoothing", est_config=est,
                      lk_settings=LocalKrigeSettings(k=100), covariates=DEFAULT_COVARIATES)
        # sentinel never reached any training path: predictions are identical
        p1, p2 = res1.predictions["dfgp"], res2.predictions["dfgp"]
        assert p1.keys() == p2.keys()
        for key in p1:
            assert p1[key] == p2[key]
            assert abs(p1[key][0]) < 1e11   # sentinel-free
        assert len(res1.holdout) == len(res2.holdout)

    def test_unknown_method_rejected(self, scenario, plan):
        truth, obs, _ = scenario
        with pytest.raises(ValueError):
            run_cv(obs, truth.grid, truth.basis, truth.structure, plan,
                   methods=("nope",), protocol="filtering",
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
