import numpy as np
import pytest
from oracle import build_precision

from dfgp.basis import layout_multires
from dfgp.dynamics import filter_pass
from dfgp.grid import build_grid
from dfgp.synth import (InstrumentSpec, ScenarioConfig, _in_swath, observe,
                        scenario_data, simulate_truth)


def records(obs, t, k):
    """Record positions of instrument k at time t."""
    return np.flatnonzero((obs.time == t) & (obs.instrument == k))


def first_bau(obs, rows):
    """The first (lowest) BAU index of each record's footprint."""
    return obs.fp_indices[obs.fp_indptr[obs.footprint[rows]]]


def simulate(cfg, mask=None):
    """The truth of a scenario on its grid, with the given mask, and its basis."""
    grid = build_grid(cfg.nx, cfg.ny, cfg.cell_size, mask=mask)
    basis = layout_multires(grid.bbox, list(cfg.basis_counts), cfg.radius_mult)
    return simulate_truth(cfg, grid, basis)


def small_config(**kw):
    base = dict(nx=8, ny=8, T=3, basis_counts=(4,), seed=0,
                instruments=(InstrumentSpec(1, 0.25, drop_rate=0.1),
                             InstrumentSpec(4, 0.04)))
    base.update(kw)
    return ScenarioConfig(**base)


class TestSimulateTruth:
    def test_degenerate_noise_gives_pure_trend(self):
        cfg = small_config(u_scale=1e-18, k0_scale=1e-18, tau2=1e-18, gamma=0.0)
        truth = simulate(cfg)
        trend = truth.X_bau @ np.asarray(cfg.beta)
        for t in range(cfg.T):
            assert np.abs(truth.y[t] - trend).max() < 1e-6

    def test_identity_propagation_freezes_state(self):
        cfg = small_config(h_diag=1.0, u_scale=1e-18)
        truth = simulate(cfg)
        for t in range(1, cfg.T + 1):
            assert np.allclose(truth.eta[t], truth.eta[0], atol=1e-6)

    def test_deterministic(self):
        cfg = small_config()
        a, b = simulate(cfg), simulate(cfg)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.xi, b.xi)

    def test_xi_variance_matches_dense_inverse(self):
        cfg = ScenarioConfig(nx=4, ny=4, T=1, basis_counts=(1,), seed=0,
                             u_scale=1e-18, k0_scale=1e-18,
                             gamma=0.6, tau2=2.0, beta=(0.0, 0.0, 0.0),
                             instruments=(InstrumentSpec(1, 0.1),
                                          InstrumentSpec(4, 0.1)))
        reps = 1000
        draws = np.stack([
            simulate(ScenarioConfig(**{**cfg.__dict__, "seed": s})).xi[0]
            for s in range(reps)])
        truth = simulate(cfg)
        q = build_precision(truth.structure, truth.params.car[0]).toarray()
        target = np.diag(np.linalg.inv(q))
        emp = draws.var(axis=0)
        mcse = target * np.sqrt(2.0 / reps)
        assert (np.abs(emp - target) <= 5 * mcse).all()


class TestObserve:
    def test_constant_block_observed_exactly(self):
        cfg = small_config(u_scale=1e-18, k0_scale=1e-18, tau2=1e-18, gamma=0.0,
                           beta=(3.0, 0.0, 0.0),
                           instruments=(InstrumentSpec(1, 1e-18),
                                        InstrumentSpec(4, 1e-18)))
        truth = simulate(cfg)
        obs = observe(truth)
        z = obs.value[records(obs, 1, 2)]
        assert z.size and np.abs(z - 3.0).max() <= 1e-6

    def test_coarse_rows_weight_one_over_block(self):
        cfg = small_config()
        truth, obs, data = scenario_data(cfg)
        rows = data.slices[0].instrument_rows[2]
        B = data.slices[0].B[rows]
        assert np.allclose(B.data, 1.0 / 16.0)
        assert np.allclose(np.asarray(B.sum(axis=1)).ravel(), 1.0)

    def test_noise_variance_recovered(self):
        cfg = ScenarioConfig(nx=10, ny=10, T=1, basis_counts=(1,), seed=3,
                             u_scale=1e-18, k0_scale=1e-18, tau2=1e-18, gamma=0.0,
                             beta=(0.0, 0.0, 0.0),
                             instruments=(InstrumentSpec(1, 0.5),
                                          InstrumentSpec(2, 0.05)))
        zs = []
        for s in range(120):
            truth = simulate(ScenarioConfig(**{**cfg.__dict__, "seed": s}))
            obs = observe(truth)
            zs.extend(obs.value[records(obs, 1, 1)])
        assert len(zs) >= 10000
        assert np.var(zs) == pytest.approx(0.5, rel=0.1)

    def test_missingness_rate_within_binomial_tolerance(self):
        cfg = ScenarioConfig(nx=20, ny=20, T=8, basis_counts=(1,), seed=5,
                             instruments=(InstrumentSpec(1, 0.2, drop_rate=0.3),
                                          InstrumentSpec(4, 0.04)))
        truth = simulate(cfg)
        obs = observe(truth)
        n_total = 400 * 8
        kept = int((obs.instrument == 1).sum())
        p = 0.7
        se = np.sqrt(n_total * p * (1 - p))
        assert abs(kept - n_total * p) < 5 * se

    def test_swath_bands_remove_columns(self):
        cfg = ScenarioConfig(nx=12, ny=4, T=2, basis_counts=(1,), seed=1,
                             instruments=(InstrumentSpec(1, 0.1, swath_width=4,
                                                         swath_period=12,
                                                         swath_shift=3),
                                          InstrumentSpec(2, 0.1)))
        truth = simulate(cfg)
        obs = observe(truth)
        # at t=1 the band covers columns 0..3
        cols_t1 = set((first_bau(obs, records(obs, 1, 1)) % 12).tolist())
        assert cols_t1 == set(range(4, 12))
        # at t=2 the band has shifted by 3
        cols_t2 = set((first_bau(obs, records(obs, 2, 1)) % 12).tolist())
        assert cols_t2 == {0, 1, 2} | set(range(7, 12))

    def test_no_missingness_fine_emits_all_cells(self):
        cfg = small_config(instruments=(InstrumentSpec(1, 0.2),
                                        InstrumentSpec(4, 0.04)))
        truth = simulate(cfg)
        obs = observe(truth)
        for t in range(1, cfg.T + 1):
            assert records(obs, t, 1).size == 64


class TestMaskedGrid:
    def test_truth_and_footprints_cover_valid_baus_only(self):
        """A coarse tile keeps its valid cells, and one without any is never
        observed; the fine instrument observes valid cells only."""
        cfg = small_config(instruments=(InstrumentSpec(1, 1e-18), InstrumentSpec(4, 1e-18)))
        mask = np.ones((8, 8), dtype=bool)
        mask[:4, :4] = False
        mask[5, 6] = False
        truth = simulate(cfg, mask.ravel())
        grid, valid = truth.grid, mask.ravel()
        for field in (truth.y, truth.xi):
            assert np.isnan(field[:, ~valid]).all() and np.isfinite(field[:, valid]).all()
        obs = observe(truth)
        assert grid.is_valid(obs.fp_indices).all()
        for t in range(1, cfg.T + 1):
            assert sorted(first_bau(obs, records(obs, t, 1)).tolist()) == \
                np.flatnonzero(valid).tolist()
            rows = records(obs, t, 2)
            assert sorted(first_bau(obs, rows).tolist()) == [4, 32, 36]
            for i in rows:
                f = obs.footprint[i]
                cover = obs.fp_indices[obs.fp_indptr[f]:obs.fp_indptr[f + 1]]
                assert cover.size == (15 if cover[0] == 36 else 16)   # 36's tile lost 46
                assert obs.value[i] == pytest.approx(truth.y[t - 1, cover].mean(), abs=1e-6)

    def test_bad_instrument_value_names_its_key(self):
        cfg = small_config(instruments=(InstrumentSpec(1, 0.2), InstrumentSpec(3, 0.04)))
        with pytest.raises(ValueError, match=r"^coarse_block must be >= 1 and tile "
                                             r"the 8x8 grid, got 3$"):
            simulate(cfg)
        cfg = small_config(instruments=(InstrumentSpec(1, 0.2), InstrumentSpec(4, 0.04),
                                        InstrumentSpec(1, 0.1, drop_rate=1)))
        with pytest.raises(ValueError, match=r"^instrument3_drop_rate must lie in \[0, 1\)"):
            simulate(cfg)

    def test_grid_of_another_shape_refused(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="the grid is 8x4, the scenario 8x8"):
            simulate_truth(cfg, build_grid(8, 4, 1.0), simulate(cfg).basis)


class TestObserveReference:
    def test_matches_per_record_loop(self):
        """observe() against the record-by-record formulation: the same
        footprints in the same order, and z bit-identical to the mean over
        each footprint plus its noise draw."""
        cfg = small_config(nx=12, ny=8, T=3, instruments=(
            InstrumentSpec(1, 0.25, swath_width=3, swath_period=7, swath_shift=2,
                           drop_rate=0.2),
            InstrumentSpec(4, 0.04, v_factor=2.0, drop_rate=0.3)))
        truth = simulate(cfg)
        obs = observe(truth)
        rng = np.random.default_rng([cfg.seed, 1])
        flat = np.arange(cfg.nx * cfg.ny).reshape(cfg.ny, cfg.nx)
        assert obs.n_times == cfg.T
        for t in range(1, cfg.T + 1):
            for k, spec in enumerate(cfg.instruments, start=1):
                b = spec.block
                corners = [(i0, j0) for i0 in range(0, cfg.ny, b) for j0 in range(0, cfg.nx, b)]
                cols = np.array([j0 + (b - 1) / 2.0 for _i0, j0 in corners])
                keep = ~_in_swath(cols, spec, t)
                keep &= rng.uniform(size=len(corners)) >= spec.drop_rate
                noise = rng.standard_normal(int(keep.sum()))
                expect = []
                for (i0, j0), kept in zip(corners, keep):
                    if kept:
                        cover = flat[i0:i0 + b, j0:j0 + b].ravel()
                        z = truth.y[t - 1, cover].mean() + np.sqrt(
                            spec.sigma2_eps * spec.v_factor) * noise[len(expect)]
                        expect.append((np.sort(cover), float(z)))
                rows = records(obs, t, k)
                assert rows.size == len(expect)
                for i, (cover, z_ref) in zip(rows, expect):
                    f = obs.footprint[i]
                    assert np.array_equal(obs.fp_indices[obs.fp_indptr[f]:obs.fp_indptr[f + 1]],
                                          cover)
                    assert obs.value[i] == z_ref and obs.var_factor[i] == spec.v_factor


class TestLikelihoodFavorsTruth:
    def test_true_params_beat_perturbed(self):
        wins = 0
        seeds = range(10)
        for s in seeds:
            cfg = ScenarioConfig(nx=8, ny=8, T=3, basis_counts=(4,), seed=s,
                                 instruments=(InstrumentSpec(1, 0.25, drop_rate=0.1),
                                              InstrumentSpec(4, 0.04)))
            truth, _obs, data = scenario_data(cfg)
            tp = truth.params
            ll_true = filter_pass(data, tp).neg2loglik
            import dataclasses

            from dfgp.car import CARParams
            pert = dataclasses.replace(
                tp,
                H=np.asarray(tp.H) * 1.5,
                U=np.asarray(tp.U) * 1.5,
                K0=tp.K0 * 0.5,
                sigma2_eps=tp.sigma2_eps * 1.5,
                car=tuple(CARParams(min(c.gamma * 1.2, 0.99), c.tau2 * 0.5)
                          for c in tp.car))
            if ll_true < filter_pass(data, pert).neg2loglik:
                wins += 1
        assert wins > len(list(seeds)) // 2
