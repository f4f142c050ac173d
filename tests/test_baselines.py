import numpy as np
import pytest

from dfgp.baselines import (ExpCovParams, LocalKrigeSettings, exp_cov,
                            fit_exp_cov, local_krige)


class TestExpCov:
    def test_origin_includes_nugget(self):
        p = ExpCovParams(2.0, 1.0, 1.0, nugget=0.5)
        assert exp_cov(0.0, 0.0, p) == pytest.approx(2.5)

    def test_spatial_range(self):
        p = ExpCovParams(2.0, 3.0, 1.0)
        assert exp_cov(3.0, 0.0, p) == pytest.approx(2.0 * np.exp(-1))

    def test_temporal_range_symmetric_form(self):
        p = ExpCovParams(2.0, 3.0, 4.0)
        assert exp_cov(0.0, 4.0, p) == pytest.approx(2.0 * np.exp(-1))

    def test_nugget_only_at_origin(self):
        p = ExpCovParams(1.0, 1.0, 1.0, nugget=9.0)
        assert exp_cov(1e-9, 0.0, p) < 2.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ExpCovParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ExpCovParams(1.0, 1.0, 1.0, nugget=-0.1)


def _field(rng, n=60):
    coords = rng.uniform(0, 10, size=(n, 2))
    times = rng.integers(1, 5, size=n).astype(float)
    p = ExpCovParams(1.5, 3.0, 2.0, nugget=0.0)
    dh = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))
    du = np.abs(times[:, None] - times[None])
    C = 1.5 * np.exp(-np.sqrt((dh / 3.0) ** 2 + (du / 2.0) ** 2)) + 1e-10 * np.eye(n)
    z = np.linalg.cholesky(C) @ rng.standard_normal(n)
    return coords, times, z, p


class TestLocalKrige:
    def test_exact_interpolation_without_nugget(self):
        rng = np.random.default_rng(0)
        coords, times, z, p = _field(rng)
        settings = LocalKrigeSettings(k=60, pilot=p, fit=False)
        mean, var = local_krige(coords[7], times[7], coords, times, z, settings)
        assert mean == pytest.approx(z[7], abs=1e-5)
        assert var == pytest.approx(0.0, abs=1e-5)

    def test_constant_field_predicts_constant(self):
        rng = np.random.default_rng(1)
        coords = rng.uniform(0, 5, size=(30, 2))
        times = np.ones(30)
        z = np.full(30, 4.2)
        settings = LocalKrigeSettings(k=30, pilot=ExpCovParams(1.0, 2.0, 1.0),
                                      fit=False)
        mean, _ = local_krige((2.5, 2.5), 1.0, coords, times, z, settings)
        assert mean == pytest.approx(4.2, abs=1e-8)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(2)
        coords, times, z, p = _field(rng)
        settings = LocalKrigeSettings(k=40, pilot=p, fit=False)
        m1, v1 = local_krige((5.0, 5.0), 2.0, coords, times, z, settings)
        m2, v2 = local_krige((5.0, 5.0), 2.0, coords, times, z + 100.0, settings)
        assert m2 == pytest.approx(m1 + 100.0, abs=1e-6)
        assert v2 == pytest.approx(v1, abs=1e-8)

    def test_window_size_restricts_neighbors(self):
        rng = np.random.default_rng(3)
        coords, times, z, p = _field(rng)
        settings = LocalKrigeSettings(k=5, pilot=p, fit=False)
        mean, var = local_krige((5.0, 5.0), 2.0, coords, times, z, settings)
        assert np.isfinite(mean) and var >= 0.0

    def test_default_window_is_500(self):
        assert LocalKrigeSettings().k == 500

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            local_krige((0, 0), 1.0, np.zeros((1, 2)), np.ones(1), np.ones(1),
                        LocalKrigeSettings())

    def test_ml_fit_recovers_reasonable_sill(self):
        rng = np.random.default_rng(4)
        coords, times, z, p = _field(rng, n=80)
        start = ExpCovParams(float(np.var(z)), 2.0, 2.0, nugget=0.05)
        fit = fit_exp_cov(coords, times, z, start, max_evals=300)
        assert 0.2 < fit.sigma2 < 8.0
        assert fit.nugget < 0.7

    def test_ml_fit_stays_in_window_box(self):
        # a nearly noiseless linear trend: unbounded, the fit ran to a nugget
        # of 1e-28..1e-224 and temporal ranges of 3e4..1e6
        rng = np.random.default_rng(0)
        coords = rng.uniform(0, 10, size=(60, 2))
        times = rng.integers(1, 5, size=60).astype(float)
        z = 3 * coords[:, 0] + 0.5 * coords[:, 1] + 0.01 * rng.standard_normal(60)
        var, ext_s, ext_t = np.var(z), np.hypot(*np.ptp(coords, axis=0)), np.ptp(times)
        start = ExpCovParams(var, np.ptp(coords) / 3, np.ptp(times) / 2, 0.1 * var)
        fit = fit_exp_cov(coords, times, z, start, max_evals=150)
        tol = 1 + 1e-9
        assert 1e-4 * var / tol <= fit.sigma2 <= 1e2 * var * tol
        assert 1e-6 * var / tol <= fit.nugget <= 10.0 * var * tol
        assert 1e-2 * ext_s / tol <= fit.phi_s <= 1e2 * ext_s * tol
        assert 1e-2 * ext_t / tol <= fit.phi_t <= 1e2 * ext_t * tol
