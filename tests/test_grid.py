import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_observations

from dfgp.basis import layout_multires
from dfgp.car import build_adjacency
from dfgp.exceptions import InvalidFootprintError
from dfgp.grid import BAUGrid, BAUPointSample, Observations, build_grid
from dfgp.model import assemble


def one_per_footprint(footprints, n_times=1):
    """Observations with one record at time 1 per footprint."""
    return make_observations([(1, 1, fp, 0.0, 1.0) for fp in footprints], n_times)


def footprint_row(indices, grid):
    return one_per_footprint([indices]).footprint_matrix(grid)


def mc_average(point_fn, grid, bau_index, n_points, seed):
    sample = BAUPointSample(grid, n_points=n_points, seed=seed)
    return float(sample.average(point_fn, np.array([bau_index]))[0])


class TestBuildGrid:
    def test_2x2_centroids(self):
        g = build_grid(2, 2, 1.0, (0, 0))
        assert g.n_bau == 4
        expect = {(0.5, 0.5), (1.5, 0.5), (0.5, 1.5), (1.5, 1.5)}
        assert {tuple(c) for c in g.centroids} == expect

    def test_single_cell(self):
        g = build_grid(1, 1, 1.0, (0, 0))
        assert g.n_bau == 1
        assert tuple(g.centroids[0]) == (0.5, 0.5)

    def test_3x2_large_cells(self):
        g = build_grid(3, 2, 9.0, (0, 0))
        assert g.n_bau == 6
        assert tuple(g.centroids[0]) == (4.5, 4.5)

    @pytest.mark.parametrize("nx,ny,cell", [(0, 2, 1.0), (2, 0, 1.0), (2, 2, 0.0),
                                            (2, 2, -1.0)])
    def test_invalid_arguments(self, nx, ny, cell):
        with pytest.raises(ValueError):
            build_grid(nx, ny, cell)


class TestFootprintRow:
    def test_single_bau_identity(self):
        g = build_grid(2, 2, 1.0)
        row = footprint_row(np.array([3]), g).toarray().ravel()
        assert row[3] == 1.0 and row.sum() == 1.0

    def test_three_baus_equal_weights(self):
        g = build_grid(2, 2, 1.0)
        row = footprint_row(np.array([1, 2, 3]), g).toarray().ravel()
        assert np.allclose(row[[1, 2, 3]], 1 / 3)
        assert row[0] == 0.0

    def test_aggregated_value_is_mean(self):
        g = build_grid(2, 1, 1.0)
        row = footprint_row(np.array([0, 1]), g)
        assert (row @ np.array([1.0, 3.0]))[0] == pytest.approx(2.0)

    def test_out_of_range_raises(self):
        g = build_grid(2, 2, 1.0)
        with pytest.raises(InvalidFootprintError):
            footprint_row(np.array([4]), g)

    def test_masked_bau_rejected(self):
        mask = np.array([True, True, True, False])
        g = build_grid(2, 2, 1.0, mask=mask)
        with pytest.raises(InvalidFootprintError):
            footprint_row(np.array([3]), g)

    @given(st.sets(st.integers(min_value=0, max_value=24), min_size=1))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_nonnegative(self, idx):
        g = build_grid(5, 5, 1.0)
        row = footprint_row(np.array(sorted(idx)), g).toarray().ravel()
        assert row.min() >= 0.0
        assert row.sum() == pytest.approx(1.0, abs=1e-15)

    def test_linearity_of_aggregation(self):
        g = build_grid(4, 4, 1.0)
        rng = np.random.default_rng(0)
        f, h = rng.standard_normal(16), rng.standard_normal(16)
        row = footprint_row(np.array([0, 5, 9]), g)
        lhs = (row @ (2.0 * f + 3.0 * h))[0]
        assert lhs == pytest.approx(2.0 * (row @ f)[0] + 3.0 * (row @ h)[0])


class TestMCAverage:
    def test_constant_exact(self):
        g = build_grid(2, 2, 1.0)
        assert mc_average(lambda p: np.full(len(p), 7.0), g, 0, 30, 1) == 7.0

    def test_linear_within_mc_error(self):
        g = build_grid(1, 1, 1.0)
        n = 3000
        val = mc_average(lambda p: p[:, 0], g, 0, n, 2)
        assert abs(val - 0.5) < 3.0 * (1 / np.sqrt(12)) / np.sqrt(n)

    def test_default_n_points_is_30(self):
        g = build_grid(1, 1, 1.0)
        s = BAUPointSample(g)
        assert s.n_points == 30

    def test_bitwise_reproducible(self):
        g = build_grid(3, 3, 2.0)
        a = mc_average(lambda p: np.sin(p[:, 0]) + p[:, 1], g, 4, 30, 99)
        b = mc_average(lambda p: np.sin(p[:, 0]) + p[:, 1], g, 4, 30, 99)
        assert a == b

    def test_points_random_access_consistency(self):
        g = build_grid(40, 40, 1.0)
        s = BAUPointSample(g, seed=5)
        sub = s.points_for(np.array([7, 1203]))
        full = s.points_for(np.arange(g.n_bau))
        assert np.array_equal(sub[0], full[7])
        assert np.array_equal(sub[1], full[1203])

    def test_points_inside_cell(self):
        g = build_grid(2, 2, 3.0)
        s = BAUPointSample(g, seed=0)
        pts = s.points_for(np.array([2]))[0]
        c = g.centroids[2]
        assert (np.abs(pts - c) <= 1.5).all()


class TestAggregateCovariates:
    """Covariates reach footprint support as the mean of their BAU averages."""

    @staticmethod
    def _assemble(grid, footprints, covariates, design=None):
        return assemble(one_per_footprint(footprints), grid, layout_multires(grid.bbox, [1]),
                        build_adjacency(grid), covariates=covariates, design=design)

    def test_intercept_column_all_ones(self):
        g = build_grid(3, 3, 1.0)
        data = self._assemble(g, [[i] for i in range(9)], ("1", "y", "y2"))
        assert np.allclose(data.slices[0].X[:, 0], 1.0)

    def test_single_bau_equals_bau_level(self):
        g = build_grid(2, 2, 1.0)
        data = self._assemble(g, [[i] for i in range(4)], ("xy",))
        bau_vals = BAUPointSample(g).average(lambda p: p[:, 0] * p[:, 1])
        assert np.array_equal(data.X_bau[:, 0], bau_vals)
        assert np.allclose(data.slices[0].X[:, 0], bau_vals)

    def test_two_bau_mean(self):
        g = build_grid(2, 1, 1.0)
        data = self._assemble(g, [[0, 1]], ("1",),
                              design=(np.array([[0.0], [2.0]]), np.ones((2, 1))))
        assert data.slices[0].X[0, 0] == pytest.approx(1.0)

    def test_footprint_matrix_empty(self):
        g = build_grid(2, 2, 1.0)
        assert one_per_footprint([]).footprint_matrix(g).shape == (0, 4)


class TestFootprintMatrix:
    @staticmethod
    def _footprints(n_bau, count, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.choice(n_bau, size=rng.integers(1, 9), replace=False)
                for _ in range(count)]

    def test_equals_stacked_rows(self):
        g = build_grid(12, 10, 1.0)
        fps = self._footprints(g.n_bau, 40)
        got = one_per_footprint(fps).footprint_matrix(g)
        ref = sp.csr_matrix(sp.vstack([footprint_row(fp, g) for fp in fps]))
        for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices),
                     (got.data, ref.data)):
            assert np.array_equal(a, b)
        # and each row is the plain 1/m weighting of its footprint
        for i, fp in enumerate(fps):
            row = got[i].toarray().ravel()
            assert np.array_equal(np.flatnonzero(row), np.sort(fp))
            assert (row[fp] == 1.0 / fp.size).all()

    def test_later_bad_footprint_named(self):
        mask = np.ones(16, dtype=bool)
        mask[6] = False
        g = build_grid(4, 4, 1.0, mask=mask)
        fps = [[0, 1], [2, 3, 4], [5, 6, 7, 16, 20], [99]]
        with pytest.raises(InvalidFootprintError, match=r"\[6, 16, 20\]$"):
            one_per_footprint(fps).footprint_matrix(g)

    def test_unused_footprint_not_checked(self):
        g = build_grid(2, 2, 1.0)
        obs = Observations(time=[1], instrument=[1], footprint=[1], value=[0.0],
                           var_factor=[1.0], fp_indptr=[0, 1, 2], fp_indices=[99, 3],
                           n_times=1)
        assert obs.footprint_matrix(g)[1].toarray().ravel().tolist() == [0, 0, 0, 1]

    def test_one_validity_check(self, monkeypatch):
        g = build_grid(12, 10, 1.0)
        fps = self._footprints(g.n_bau, 40)
        calls = []
        real = BAUGrid.is_valid

        def counting(self, idx):
            calls.append(np.asarray(idx).size)
            return real(self, idx)

        monkeypatch.setattr(BAUGrid, "is_valid", counting)
        one_per_footprint(fps).footprint_matrix(g)
        assert calls == [sum(fp.size for fp in fps)]


def _observations(**kw):
    base = dict(time=[1], instrument=[1], footprint=[0], value=[0.5], var_factor=[1.0],
                fp_indptr=[0, 1], fp_indices=[0], n_times=1)
    return Observations(**{**base, **kw})


class TestObservations:
    def test_footprint_canonicalized(self):
        obs = _observations(fp_indptr=[0, 3], fp_indices=[3, 1, 3])
        assert obs.fp_indices.tolist() == [1, 3]
        assert obs.fp_indptr.tolist() == [0, 2]
        row = obs.footprint_matrix(build_grid(2, 2, 1.0)).toarray().ravel()
        assert row.tolist() == [0.0, 0.5, 0.0, 0.5]

    @pytest.mark.parametrize("bad", [dict(instrument=[0]), dict(instrument=[1.0]),
                                     dict(var_factor=[0.0]), dict(var_factor=[-1.0]),
                                     dict(var_factor=[np.nan]), dict(time=[2]),
                                     dict(footprint=[1]), dict(fp_indptr=[])])
    def test_bad_record_rejected(self, bad):
        with pytest.raises(ValueError):
            _observations(**bad)

    def test_empty_footprint_rejected(self):
        with pytest.raises(InvalidFootprintError):
            _observations(fp_indptr=[0, 1, 1], fp_indices=[0])

    def test_records_sorted_by_time_then_instrument_stably(self):
        obs = _observations(time=[2, 1, 2, 1, 2], instrument=[1, 2, 1, 1, 2],
                            footprint=[0] * 5, value=[0, 1, 2, 3, 4],
                            var_factor=[1.0] * 5, n_times=2)
        assert obs.value.tolist() == [3, 1, 0, 2, 4]
        assert obs.time_bounds().tolist() == [0, 2, 5]

    def test_trailing_time_without_records_counts(self):
        g = build_grid(2, 2, 1.0)
        obs = _observations(n_times=3)
        data = assemble(obs, g, layout_multires(g.bbox, [1]), build_adjacency(g),
                        covariates=("1",))
        assert [s.n_obs for s in data.slices] == [1, 0, 0]
