import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_observations

from dfgp.basis import BisquareBasis, bau_basis_values, bisquare_eval, layout_multires
from dfgp.car import build_adjacency
from dfgp.grid import _POINT_CHUNK, BAUPointSample, build_grid
from dfgp.model import as_dense, assemble


def footprint_design(basis, grid, footprints):
    """S of one time step observing each footprint once, and S at BAU level."""
    obs = make_observations([(1, 1, fp, 0.0, 1.0) for fp in footprints], 1)
    data = assemble(obs, grid, basis, build_adjacency(grid), covariates=("1",))
    return as_dense(data.slices[0].S), data.S_bau, obs


class TestBisquareEval:
    def test_center_is_one(self):
        assert bisquare_eval(np.array([[0.0, 0.0]]), (0, 0), 2.0)[0] == 1.0

    def test_boundary_is_zero(self):
        assert bisquare_eval(np.array([[2.0, 0.0]]), (0, 0), 2.0)[0] == 0.0

    def test_half_radius(self):
        v = bisquare_eval(np.array([[1.0, 0.0]]), (0, 0), 2.0)[0]
        assert v == pytest.approx(0.5625)

    def test_outside_support_exactly_zero(self):
        v = bisquare_eval(np.array([[5.0, 5.0]]), (0, 0), 2.0)[0]
        assert v == 0.0

    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 4))
    @settings(max_examples=100, deadline=None)
    def test_range_zero_one(self, x, y, radius):
        v = bisquare_eval(np.array([[x, y]]), (0.0, 0.0), radius)[0]
        assert 0.0 <= v <= 1.0

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            bisquare_eval(np.array([[0.0, 0.0]]), (0, 0), 0.0)


class TestLayout:
    def test_counts_sum_99_three_resolutions(self):
        b = layout_multires((0, 0, 10, 10), [9, 25, 65])
        assert b.r == 99
        assert len(set(b.resolution.tolist())) == 3

    def test_counts_sum_181_four_resolutions(self):
        b = layout_multires((0, 0, 10, 10), [9, 25, 65, 82])
        assert b.r == 181
        assert len(set(b.resolution.tolist())) == 4

    def test_single_center_at_midpoint(self):
        b = layout_multires((0, 0, 1, 1), [1])
        assert np.allclose(b.centers[0], [0.5, 0.5])

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            layout_multires((0, 0, 1, 1), [])

    def test_radius_is_mult_times_spacing(self):
        b = layout_multires((0, 0, 8, 8), [4], radius_mult=1.5)
        assert np.allclose(b.radii, 1.5 * 4.0)

    def test_centers_equally_spaced(self):
        b = layout_multires((0, 0, 8, 8), [4])
        xs = np.unique(b.centers[:, 0])
        assert np.allclose(np.diff(xs), 4.0)


class TestBasisMatrix:
    def test_far_target_zero_row(self):
        g = build_grid(8, 8, 1.0)
        b = BisquareBasis(np.array([[0.5, 0.5]]), np.array([1.0]), np.array([0]))
        vals = bau_basis_values(b, g)
        assert vals[63, 0] == 0.0   # opposite corner, far outside support

    def test_single_bau_footprint_equals_bau_row(self):
        g = build_grid(4, 4, 1.0)
        b = layout_multires(g.bbox, [4])
        fp, bau, _obs = footprint_design(b, g, [[5]])
        assert np.allclose(fp[0], bau[5])

    def test_entries_in_unit_interval(self):
        g = build_grid(5, 5, 1.0)
        b = layout_multires(g.bbox, [1, 4])
        vals = bau_basis_values(b, g)
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_whole_domain_function_footprint_mean(self):
        g = build_grid(3, 3, 1.0)
        b = BisquareBasis(np.array([[1.5, 1.5]]), np.array([50.0]), np.array([0]))
        fp, bau, _obs = footprint_design(b, g, [[0, 4, 8]])
        assert np.array_equal(bau, bau_basis_values(b, g, BAUPointSample(g)))
        assert fp[0, 0] == pytest.approx(bau[[0, 4, 8], 0].mean())

    def test_cos_linearity(self):
        # footprint rows of the basis design equal the footprint matrix @ BAU rows
        g = build_grid(4, 4, 1.0)
        b = layout_multires(g.bbox, [4])
        fp, bau, obs = footprint_design(b, g, [[0, 1, 4], [10, 11]])
        assert np.allclose(fp, obs.footprint_matrix(g) @ bau)


def _per_function_reference(basis, grid, sample):
    """bau_basis_values as one ``sample.average`` per function over the BAUs
    whose cell can meet its support: the formulation the chunked evaluation
    must reproduce bit for bit."""
    out = np.zeros((grid.n_bau, basis.r))
    cents = grid.centroids
    reach = grid.cell_size * np.sqrt(0.5)
    for i in range(basis.r):
        c, rad = basis.centers[i], basis.radii[i]
        near = np.flatnonzero((np.abs(cents[:, 0] - c[0]) <= rad + reach)
                              & (np.abs(cents[:, 1] - c[1]) <= rad + reach))
        if near.size:
            out[near, i] = sample.average(lambda p, c=c, rad=rad: bisquare_eval(p, c, rad),
                                          near)
    return out


class TestChunkedBauBasisValues:
    """bau_basis_values draws each point chunk once and evaluates every
    function on it."""

    @staticmethod
    def _setup():
        # 10,000 BAUs span two point chunks; offset origin, half cells, a mask
        mask = np.ones(100 * 100, dtype=bool)
        mask[[0, 57, 8191, 8192, 9999]] = False
        g = build_grid(100, 100, 0.5, origin=(-3.0, 7.25), mask=mask)
        assert g.n_bau > _POINT_CHUNK
        return g, layout_multires(g.bbox, [4, 9, 16]), BAUPointSample(g, seed=11)

    def test_bitwise_equal_to_per_function_average(self):
        g, b, sample = self._setup()
        got = bau_basis_values(b, g, sample)
        assert np.array_equal(got, _per_function_reference(b, g, sample))
        assert (got > 0).any(axis=0).all()

    def test_one_point_draw_per_chunk(self, monkeypatch):
        g, b, sample = self._setup()
        calls = []
        real = BAUPointSample.points_for

        def counting(self, indices):
            calls.append(np.asarray(indices).size)
            return real(self, indices)

        monkeypatch.setattr(BAUPointSample, "points_for", counting)
        bau_basis_values(b, g, sample)
        assert len(calls) <= -(-g.n_bau // _POINT_CHUNK)
        assert sum(calls) == g.n_bau
