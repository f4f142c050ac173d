import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dtrtri
from conftest import relerr, stand_in_pool
from oracle import build_precision

import dfgp.car as car
from dfgp.car import (CARParams, CARStructure, GAMMA_MAX, SELECTED_INVERSION_MIN,
                      KroneckerSumFactor, OrderedPrecision, SparseFactor, _selected_inverse,
                      _supernode_tree, build_adjacency, column_sq_norms, nested_dissection,
                      run_parallel, sample_car, sparse_factorize)
from dfgp.exceptions import (FactorizationError, InvalidParameterError,
                             StructureError)
from dfgp.grid import build_grid


class TestAdjacency:
    def test_3x3_center_has_4_neighbors(self):
        s = build_adjacency(build_grid(3, 3, 1.0))
        assert s.degrees[4] == 4

    def test_3x3_corner_has_2_neighbors(self):
        s = build_adjacency(build_grid(3, 3, 1.0))
        assert s.degrees[0] == 2

    def test_1x2_chain(self):
        s = build_adjacency(build_grid(2, 1, 1.0))
        assert np.array_equal(s.adjacency.toarray(), [[0, 1], [1, 0]])
        assert np.array_equal(s.degrees, [1, 1])

    def test_isolated_bau_named_in_error(self):
        mask = np.array([True, False, False, True])   # two diagonal cells, no link
        with pytest.raises(StructureError, match=r"0|3"):
            build_adjacency(build_grid(2, 2, 1.0, mask=mask))

    def test_full_grid_factors_in_closed_form(self):
        full = build_adjacency(build_grid(5, 3, 1.0))
        assert full.grid_shape == (3, 5)
        assert isinstance(full.factor(0.5), KroneckerSumFactor)
        mask = np.ones(15, dtype=bool)
        mask[7] = False
        masked = build_adjacency(build_grid(5, 3, 1.0, mask=mask))
        assert masked.grid_shape is None
        assert isinstance(masked.factor(0.5), SparseFactor)
        explicit = CARStructure(full.adjacency, full.valid_idx)
        assert explicit.grid_shape is None
        assert isinstance(explicit.factor(0.5), SparseFactor)

    def test_long_strip_keeps_sparse_factor(self):
        # the closed form would hold a 24,000 x 24,000 eigenvector matrix
        s = build_adjacency(build_grid(24000, 2, 1.0))
        assert s.grid_shape == (2, 24000) and not s.closed_form
        tracemalloc.start()
        try:
            f = s.factor(0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(f, SparseFactor)
        assert peak < 64 * 2**20


class TestPrecision:
    def test_gamma_zero_is_degree_diagonal(self):
        s = build_adjacency(build_grid(3, 3, 1.0))
        q = build_precision(s, CARParams(0.0, 2.0)).toarray()
        assert np.allclose(q, np.diag(s.degrees) / 2.0)

    def test_1x2_hand_value(self):
        s = build_adjacency(build_grid(2, 1, 1.0))
        q = build_precision(s, CARParams(0.5, 1.0)).toarray()
        assert np.allclose(q, [[1.0, -0.5], [-0.5, 1.0]])

    def test_symmetric_positive_definite(self):
        s = build_adjacency(build_grid(5, 4, 1.0))
        for gamma in (0.0, 0.5, 0.95, GAMMA_MAX):
            q = build_precision(s, CARParams(gamma, 0.7)).toarray()
            assert np.allclose(q, q.T)
            assert np.linalg.eigvalsh(q).min() > 0

    def test_gamma_out_of_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            CARParams(1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            CARParams(-0.1, 1.0)
        with pytest.raises(InvalidParameterError):
            CARParams(0.5, 0.0)

    def test_logdet_consistency_identity(self):
        # ln|Q| = -N ln tau2 + sum ln e_i+ + ln|I - gamma W|
        s = build_adjacency(build_grid(4, 4, 1.0))
        p = CARParams(0.8, 1.7)
        dense = np.linalg.slogdet(build_precision(s, p).toarray())[1]
        assert s.precision_logdet(p) == pytest.approx(dense, rel=1e-10)
        w = (sp.diags(1.0 / s.degrees) @ s.adjacency).toarray()   # W = D^{-1} E
        direct = (-16 * np.log(p.tau2) + np.log(s.degrees).sum()
                  + np.linalg.slogdet(np.eye(16) - p.gamma * w)[1])
        assert s.precision_logdet(p) == pytest.approx(direct, rel=1e-10)


class TestBasePrecision:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, GAMMA_MAX])
    def test_matches_diags_minus_gamma_e(self, gamma):
        mask = np.ones(30, dtype=bool)
        mask[[0, 7, 8, 22]] = False
        s = build_adjacency(build_grid(6, 5, 1.0, mask=mask))
        want = (sp.diags(s.degrees) - gamma * s.adjacency).tocsc()
        got = s.base_precision(gamma)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


class TestSparseFactor:
    def test_identity(self):
        import scipy.sparse as sp
        f = sparse_factorize(sp.eye(5, format="csc"))
        assert f.logdet() == pytest.approx(0.0, abs=1e-14)
        x = np.arange(5.0)
        assert np.allclose(f.solve(x), x)

    def test_random_spd_logdet_vs_eigvals(self):
        import scipy.sparse as sp
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 20))
        m = a @ a.T + 20 * np.eye(20)
        f = sparse_factorize(sp.csc_matrix(m))
        expect = np.log(np.linalg.eigvalsh(m)).sum()
        assert f.logdet() == pytest.approx(expect, rel=1e-8)

    def test_1x2_hand_logdet(self):
        s = build_adjacency(build_grid(2, 1, 1.0))
        f = sparse_factorize(build_precision(s, CARParams(0.5, 1.0)))
        assert f.logdet() == pytest.approx(np.log(0.75), rel=1e-12)

    def test_non_spd_raises(self):
        import scipy.sparse as sp
        m = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        with pytest.raises(FactorizationError):
            sparse_factorize(m)

    def test_solve_residual_tight(self):
        s = build_adjacency(build_grid(10, 10, 1.0))
        q = build_precision(s, CARParams(0.9, 0.5))
        f = sparse_factorize(q)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(100)
        x = f.solve(b)
        assert np.abs(q @ x - b).max() / np.abs(b).max() < 1e-10

    def test_selected_diag_matches_dense(self):
        s = build_adjacency(build_grid(4, 4, 1.0))
        q = build_precision(s, CARParams(0.6, 1.3))
        f = sparse_factorize(q)
        idx = np.array([0, 5, 15])
        dense = np.diag(np.linalg.inv(q.toarray()))[idx]
        assert np.allclose(f.solve_selected_diag(idx), dense)


class TestRunParallel:
    def test_results_in_order_and_errors_reraise(self):
        assert run_parallel([lambda k=k: k for k in range(20)]) == list(range(20))
        indefinite = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(FactorizationError):
            run_parallel([lambda: 1, lambda: sparse_factorize(indefinite)])


class TestUnitVariances:
    """Below SELECTED_INVERSION_MIN indices the diagonal of M^{-1} is the
    squared column norms of forward half solves of unit vectors."""

    def test_diag_matches_dense_with_forward_solves_only(self, monkeypatch):
        s = build_adjacency(build_grid(10, 10, 1.0))
        q = build_precision(s, CARParams(0.9, 0.7))
        f = sparse_factorize(q)
        widths = []
        real = SparseFactor.solve

        def recording(self, b, half=False):
            assert half
            widths.append(b.shape[1])
            return real(self, b, half)

        monkeypatch.setattr(SparseFactor, "solve", recording)
        monkeypatch.setattr(SparseFactor, "_backward", None)     # no backward pass
        idx = np.array([97, 3, 50, 51, 0, 12, 88, 40, 41, 42, 7, 66, 99, 23, 5, 60, 30, 2, 77, 14])
        assert idx.size < SELECTED_INVERSION_MIN
        inv = np.linalg.inv(q.toarray())
        diag = f.solve_selected_diag(idx)
        assert np.abs(diag - np.diag(inv)[idx]).max() <= 1e-12 * np.abs(inv).max()
        assert sum(widths) == idx.size


class TestSampleCAR:
    def test_deterministic_given_seed(self):
        s = build_adjacency(build_grid(3, 3, 1.0))
        p = CARParams(0.5, 1.0)
        a = sample_car(s, p, np.random.default_rng(7))
        b = sample_car(s, p, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_scaling_with_tau(self):
        s = build_adjacency(build_grid(3, 3, 1.0))
        a = sample_car(s, CARParams(0.4, 1.0), np.random.default_rng(1))
        b = sample_car(s, CARParams(0.4, 1e-6), np.random.default_rng(1))
        assert np.allclose(b, a * 1e-3)

    def test_gamma_zero_variance_matches_degrees(self):
        # at gamma=0 the components are independent with variance tau2/e_i+
        s = build_adjacency(build_grid(2, 1, 1.0))
        x = sample_car(s, CARParams(0.0, 2.0), np.random.default_rng(0), size=200000)
        assert np.allclose(x.var(axis=0), 2.0, rtol=0.02)

    def test_4x4_empirical_covariance(self):
        s = build_adjacency(build_grid(4, 4, 1.0))
        p = CARParams(0.6, 2.0)
        n = 100000
        x = sample_car(s, p, np.random.default_rng(42), size=n)
        emp = np.cov(x.T)
        tgt = np.linalg.inv(build_precision(s, p).toarray())
        mcse = np.sqrt((np.outer(np.diag(tgt), np.diag(tgt)) + tgt**2) / n)
        assert (np.abs(emp - tgt) <= 5.0 * mcse).all()


def _gamma_sweep():
    """Linear range, points 1 - 10^-k up to GAMMA_MAX, and random points."""
    return np.concatenate([np.linspace(0.0, 0.99, 100),
                           1.0 - 10.0 ** -np.arange(1, 7), [GAMMA_MAX],
                           np.random.default_rng(5).uniform(0.0, GAMMA_MAX, 30)])


@pytest.mark.parametrize("nx, ny", [(20, 20), (37, 23), (1, 50), (50, 1)])
class TestKroneckerSumFactor:
    """The closed-form factor of a full grid against SuperLU on D - gamma E
    (built directly: ``CARStructure.factor`` leaves the strips to SuperLU)."""

    def test_matches_sparse_factor(self, nx, ny):
        s = build_adjacency(build_grid(nx, ny, 1.0))
        rng = np.random.default_rng(8)
        b = rng.standard_normal((s.n, 3))
        idx = rng.choice(s.n, size=min(200, s.n), replace=False)
        for gamma in _gamma_sweep():
            want = sparse_factorize(s.base_precision(gamma))
            got = KroneckerSumFactor((ny, nx), gamma)
            assert got.shape == want.shape
            assert abs(got.logdet() - want.logdet()) <= 1e-12 * abs(want.logdet()), gamma
            # near gamma = 1 the condition number is ~1e6, and both solves
            # carry its rounding
            tol = 1e-12 if gamma <= 0.999 else 1e-9
            assert relerr(got.solve(b), want.solve(b)) <= tol, gamma
            assert relerr(got.solve_selected_diag(idx), want.solve_selected_diag(idx)) <= tol

    def test_vector_solve_and_gamma_one(self, nx, ny):
        s = build_adjacency(build_grid(nx, ny, 1.0))
        f = KroneckerSumFactor((ny, nx), 0.9)
        x = np.random.default_rng(2).standard_normal(s.n)
        got = f.solve(s.base_precision(0.9) @ x)
        assert got.shape == (s.n,) and relerr(got, x) <= 1e-12
        for gamma in (1.0, 1.5):
            with pytest.raises(FactorizationError):
                KroneckerSumFactor((ny, nx), gamma)


def _two_component_grid():
    """60x40 grid cut in two by a masked column (N = 2360)."""
    mask = np.ones((40, 60), dtype=bool)
    mask[:, 30] = False
    return build_adjacency(build_grid(60, 40, 1.0, mask=mask.ravel()))


class TestLogdetCurve:
    @pytest.mark.parametrize("make", [lambda: build_adjacency(build_grid(20, 20, 1.0)),
                                      lambda: build_adjacency(build_grid(100, 100, 1.0)),
                                      _two_component_grid],
                             ids=["20x20", "100x100", "two-components"])
    def test_matches_exact_sparse_path(self, make):
        s = make()
        gammas = _gamma_sweep()
        exact = np.array([sparse_factorize(s.base_precision(g)).logdet()
                          for g in gammas]) - np.log(s.degrees).sum()
        curve = np.array([s.logdet_curve(g) for g in gammas])
        # relative to max(|value|, 1): near gamma = 0 the value tends to 0 and
        # the exact path's own rounding (~1e-11 absolute at N = 10^4) dominates
        rel = np.abs(curve - exact) / np.maximum(np.abs(exact), 1.0)
        assert rel.max() <= 1e-10

    def test_matches_closed_form_at_256x256(self):
        # the curve at N = 65,536 against the closed form rather than 137
        # SuperLU factors; the largest error, 4.5e-11, is at gamma = 0.01
        s = build_adjacency(build_grid(256, 256, 1.0))
        gammas = _gamma_sweep()
        exact = np.array([KroneckerSumFactor((256, 256), g).logdet()
                          for g in gammas]) - np.log(s.degrees).sum()
        curve = np.array([s.logdet_curve(g) for g in gammas])
        rel = np.abs(curve - exact) / np.maximum(np.abs(exact), 1.0)
        assert rel.max() <= 1e-10

    @pytest.mark.parametrize("workers", [1, 8])
    def test_curve_independent_of_workers(self, workers):
        ref = _two_component_grid()._logdet_chebyshev.coef
        with stand_in_pool(workers) as requests:
            got = _two_component_grid()._logdet_chebyshev.coef
        assert requests
        assert np.array_equal(got, ref)

    def test_counts_components(self):
        assert _two_component_grid().n_components == 2
        assert build_adjacency(build_grid(5, 4, 1.0)).n_components == 1

    def test_sampling_fills_exact_memo(self, monkeypatch):
        # a full grid: count the factors CARStructure.factor builds
        s = build_adjacency(build_grid(50, 50, 1.0))
        p = CARParams(0.7, 1.0)
        a = sample_car(s, p, np.random.default_rng(3))
        calls = []
        real = CARStructure.factor
        monkeypatch.setattr(CARStructure, "factor",
                            lambda self, gamma: calls.append(gamma) or real(self, gamma))
        memo = s.precision_logdet(p)
        assert not calls
        fresh = build_adjacency(build_grid(50, 50, 1.0)).precision_logdet(p)
        assert calls == [0.7]   # the count sees the fresh structure's factor
        assert memo == fresh
        b = sample_car(s, p, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_sampling_fills_exact_memo_on_masked_grid(self, monkeypatch):
        mask = np.ones(2500, dtype=bool)
        mask[[0, 1234]] = False
        s = build_adjacency(build_grid(50, 50, 1.0, mask=mask))
        p = CARParams(0.7, 1.0)
        a = sample_car(s, p, np.random.default_rng(3))
        calls = []
        monkeypatch.setattr("dfgp.car.sparse_factorize",
                            lambda m: calls.append(1) or sparse_factorize(m))
        memo = s.precision_logdet(p)
        assert not calls
        fresh = build_adjacency(build_grid(50, 50, 1.0, mask=mask)).precision_logdet(p)
        assert calls == [1]
        assert memo == fresh
        b = sample_car(s, p, np.random.default_rng(3))
        assert np.array_equal(a, b)


def _scenario_f(nx=24, ny=20):
    """F = Q + B' V^{-1} B of the first time step of a small scenario."""
    from dfgp.synth import ScenarioConfig, scenario_data
    truth, _obs, data = scenario_data(ScenarioConfig(nx=nx, ny=ny, T=1, seed=2))
    slc, p = data.slices[0], truth.params
    vinv = 1.0 / slc.v_diag(p.sigma2_eps[0])
    return (build_precision(data.structure, p.car[0])
            + slc.B.T @ sp.diags(vinv) @ slc.B).tocsc()


_SELINV_CASES = pytest.mark.parametrize("make", [
    lambda: build_precision(build_adjacency(build_grid(20, 16, 1.0)), CARParams(0.999, 1.0)),
    lambda: build_precision(_two_component_grid(), CARParams(0.9, 0.5)),
    _scenario_f,
    lambda: sp.diags(np.random.default_rng(0).uniform(0.5, 2.0, 300)).tocsc(),
], ids=["rook-0.999", "two-components", "scenario-F", "diagonal"])


def _takahashi_by_supernode(L, d):
    """The Takahashi recursion one supernode at a time, last first, with a
    binary search for every entry of Z_KK: the reference that the walk over
    the elimination tree in stacks must reproduce bit for bit."""
    L = sp.csc_matrix(L)
    L.sort_indices()
    n = L.shape[0]
    ip, rows, cnt = L.indptr.astype(np.int64), L.indices, np.diff(L.indptr)
    col = np.repeat(np.arange(n), cnt)
    keys = col * n + rows
    joins = np.zeros(n, dtype=bool)
    joins[:-1] = cnt[:-1] == cnt[1:] + 1
    p = np.flatnonzero(joins[col] & (rows != col))
    joins[col[p[rows[p] != rows[p + cnt[col[p]] - 1]]]] = False
    starts = np.flatnonzero(np.concatenate([[True], ~joins[:-1]]))
    ends = np.append(starts[1:], n)
    lcol = col - np.repeat(starts, ends - starts)[col]
    lrow = np.arange(col.size) - ip[:-1][col] + lcol
    Z = np.empty(keys.size)
    for s, e in zip(starts[::-1], ends[::-1]):
        w, a, b = e - s, ip[s], ip[e]
        K = rows[ip[e - 1] + 1:b].astype(np.int64)
        r, c = lrow[a:b], lcol[a:b]
        blk = np.zeros((w + K.size, w))
        blk[r, c] = L.data[a:b]
        linv = dtrtri(blk[:w], lower=1, unitdiag=1)[0]
        lh = blk[w:] @ linv
        pos = np.searchsorted(keys, (np.minimum.outer(K, K) * n
                                     + np.maximum.outer(K, K)).ravel())
        blk[w:] = -(Z[pos].reshape(K.size, K.size) @ lh)
        blk[:w] = linv.T @ (linv / d[s:e, None]) - lh.T @ blk[w:]
        Z[a:b] = blk[r, c]
    return Z


class TestSelectedInversion:
    """The Takahashi path of solve_selected_diag and selected_inverse against
    dense inverses."""

    @_SELINV_CASES
    def test_matches_dense_inverse(self, make):
        m = make()
        f = sparse_factorize(m)
        dense = np.diag(np.linalg.inv(m.toarray()))
        got = f._inverse_diagonal()
        assert np.abs(got / dense - 1.0).max() <= 1e-12
        idx = np.random.default_rng(1).permutation(m.shape[0])[:SELECTED_INVERSION_MIN]
        assert np.array_equal(f.solve_selected_diag(idx), got[idx])

    @_SELINV_CASES
    def test_selected_inverse_on_pattern(self, make):
        m = make().tocsc()
        z = sparse_factorize(m).selected_inverse()
        rows, cols = m.nonzero()
        dense = np.linalg.inv(m.toarray())[rows, cols]
        assert np.abs(np.asarray(z[rows, cols]).ravel() / dense - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("make", [
        lambda: build_precision(build_adjacency(build_grid(20, 16, 1.0)), CARParams(0.999, 1.0)),
        lambda: build_precision(_two_component_grid(), CARParams(0.9, 0.5)),
        lambda: _scenario_f(64, 64),
        lambda: build_precision(build_adjacency(build_grid(3000, 2, 1.0)), CARParams(0.99, 1.0)),
    ], ids=["rook-0.999", "two-components", "scenario-F-64x64", "strip"])
    def test_bit_identical_to_one_supernode_at_a_time(self, make):
        # each stacked supernode makes the one-supernode calls on arrays of
        # the same layout, however many share its depth and shape
        f = sparse_factorize(make())
        L, d = f._by_column(), f._d
        assert np.array_equal(_selected_inverse(L, d, f._tree).data, _takahashi_by_supernode(L, d))

    def test_scenario_64x64_diagonal_against_unit_solves(self):
        # cli-smooth-4k's F_t: an elimination tree of many depths whose
        # supernodes have mixed widths and numbers of rows below
        f = sparse_factorize(_scenario_f(64, 64))
        idx = np.random.default_rng(1).choice(f.shape[0], 256, replace=False)
        rhs = np.zeros((f.shape[0], idx.size))
        rhs[idx, np.arange(idx.size)] = 1.0
        unit = f.solve(rhs)[idx, np.arange(idx.size)]
        assert np.abs(f._inverse_diagonal()[idx] / unit - 1.0).max() <= 1e-12

    def test_scenario_64x64_pattern_against_unit_solves(self):
        f = sparse_factorize(_scenario_f(64, 64))
        z = f.selected_inverse()
        cols = np.random.default_rng(1).choice(f.shape[0], 8, replace=False)
        rhs = np.zeros((f.shape[0], cols.size))
        rhs[cols, np.arange(cols.size)] = 1.0
        x = f.solve(rhs)
        for i, j in enumerate(cols):
            rows = z.indices[z.indptr[j]:z.indptr[j + 1]]
            got = z.data[z.indptr[j]:z.indptr[j + 1]]
            assert rows.size > 1
            assert np.abs(got / x[rows, i] - 1.0).max() <= 1e-12

    def test_strip_beyond_int32_keys(self):
        # n = 48,000 > 46,340, where col * n + row no longer fits in int32
        s = build_adjacency(build_grid(24000, 2, 1.0))
        f = sparse_factorize(build_precision(s, CARParams(0.99, 1.0)))
        idx = np.random.default_rng(2).choice(s.n, 20, replace=False)
        rhs = np.zeros((s.n, idx.size))
        rhs[idx, np.arange(idx.size)] = 1.0
        unit = f.solve(rhs)[idx, np.arange(idx.size)]
        assert np.abs(f._inverse_diagonal()[idx] / unit - 1.0).max() <= 1e-12

    def test_working_set_per_factor_entry(self):
        # per entry of L: its data and int32 index, an int64 key, int32 block
        # row and column, and Z; about 32 bytes (58 with int64 block indices)
        f = sparse_factorize(_scenario_f(64, 64))
        nnz = f._by_column().nnz       # the factor's own L, by columns, built here
        tracemalloc.start()
        try:
            f._inverse_diagonal()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * nnz, f"{peak / nnz:.1f} bytes per nnz(L)"

    def test_missing_pattern_entry_raises(self):
        s = build_adjacency(build_grid(10, 10, 1.0))
        f = sparse_factorize(build_precision(s, CARParams(0.5, 1.0)))
        L = f._by_column()
        ip, rows = L.indptr, L.indices
        col = np.repeat(np.arange(s.n), np.diff(ip))
        # drop L[i, j] where i > j are both rows of column c below its
        # diagonal, so the recursion at c needs Z[i, j]
        c = int(np.argmax(np.diff(ip)))
        j, i = rows[ip[c] + 1], rows[ip[c] + 2]
        keep = ~((rows == i) & (col == j))
        assert keep.sum() == L.nnz - 1
        pruned = sp.csc_matrix((L.data[keep], (rows[keep], col[keep])), shape=L.shape)
        with pytest.raises(FactorizationError, match="not closed"):
            _selected_inverse(pruned, f._d, _supernode_tree(pruned, pruned.tocsr()))


def _tiled_f(structure, nx, block, offset, gamma=0.75):
    """F = D - gamma E + 4 B'B for the block x block tiles of the valid cells
    whose tiling starts offset = (rows, columns) cells before the origin, and
    F's ordering inputs: the nodes' (row, column) and the pattern of
    B'B + E."""
    cell = structure.valid_idx
    row, col = np.divmod(cell, nx)
    tile = (row + offset[0]) // block * (nx // block + 2) + (col + offset[1]) // block
    B = sp.csr_matrix((np.ones(cell.size), (np.unique(tile, return_inverse=True)[1],
                                            np.arange(cell.size))))
    B = sp.diags(1.0 / np.asarray(B.sum(axis=1)).ravel()) @ B
    F = (structure.base_precision(gamma) + 4.0 * (B.T @ B)).tocsc()
    return F, np.column_stack([row, col]), B.T @ B + structure.adjacency


def _explicit_structure():
    """A 40 x 30 rook grid with diagonal links, built from its adjacency."""
    full = build_adjacency(build_grid(40, 30, 1.0))
    idx = np.arange(1200).reshape(30, 40)
    diag = np.column_stack([idx[:-1, :-1].ravel(), idx[1:, 1:].ravel()])
    extra = sp.csr_matrix((np.ones(diag.shape[0]), (diag[:, 0], diag[:, 1])), shape=(1200, 1200))
    return CARStructure((full.adjacency + extra + extra.T).tocsr(), full.valid_idx)


def _straddling_mask():
    """A 60 x 50 grid with a lake and a bay cut out."""
    mask = np.ones((50, 60), dtype=bool)
    mask[20:28, 25:40] = False
    mask[:12, 50:] = False
    return build_adjacency(build_grid(60, 50, 1.0, mask=mask.ravel()))


_ORDER_CASES = pytest.mark.parametrize("make", [
    # 5 x 5 tiles offset by (2, 3) straddle both midlines of the masked grid
    lambda: (_straddling_mask(), 60, 5, (2, 3)),
    lambda: (build_adjacency(build_grid(24000, 2, 1.0)), 24000, 2, (1, 1)),
    lambda: (_explicit_structure(), 40, 4, (1, 2)),
], ids=["masked-offset-tiles", "strip-24000x2", "explicit-adjacency"])


class TestNestedDissection:
    """A factor in the nested-dissection order answers as the minimum-degree
    factor of the same matrix does."""

    @staticmethod
    def _factors(make):
        structure, nx, block, offset = make()
        F, coords, pattern = _tiled_f(structure, nx, block, offset)
        order = nested_dissection(coords, pattern)
        assert np.array_equal(np.sort(order), np.arange(structure.n))
        ordered = OrderedPrecision(structure, order)
        fp = (ordered.base_precision(0.75)
              + F[order][:, order] - structure.base_precision(0.75)[order][:, order])
        return F, sparse_factorize(F), SparseFactor(fp.tocsc(), order)

    @_ORDER_CASES
    def test_logdet_and_solve_match_minimum_degree(self, make):
        _, mmd, nd = self._factors(make)
        assert abs(nd.logdet() / mmd.logdet() - 1.0) <= 1e-12
        b = np.random.default_rng(3).standard_normal((mmd.shape[0], 3))
        assert relerr(nd.solve(b), mmd.solve(b)) <= 1e-10
        assert relerr(nd.solve(b[:, 0]), mmd.solve(b[:, 0])) <= 1e-10

    @_ORDER_CASES
    def test_selected_diagonal_both_routes(self, make):
        # on the strip, SuperLU leaves out fill of the nested-dissection
        # factor that underflowed to zero, which selected inversion restores
        _, mmd, nd = self._factors(make)
        idx = np.random.default_rng(4).choice(mmd.shape[0], SELECTED_INVERSION_MIN + 9,
                                              replace=False)
        for some in (idx[:11], idx):     # unit solves, selected inversion
            got, want = nd.solve_selected_diag(some), mmd.solve_selected_diag(some)
            assert np.abs(got / want - 1.0).max() <= 1e-12

    @_ORDER_CASES
    def test_selected_inverse_in_original_order(self, make):
        F, mmd, nd = self._factors(make)
        rows, cols = F.nonzero()        # the part of pattern(L + L') both orders share
        got, want = (np.asarray(f.selected_inverse()[rows, cols]).ravel() for f in (nd, mmd))
        assert relerr(got, want) <= 1e-12

    def test_less_fill_than_minimum_degree_on_offset_tiles(self):
        # a 128 x 128 F_t with 5 x 5 coarse tiles offset by (2, 3): a median
        # cut through the tiles would make separators of whole tile columns
        structure = build_adjacency(build_grid(128, 128, 1.0))
        F, coords, pattern = _tiled_f(structure, 128, 5, (2, 3))
        order = nested_dissection(coords, pattern)
        nd = SparseFactor(F[order][:, order].tocsc(), order)
        assert nd.nnz <= sparse_factorize(F).nnz

    def test_separators_follow_their_halves(self):
        # a 9 x 9 rook grid: the middle column is the top separator, last
        s = build_adjacency(build_grid(9, 9, 1.0))
        order = nested_dissection(np.column_stack(np.divmod(s.valid_idx, 9)), s.adjacency)
        assert sorted(order[-9:] % 9) == [4] * 9
        assert order.size == 81 and np.array_equal(np.sort(order), np.arange(81))

    def test_ordered_precision_is_the_permuted_matrix(self):
        s = _straddling_mask()
        order = np.random.default_rng(5).permutation(s.n)
        ordered = OrderedPrecision(s, order)
        for gamma in (0.3, GAMMA_MAX):
            want = s.base_precision(gamma)[order][:, order]
            assert (ordered.base_precision(gamma) != want).nnz == 0
        B = sp.random(7, s.n, density=0.01, format="csr", random_state=6)
        assert (ordered.relabel(B) != B[:, order]).nnz == 0


def _ordered_factor(structure, nx, block, offset):
    """F = D - 0.75 E + 4 B'B for block x block tiles (``_tiled_f``) and its
    factor in the nested-dissection order of its pattern."""
    F, coords, pattern = _tiled_f(structure, nx, block, offset)
    order = nested_dissection(coords, pattern)
    return F, SparseFactor(F[order][:, order].tocsc(), order)


_LEVEL_CASES = pytest.mark.parametrize("make", [
    lambda: (build_precision(build_adjacency(build_grid(30, 20, 1.0)), CARParams(0.9, 0.5)),
             None),
    lambda: (build_precision(_straddling_mask(), CARParams(0.99, 1.0)), None),
    lambda: _ordered_factor(_straddling_mask(), 60, 5, (2, 3)),
    lambda: _ordered_factor(build_adjacency(build_grid(40, 30, 1.0)), 40, 4, (1, 2)),
], ids=["rook-mmd", "masked-mmd", "masked-nested-dissection", "rook-nested-dissection"])


class TestLevelSolve:
    """Solves against the factor's own L, level by level, against dense
    solves: minimum-degree and nested-dissection factors, masked grids, and
    the 2 x 24,000 strip whose L lost fill that underflowed."""

    @staticmethod
    def _factor(make):
        m, f = make()
        return m.toarray(), f if f is not None else sparse_factorize(m)

    @_LEVEL_CASES
    def test_solve_matches_dense(self, make):
        m, f = self._factor(make)
        b = np.random.default_rng(5).standard_normal((m.shape[0], 3))
        want = np.linalg.solve(m, b)
        assert relerr(f.solve(b), want) <= 1e-12
        assert relerr(f.solve(b[:, 1]), want[:, 1]) <= 1e-12
        assert f.solve(b[:, 1]).shape == (m.shape[0],)
        assert f.solve(b[:, :0]).shape == (m.shape[0], 0)

    def test_public_product_when_the_kernel_is_missing(self, monkeypatch):
        # without scipy's private CSR kernel the levels use m[s:e] @ x
        m = build_precision(build_adjacency(build_grid(30, 20, 1.0)), CARParams(0.9, 0.5))
        b = np.random.default_rng(4).standard_normal((m.shape[0], 3))
        f = sparse_factorize(m)
        want = f.solve(b)
        monkeypatch.setattr(car, "_csr_matvecs", None)
        assert relerr(f.solve(b), want) <= 1e-14
        assert relerr(f.solve(b[:, 0]), want[:, 0]) <= 1e-14

    @_LEVEL_CASES
    def test_half_solves_grams_and_unit_columns(self, make):
        # W = D^{-1/2} L^{-1} P X: W'W = X' M^{-1} X, finish_solve gives M^{-1} X,
        # and the squared column norms of the half solves of unit vectors are
        # the diagonal of M^{-1}
        m, f = self._factor(make)
        n = m.shape[0]
        inv = np.linalg.inv(m)
        x = np.random.default_rng(6).standard_normal((n, 4))
        y = np.empty_like(x)
        y[f.positions] = x
        w = f.solve(y, half=True)
        assert relerr(w.T @ w, x.T @ inv @ x) <= 1e-12
        nodes = np.random.default_rng(7).choice(n, 9, replace=False)
        assert relerr(f.finish_solve(w, np.arange(n)), inv @ x) <= 1e-12
        assert relerr(f.finish_solve(w, nodes), (inv @ x)[nodes]) <= 1e-12
        units = np.zeros((n, nodes.size))
        units[f.positions[nodes], np.arange(nodes.size)] = 1.0
        units = f.solve(units, half=True)
        assert relerr(column_sq_norms(units), np.diag(inv)[nodes]) <= 1e-12
        assert np.array_equal(f.solve_selected_diag(nodes), column_sq_norms(units))
        assert np.array_equal(f.solve_selected_diag(nodes, units), column_sq_norms(units))

    def test_strip_against_band_solve(self):
        # nested dissection of a 2 x 24,000 strip: SuperLU's L leaves out
        # fill that underflowed, and the levels respect every entry it keeps.
        # In the order that interleaves the two rows F is a band matrix.
        s = build_adjacency(build_grid(24000, 2, 1.0))
        F, f = _ordered_factor(s, 24000, 2, (1, 1))
        y, x = np.divmod(s.valid_idx, 24000)
        p = np.lexsort((y, x))
        band = F[p][:, p].tocoo()
        u = int((band.col - band.row).max())
        upper = band.row <= band.col
        ab = np.zeros((u + 1, s.n))
        ab[u + band.row[upper] - band.col[upper], band.col[upper]] = band.data[upper]
        b = np.random.default_rng(8).standard_normal((s.n, 2))
        want = np.empty_like(b)
        want[p] = solveh_banded(ab, b[p])
        assert relerr(f.solve(b), want) <= 1e-12
        assert relerr(f.solve(b[:, 0]), want[:, 0]) <= 1e-12

    def test_unclosed_pattern_solves_by_its_closure(self, monkeypatch):
        # a pattern whose levels would not order the solve is closed first
        real, calls = car._supernode_tree, []

        def first_refuses(L, rows):
            calls.append(L.nnz)
            if len(calls) == 1:
                raise FactorizationError("the pattern of the factor is not closed")
            return real(L, rows)

        monkeypatch.setattr(car, "_supernode_tree", first_refuses)
        m = build_precision(build_adjacency(build_grid(30, 20, 1.0)), CARParams(0.9, 0.5))
        b = np.random.default_rng(9).standard_normal((m.shape[0], 2))
        assert relerr(sparse_factorize(m).solve(b), np.linalg.solve(m.toarray(), b)) <= 1e-12
        assert len(calls) == 2
