import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import make_instance, make_observations

from dfgp.car import CARParams
from dfgp.dense import DenseJoint
from dfgp.dynamics import filter_pass
from dfgp.grid import build_grid
from dfgp.model import DFGPParams, assemble
from dfgp.synth import build_adjacency


def _scalar_diag_instance(n=6, tau2=0.7, sig2=0.3):
    """T=1, S-effect removed, B=I, independent CAR (gamma=0), V = sig2 I."""
    grid = build_grid(n, 1, 1.0)
    structure = build_adjacency(grid)
    from dfgp.basis import layout_multires
    basis = layout_multires(grid.bbox, [1])
    obs = make_observations([(1, 1, [i], 0.0, 1.0) for i in range(n)], 1)
    data = assemble(obs, grid, basis, structure, covariates=("1",))
    params = DFGPParams(beta=np.zeros((1, 1)), H=np.zeros((1, 1)),
                        U=1e-18 * np.eye(1), K0=1e-18 * np.eye(1),
                        car=(CARParams(0.0, tau2),),
                        sigma2_eps=np.array([[sig2]]))
    return data, params


class TestMarginal:
    def test_scalar_diagonal_hand_value(self):
        # chain degrees are (1,2,...,2,1): Q = diag(e)/tau2, D^{-1} = tau2/e + sig2
        n, tau2, sig2 = 6, 0.7, 0.3
        data, params = _scalar_diag_instance(n, tau2, sig2)
        deg = data.structure.degrees
        expect = float(np.log(tau2 / deg + sig2).sum())
        assert filter_pass(data, params).neg2loglik == pytest.approx(expect, rel=1e-8)

    def test_zero_innovations_leave_only_logdet(self):
        data, params = make_instance(1)
        for st in filter_pass(data, params).states:
            assert st.quad[0] >= 0
        # rebuild data with Z set to the trend so every innovation vanishes
        for t, slc in enumerate(data.slices, 1):
            slc.z = slc.X @ params.beta[t - 1]
        params = dataclasses.replace(params, H=np.zeros_like(np.asarray(params.H)))
        filt = filter_pass(data, params)
        states = [st for st in filt.states if st.n_obs > 0]
        assert filt.neg2loglik == pytest.approx(sum(st.logdet_sigma for st in states),
                                                rel=1e-12)
        for st in states:
            assert st.quad[0] == pytest.approx(0.0, abs=1e-16)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_evaluation(self, seed):
        data, params = make_instance(seed)
        dj = DenseJoint(data, params)
        assert filter_pass(data, params).neg2loglik == pytest.approx(dj.neg2loglik(),
                                                                     rel=1e-10)

    def test_reorder_invariance(self):
        data, params = make_instance(3)
        # permute the fine-instrument records within each batch
        rng = np.random.default_rng(0)
        records = []
        for t, slc in enumerate(data.slices, 1):
            recs = []
            for i in range(slc.n_obs):
                cols = slc.B[i].indices
                baus = data.structure.valid_idx[cols]
                recs.append((t, 1, baus, float(slc.z[i]), float(slc.v_factors[i])))
            order = rng.permutation(len(recs))
            records += [recs[i] for i in order]
        data2 = assemble(make_observations(records, len(data.slices)), data.grid,
                         data.basis, data.structure, covariates=("1", "y"))
        params2 = dataclasses.replace(params, sigma2_eps=params.sigma2_eps[:, :1])
        params1 = dataclasses.replace(params, sigma2_eps=np.column_stack(
            [params.sigma2_eps[:, 0], params.sigma2_eps[:, 0]]))
        # same per-record variances requires a single shared sigma2
        base = filter_pass(data, params1).neg2loglik
        assert filter_pass(data2, params2).neg2loglik == pytest.approx(base, rel=1e-9)

    def test_woodbury_quadratic_matches_dense_on_random_vectors(self):
        data, params = make_instance(2, T=1)
        dj = DenseJoint(data, params)
        n = data.slices[0].n_obs
        rng = np.random.default_rng(5)
        extra = rng.standard_normal((n, 3))
        filt = filter_pass(data, params, extra_obs=[extra])
        mu = dj.mean_z
        sig = dj.cov_z
        for j in range(3):
            resid = extra[:, j] - mu
            expect = resid @ np.linalg.solve(sig, resid)
            assert filt.states[0].quad[j + 1] == pytest.approx(expect, rel=1e-8)

    def test_lowrank_reduction_matches_direct_innovation_form(self):
        # independent dense implementation of the low-rank-only likelihood
        data, params = make_instance(4)
        got = filter_pass(data, params, lowrank_only=True).neg2loglik
        eta = np.zeros(params.r)
        P = params.K0.copy()
        total = 0.0
        for t in range(1, params.u + 1):
            slc = data.slices[t - 1]
            H, U = params.H_at(t), params.U_at(t)
            eta = H @ eta
            P = H @ P @ H.T + U
            S = slc.S.toarray() if sp.issparse(slc.S) else slc.S
            v = slc.v_diag(params.sigma2_eps[t - 1])
            sig = S @ P @ S.T + np.diag(v)
            alpha = slc.z - slc.X @ params.beta[t - 1] - S @ eta
            total += np.linalg.slogdet(sig)[1] + alpha @ np.linalg.solve(sig, alpha)
            gain = P @ S.T @ np.linalg.inv(sig)
            eta = eta + gain @ alpha
            P = P - gain @ S @ P
        assert got == pytest.approx(total, rel=1e-8)

