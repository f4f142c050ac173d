"""Dense joint-Gaussian reference implementation.

Builds the exact joint distribution of all latent states and observations
and conditions it directly.  Complexity is cubic in (u+1)*r + u*N, so this
path is capped at small N; it is the test oracle for every recursion in
:mod:`dfgp.dynamics` and for the exact-EM E-step, and nothing else uses it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from dfgp.car import CARParams, CARStructure
from dfgp.model import DFGPParams, ModelData, as_dense, sym

DENSE_N_CAP = 256


def build_precision(structure: CARStructure, params: CARParams) -> sp.csc_matrix:
    """Sparse SPD precision Q = (D - gamma E) / tau2."""
    return (structure.base_precision(params.gamma) / params.tau2).tocsc()


class DenseJoint:
    """Exact joint moments of (eta_{0:u}, xi_{1:u}, Z_{1:u}), u = params.u."""

    def __init__(self, data: ModelData, params: DFGPParams):
        u = params.u
        nv = data.structure.n
        if nv > DENSE_N_CAP:
            raise ValueError(f"dense path refused above N={DENSE_N_CAP} (got {nv})")
        r = params.r
        self.u, self.r, self.nv = u, r, nv
        self.data, self.params = data, params

        # state layout: eta_0..eta_u then xi_1..xi_u
        self.dim_x = (u + 1) * r + u * nv
        self._eta0 = 0
        self._xi0 = (u + 1) * r

        var_eta = [params.K0]
        for t in range(1, u + 1):
            H, U = params.H_at(t), params.U_at(t)
            var_eta.append(sym(H @ var_eta[-1] @ H.T + U))
        cov_x = np.zeros((self.dim_x, self.dim_x))
        for s in range(u + 1):
            block = var_eta[s]
            cov_x[self.eta_slice(s), self.eta_slice(s)] = block
            prop = block
            for t in range(s + 1, u + 1):
                prop = prop @ params.H_at(t).T          # cov(eta_s, eta_t)
                cov_x[self.eta_slice(s), self.eta_slice(t)] = prop
                cov_x[self.eta_slice(t), self.eta_slice(s)] = prop.T
        self.q_inv = []
        for t in range(1, u + 1):
            if not params.car:                        # the fixed-rank model: xi = 0
                qi = np.zeros((nv, nv))
            else:
                qi = sym(np.linalg.inv(
                    build_precision(data.structure, params.car[t - 1]).toarray()))
            self.q_inv.append(qi)
            cov_x[self.xi_slice(t), self.xi_slice(t)] = qi
        self.cov_x = cov_x

        ns = [data.slices[t - 1].n_obs for t in range(1, u + 1)]
        self.z_starts = np.concatenate([[0], np.cumsum(ns)])
        nz = int(self.z_starts[-1])
        mean_z = np.zeros(nz)
        cov_z = np.zeros((nz, nz))
        cov_xz = np.zeros((self.dim_x, nz))
        for t in range(1, u + 1):
            slc = data.slices[t - 1]
            if slc.n_obs == 0:
                continue
            S, B = as_dense(slc.S), as_dense(slc.B)
            zt = self.z_slice(t)
            mean_z[zt] = slc.X @ params.beta[t - 1]
            cov_xz[:, zt] = (cov_x[:, self.eta_slice(t)] @ S.T
                             + cov_x[:, self.xi_slice(t)] @ B.T)
            for s in range(1, u + 1):
                sls = data.slices[s - 1]
                if sls.n_obs == 0:
                    continue
                Ss, Bs = as_dense(sls.S), as_dense(sls.B)
                blk = Ss @ cov_x[self.eta_slice(s), self.eta_slice(t)] @ S.T
                if s == t:
                    blk = blk + Bs @ self.q_inv[t - 1] @ B.T
                    blk = blk + np.diag(slc.v_diag(params.sigma2_eps[t - 1]))
                cov_z[self.z_slice(s), zt] = blk
        self.mean_z = mean_z
        self.cov_z = sym(cov_z)
        self.cov_xz = cov_xz

    def eta_slice(self, t: int) -> slice:
        return slice(t * self.r, (t + 1) * self.r)

    def xi_slice(self, t: int) -> slice:
        return slice(self._xi0 + (t - 1) * self.nv, self._xi0 + t * self.nv)

    def z_slice(self, t: int) -> slice:
        return slice(int(self.z_starts[t - 1]), int(self.z_starts[t]))

    def stacked_z(self, upto: int | None = None) -> np.ndarray:
        upto = self.u if upto is None else upto
        return np.concatenate(
            [self.data.slices[t - 1].z for t in range(1, upto + 1)])

    def posterior(self, upto: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance of the full state given Z_{1:upto}."""
        upto = self.u if upto is None else upto
        nz = int(self.z_starts[upto])
        if nz == 0:
            return np.zeros(self.dim_x), self.cov_x.copy()
        czz = self.cov_z[:nz, :nz]
        cxz = self.cov_xz[:, :nz]
        mean = cxz @ np.linalg.solve(czz, self.stacked_z(upto) - self.mean_z[:nz])
        cov = sym(self.cov_x - cxz @ np.linalg.solve(czz, cxz.T))
        return mean, cov

    def neg2loglik(self, upto: int | None = None) -> float:
        """-2 log N(Z_{1:upto}; mean, cov), dropping the n*ln(2*pi) constant."""
        upto = self.u if upto is None else upto
        nz = int(self.z_starts[upto])
        if nz == 0:
            return 0.0
        resid = self.stacked_z(upto) - self.mean_z[:nz]
        czz = self.cov_z[:nz, :nz]
        sign, logdet = np.linalg.slogdet(czz)
        if sign <= 0:
            raise np.linalg.LinAlgError("observation covariance not PD")
        return float(logdet + resid @ np.linalg.solve(czz, resid))

    def predict_field(self, t: int, pred_nodes: np.ndarray,
                      upto: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Exact mean and MSPE std. err. of Y_t at the given nodes given Z_{1:upto}."""
        mean, cov = self.posterior(upto)
        slcb = self.params.beta[t - 1]
        Xp = self.data.X_bau[self.data.structure.valid_idx[pred_nodes]]
        Sp = self.data.S_bau[self.data.structure.valid_idx[pred_nodes]]
        e, x = self.eta_slice(t), self.xi_slice(t)
        mu = Xp @ slcb + Sp @ mean[e] + mean[x][pred_nodes]
        pe = cov[e, e]
        px = cov[x, x][np.ix_(pred_nodes, pred_nodes)]
        pex = cov[e, x][:, pred_nodes]
        var = (np.einsum("ij,jk,ik->i", Sp, pe, Sp) + np.diag(px)
               + 2.0 * np.einsum("ij,ji->i", Sp, pex))
        return mu, np.sqrt(np.maximum(var, 0.0))
