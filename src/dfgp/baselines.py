"""Local space-time kriging comparator.

Predictions use the k nearest observations under a scaled space-time
distance, with an anisotropic exponential covariance fitted by maximum
likelihood inside each window (derivative-free search over log-parameters).
Observations are treated as points at footprint centroids; resolution
differences are ignored by design for this baseline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la
from scipy.optimize import minimize

_JITTER = 1e-8   # nugget added per unit sill to a degenerate kriging window


@dataclass(frozen=True)
class ExpCovParams:
    """Anisotropic space-time exponential covariance parameters."""

    sigma2: float          # partial sill
    phi_s: float           # spatial range
    phi_t: float           # temporal range
    nugget: float = 0.0

    def __post_init__(self):
        if not (self.sigma2 > 0 and self.phi_s > 0 and self.phi_t > 0):
            raise ValueError("sigma2, phi_s, phi_t must be > 0")
        if self.nugget < 0:
            raise ValueError("nugget must be >= 0")


def _kernel(h, u, p: ExpCovParams):
    """sigma2 * exp(-sqrt(h^2/phi_s^2 + u^2/phi_t^2)), without the nugget."""
    return p.sigma2 * np.exp(-np.sqrt((h / p.phi_s) ** 2 + (u / p.phi_t) ** 2))


def exp_cov(h, u, p: ExpCovParams):
    """C(h, u): the exponential kernel plus the nugget exactly at
    (h, u) = (0, 0)."""
    h = np.asarray(h, dtype=float)
    u = np.asarray(u, dtype=float)
    out = _kernel(h, u, p) + np.where((h == 0) & (u == 0), p.nugget, 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LocalKrigeSettings:
    k: int = 500                    # window size (nearest observations)
    pilot: ExpCovParams | None = None   # anisotropy for the neighbor metric
    fit: bool = True                # ML-fit the covariance inside the window
    max_fit_evals: int = 200


def _lags(coords, times) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise spatial and temporal lags of a window's observations."""
    dh = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    du = np.abs(times[:, None] - times[None, :])
    return dh, du


def _cov_factor(lags, p: ExpCovParams):
    """Cholesky factor (scipy.linalg.cho_factor) of the window covariance:
    the kernel at the window's lags plus the nugget on the diagonal."""
    dh, du = lags
    return la.cho_factor(_kernel(dh, du, p) + p.nugget * np.eye(len(dh)),
                         lower=True, check_finite=False)


def _profile_neg2ll(logp: np.ndarray, lags, z) -> float:
    p = ExpCovParams(*np.exp(logp[:3]), nugget=np.exp(logp[3]))
    try:
        cf = _cov_factor(lags, p)
    except la.LinAlgError:
        return 1e12
    ci_z, ci_1 = la.cho_solve(cf, np.column_stack([z, np.ones_like(z)]),
                              check_finite=False).T
    mu = ci_z.sum() / ci_1.sum()
    quad = (z - mu) @ (ci_z - mu * ci_1)
    return float(2.0 * np.log(np.diag(cf[0])).sum() + quad)


def fit_exp_cov(coords, times, z, start: ExpCovParams,
                max_evals: int = 200) -> ExpCovParams:
    """Profile-likelihood fit of the exponential covariance (constant mean),
    boxed to the window (unbounded, a smooth window drives the nugget to 0
    and the ranges to infinity): sill in [1e-4, 1e2] and nugget in [1e-6, 10]
    times var(z), ranges in [1e-2, 1e2] times the window's spatial
    (bounding-box diagonal) and temporal extents."""
    var = max(float(np.var(z)), 1e-12)
    ext_s = max(float(np.hypot(*np.ptp(coords, axis=0))), 1e-3)
    ext_t = max(float(np.ptp(times)), 1.0)
    lo = np.log([1e-4 * var, 1e-2 * ext_s, 1e-2 * ext_t, 1e-6 * var])
    hi = np.log([1e2 * var, 1e2 * ext_s, 1e2 * ext_t, 10.0 * var])
    x0 = np.log([start.sigma2, start.phi_s, start.phi_t, max(start.nugget, 1e-6)])
    res = minimize(_profile_neg2ll, np.clip(x0, lo, hi), args=(_lags(coords, times), z),
                   method="Nelder-Mead", bounds=list(zip(lo, hi)),
                   options={"maxfev": max_evals, "xatol": 1e-3, "fatol": 1e-4})
    sig, ps, pt, ng = np.exp(res.x)
    return ExpCovParams(sigma2=float(sig), phi_s=float(ps), phi_t=float(pt),
                        nugget=float(ng))


def local_krige(target_xy, target_t, coords, times, values,
                settings: LocalKrigeSettings) -> tuple[float, float]:
    """Kriged mean and variance of the latent field at one space-time point.

    Selects the window, optionally fits the covariance by ML, estimates the
    local constant mean by GLS, and applies the kriging predictor with the
    mean-estimation variance correction.
    """
    coords = np.asarray(coords, dtype=float)
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least 2 observations in the window")
    pilot = settings.pilot or ExpCovParams(
        sigma2=max(float(np.var(values)), 1e-8),
        phi_s=max(float(np.ptp(coords)) / 3.0, 1e-3),
        phi_t=max(float(np.ptp(times)) / 2.0, 1.0),
        nugget=0.1 * max(float(np.var(values)), 1e-8))
    dh2 = ((coords - np.asarray(target_xy, dtype=float)) ** 2).sum(axis=1)
    du = times - float(target_t)
    d = np.sqrt(dh2 / pilot.phi_s**2 + (du / pilot.phi_t) ** 2)
    if values.size > settings.k:
        near = np.argpartition(d, settings.k)[:settings.k]
    else:
        near = np.arange(values.size)
    cw, tw, zw = coords[near], times[near], values[near]

    p = pilot
    if settings.fit:
        p = fit_exp_cov(cw, tw, zw, pilot, settings.max_fit_evals)
    lags = _lags(cw, tw)
    try:
        cf = _cov_factor(lags, p)
    except la.LinAlgError:
        warnings.warn("degenerate kriging window; regularizing covariance")
        p = replace(p, nugget=p.nugget + _JITTER * p.sigma2 + 1e-10)
        cf = _cov_factor(lags, p)
    c0 = _kernel(np.sqrt(((cw - np.asarray(target_xy, dtype=float)) ** 2).sum(axis=1)),
                 np.abs(tw - float(target_t)), p)
    ci_z, ci_1, w = la.cho_solve(cf, np.column_stack([zw, np.ones_like(zw), c0]),
                                 check_finite=False).T
    mu = ci_z.sum() / ci_1.sum()
    mean = mu + c0 @ (ci_z - mu * ci_1)
    var = p.sigma2 - c0 @ w + (1.0 - w.sum()) ** 2 / ci_1.sum()
    return float(mean), float(max(var, 0.0))
