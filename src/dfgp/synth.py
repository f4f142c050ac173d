"""Synthetic two-instrument scenario generator.

Draws a truth field from the generative model (trend + low-rank dynamic
component + CAR fine-scale component) and observes it with a fine
single-cell instrument and a coarse block-averaging instrument, each with
its own noise level, swath-gap bands, and random missingness.  Swath gaps
are vertical bands of configurable width that shift cyclically day by day,
mimicking polar-orbit coverage holes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BisquareBasis, bau_basis_values, layout_multires
from .car import CARParams, CARStructure, build_adjacency, sample_car
from .grid import BAUGrid, Observations, build_grid
from .model import (DEFAULT_COVARIATES, BAUPointSample, DFGPParams, ModelData,
                    assemble, covariate_functions)


@dataclass(frozen=True)
class InstrumentSpec:
    """One instrument's footprint block size, noise, and missingness."""

    block: int = 1                 # footprints are block x block BAU squares
    sigma2_eps: float = 0.1
    v_factor: float = 1.0
    swath_width: int = 0           # band width in cells (0 = no gaps)
    swath_period: int = 0          # horizontal distance between band starts
    swath_shift: int = 0           # cells the bands move per day (cyclic)
    drop_rate: float = 0.0

    def __post_init__(self):
        if self.block < 1:
            raise ValueError(f"block size {self.block} must be >= 1")
        if not (0.0 <= self.drop_rate < 1.0):
            raise ValueError(f"drop_rate {self.drop_rate} must lie in [0, 1)")
        if self.swath_width and self.swath_period <= self.swath_width:
            raise ValueError(f"swath_period {self.swath_period} must exceed "
                             f"swath_width {self.swath_width}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of a synthetic experiment."""

    nx: int = 40
    ny: int = 40
    cell_size: float = 1.0
    T: int = 8
    basis_counts: tuple[int, ...] = (9,)
    radius_mult: float = 1.5
    covariates: tuple[str, ...] = DEFAULT_COVARIATES
    beta: tuple[float, ...] = (1.0, 0.5, -0.2)
    h_diag: float = 0.8
    u_scale: float = 0.25
    k0_scale: float = 1.0
    gamma: float = 0.75
    tau2: float = 1.0
    instruments: tuple[InstrumentSpec, ...] = (
        InstrumentSpec(block=1, sigma2_eps=0.25, swath_width=8, swath_period=20,
                       swath_shift=7, drop_rate=0.1),
        InstrumentSpec(block=4, sigma2_eps=0.04, drop_rate=0.05),
    )
    seed: int = 0

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if len(self.beta) != len(self.covariates):
            raise ValueError(f"beta has {len(self.beta)} entries but "
                             f"{len(self.covariates)} covariates are named")
        for spec in self.instruments:
            if self.nx % spec.block or self.ny % spec.block:
                raise ValueError(f"block size {spec.block} must tile the "
                                 f"{self.nx}x{self.ny} grid")


@dataclass
class SyntheticTruth:
    """Truth field with its latent components and the scene geometry."""

    config: ScenarioConfig
    grid: BAUGrid
    basis: BisquareBasis
    structure: CARStructure
    params: DFGPParams
    X_bau: np.ndarray
    S_bau: np.ndarray
    y: np.ndarray          # (T, N)
    eta: np.ndarray        # (T+1, r)
    xi: np.ndarray         # (T, N)


def true_params(config: ScenarioConfig, r: int) -> DFGPParams:
    p = len(config.beta)
    return DFGPParams(
        beta=np.tile(np.asarray(config.beta, dtype=float), (config.T, 1)).reshape(config.T, p),
        H=config.h_diag * np.eye(r),
        U=config.u_scale * np.eye(r),
        K0=config.k0_scale * np.eye(r),
        car=tuple(CARParams(config.gamma, config.tau2) for _ in range(config.T)),
        sigma2_eps=np.tile([s.sigma2_eps for s in config.instruments], (config.T, 1)))


def simulate_truth(config: ScenarioConfig) -> SyntheticTruth:
    """Exact generative draw of Y_{1:T} with its latent states."""
    grid = build_grid(config.nx, config.ny, config.cell_size)
    basis = layout_multires(grid.bbox, list(config.basis_counts), config.radius_mult)
    structure = build_adjacency(grid)
    sample = BAUPointSample(grid)
    fns = covariate_functions(config.covariates)
    X_bau = np.column_stack([sample.average(f) for f in fns])
    S_bau = bau_basis_values(basis, grid, sample)
    params = true_params(config, basis.r)
    rng = np.random.default_rng(config.seed)
    r, N, T = basis.r, grid.n_bau, config.T
    eta = np.zeros((T + 1, r))
    eta[0] = np.linalg.cholesky(params.K0) @ rng.standard_normal(r)
    xi = np.zeros((T, N))
    y = np.zeros((T, N))
    # true_params holds one CAR parameter set for every t: one factorization
    # serves all T draws
    xi[:] = sample_car(structure, params.car[0], rng, size=T).reshape(T, N)
    for t in range(1, T + 1):
        cu = np.linalg.cholesky(params.U_at(t))
        eta[t] = params.H_at(t) @ eta[t - 1] + cu @ rng.standard_normal(r)
        y[t - 1] = X_bau @ params.beta[t - 1] + S_bau @ eta[t] + xi[t - 1]
    return SyntheticTruth(config=config, grid=grid, basis=basis, structure=structure,
                          params=params, X_bau=X_bau, S_bau=S_bau, y=y, eta=eta, xi=xi)


def _block_footprints(grid: BAUGrid, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Index sets (n_fp, block^2) and centroid columns for the block x block
    tiling, footprints in row-major block order."""
    nx, ny = grid.nx, grid.ny
    sets = (np.arange(grid.n_bau).reshape(ny // block, block, nx // block, block)
            .transpose(0, 2, 1, 3).reshape(-1, block * block))
    cols = np.tile(np.arange(0, nx, block) + (block - 1) / 2.0, ny // block)
    return sets, cols


def _in_swath(cols: np.ndarray, spec: InstrumentSpec, t: int, nx: int) -> np.ndarray:
    if spec.swath_width == 0:
        return np.zeros(cols.size, dtype=bool)
    offset = (t - 1) * spec.swath_shift
    phase = np.mod(cols - offset, spec.swath_period)
    return phase < spec.swath_width


def observe(truth: SyntheticTruth) -> Observations:
    """Noisy multi-instrument observations of the truth, with missingness.

    The footprint table holds one tiling per distinct block size; records
    come in (time, instrument, tile) order.  The RNG stream continues from
    the truth seed (offset domain) so that the full scenario is a pure
    function of the config.
    """
    config = truth.config
    rng = np.random.default_rng([config.seed, 1])
    tiles, table = {}, []
    for spec in config.instruments:
        if spec.block not in tiles:
            sets, cols = _block_footprints(truth.grid, spec.block)
            tiles[spec.block] = (sets, cols, sum(len(s) for s in table))
            table.append(sets)
    fields = []
    for t in range(1, config.T + 1):
        for k, spec in enumerate(config.instruments, start=1):
            sets, cols, row0 = tiles[spec.block]
            keep = ~_in_swath(cols, spec, t, config.nx)
            keep &= rng.uniform(size=len(sets)) >= spec.drop_rate
            kept = np.flatnonzero(keep)
            noise = rng.standard_normal(kept.size)
            z = truth.y[t - 1][sets[kept]].mean(axis=1) + np.sqrt(
                spec.sigma2_eps * spec.v_factor) * noise
            fields.append((np.full(kept.size, t), np.full(kept.size, k), row0 + kept, z,
                           np.full(kept.size, spec.v_factor)))
    time, inst, fp, value, var = (np.concatenate(c) for c in zip(*fields))
    sizes = np.concatenate([np.full(len(sets), sets.shape[1]) for sets in table])
    return Observations(time=time, instrument=inst, footprint=fp, value=value,
                        var_factor=var, fp_indptr=np.concatenate([[0], np.cumsum(sizes)]),
                        fp_indices=np.concatenate([sets.ravel() for sets in table]),
                        n_times=config.T)


def scenario_data(config: ScenarioConfig) -> tuple[SyntheticTruth, Observations, ModelData]:
    """Truth, observations, and assembled design matrices in one call.

    Assembly reuses the truth's BAU-level design, drawn from the same
    default point sample.
    """
    truth = simulate_truth(config)
    obs = observe(truth)
    data = assemble(obs, truth.grid, truth.basis, truth.structure,
                    covariates=config.covariates, design=(truth.X_bau, truth.S_bau))
    return truth, obs, data
