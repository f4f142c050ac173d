"""Synthetic two-instrument scenario generator.

Draws a truth field from the generative model (trend + low-rank dynamic
component + CAR fine-scale component) and observes it with a fine
single-cell instrument and a coarse block-averaging instrument, each with
its own noise level, swath-gap bands, and random missingness.  Swath gaps
are vertical bands of configurable width that shift cyclically day by day,
mimicking polar-orbit coverage holes.  The grid may mask BAUs (land): the
truth lives on the valid ones, and a footprint averages its valid BAUs only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BisquareBasis, bau_basis_values, layout_multires
from .car import GAMMA_MAX, GAMMA_MIN, CARParams, CARStructure, build_adjacency, sample_car
from .grid import BAUGrid, Observations, build_grid
from .model import (DEFAULT_COVARIATES, BAUPointSample, DFGPParams, ModelData,
                    assemble, covariate_functions)


# Instrument i's field f is <INSTRUMENT_NAMES[i]>_f in messages and [scenario] keys
INSTRUMENT_NAMES = ("fine", "coarse")


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

    def check(self) -> None:
        """Raise ValueError naming the first value out of range (instrument
        i's fields past INSTRUMENT_NAMES as instrument<i + 1>_f); run by
        ``simulate_truth``."""
        positive = "must be finite and > 0"
        rules = [(self, "", (
            ("T", self.T >= 1, "must be >= 1"),
            ("beta", np.isfinite(self.beta).all(), "must be finite"),
            ("beta", len(self.beta) == len(self.covariates),
             f"must have one entry per covariate {self.covariates}"),
            ("h_diag", np.isfinite(self.h_diag), "must be finite"),
            ("u_scale", 0 < self.u_scale < np.inf, positive),
            ("k0_scale", 0 < self.k0_scale < np.inf, positive),
            ("gamma", GAMMA_MIN <= self.gamma <= GAMMA_MAX,
             f"must lie in [{GAMMA_MIN}, {GAMMA_MAX}]"),
            ("tau2", 0 < self.tau2 < np.inf, positive)))]
        for i, s in enumerate(self.instruments):
            name = f"{INSTRUMENT_NAMES[i]}_" if i < len(INSTRUMENT_NAMES) else f"instrument{i + 1}_"
            rules.append((s, name, (
                ("block", s.block >= 1 and not (self.nx % s.block or self.ny % s.block),
                 f"must be >= 1 and tile the {self.nx}x{self.ny} grid"),
                ("sigma2_eps", 0 < s.sigma2_eps < np.inf, positive),
                ("v_factor", 0 < s.v_factor < np.inf, positive),
                ("swath_period", not s.swath_width or s.swath_period > s.swath_width,
                 f"must exceed {name}swath_width {s.swath_width}"),
                ("drop_rate", 0 <= s.drop_rate < 1, "must lie in [0, 1)"))))
        for owner, name, checks in rules:
            for field, ok, rule in checks:
                if not ok:
                    raise ValueError(f"{name}{field} {rule}, got {getattr(owner, field)}")


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
    y: np.ndarray          # (T, N), NaN at masked BAUs
    eta: np.ndarray        # (T+1, r)
    xi: np.ndarray         # (T, N), NaN at masked BAUs


def true_params(config: ScenarioConfig, r: int) -> DFGPParams:
    return DFGPParams(
        beta=np.tile(np.asarray(config.beta, dtype=float), (config.T, 1)),
        H=config.h_diag * np.eye(r),
        U=config.u_scale * np.eye(r),
        K0=config.k0_scale * np.eye(r),
        car=tuple(CARParams(config.gamma, config.tau2) for _ in range(config.T)),
        sigma2_eps=np.tile([s.sigma2_eps for s in config.instruments], (config.T, 1)))


def simulate_truth(config: ScenarioConfig, grid: BAUGrid,
                   basis: BisquareBasis) -> SyntheticTruth:
    """Exact generative draw of Y_{1:T} with its latent states on the
    config's nx x ny ``grid`` and on ``basis``.  The CAR draw covers the
    valid BAUs, so y and xi are NaN at masked ones."""
    config.check()
    if (grid.nx, grid.ny) != (config.nx, config.ny):
        raise ValueError(f"the grid is {grid.nx}x{grid.ny}, the scenario {config.nx}x{config.ny}")
    structure = build_adjacency(grid)
    sample = BAUPointSample(grid)
    X_bau = np.column_stack([sample.average(f) for f in covariate_functions(config.covariates)])
    S_bau = bau_basis_values(basis, grid, sample)
    params = true_params(config, basis.r)
    rng = np.random.default_rng(config.seed)
    r, N, T = basis.r, grid.n_bau, config.T
    eta = np.zeros((T + 1, r))
    eta[0] = np.linalg.cholesky(params.K0) @ rng.standard_normal(r)
    xi = np.full((T, N), np.nan)
    y = np.zeros((T, N))
    # true_params holds one CAR parameter set for every t: one factorization
    # serves all T draws
    xi[:, structure.valid_idx] = sample_car(structure, params.car[0], rng, size=T).reshape(T, -1)
    for t in range(1, T + 1):
        cu = np.linalg.cholesky(params.U_at(t))
        eta[t] = params.H_at(t) @ eta[t - 1] + cu @ rng.standard_normal(r)
        y[t - 1] = X_bau @ params.beta[t - 1] + S_bau @ eta[t] + xi[t - 1]
    return SyntheticTruth(config=config, grid=grid, basis=basis, structure=structure,
                          params=params, X_bau=X_bau, S_bau=S_bau, y=y, eta=eta, xi=xi)


def _block_footprints(grid: BAUGrid, block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index sets (n_fp, block^2), which of their BAUs are valid, and centroid
    columns of the block x block tiling, footprints in row-major block order;
    a footprint without a valid BAU is left out."""
    nx, ny = grid.nx, grid.ny
    sets = (np.arange(grid.n_bau).reshape(ny // block, block, nx // block, block)
            .transpose(0, 2, 1, 3).reshape(-1, block * block))
    cols = np.tile(np.arange(0, nx, block) + (block - 1) / 2.0, ny // block)
    valid = grid.is_valid(sets)
    keep = valid.any(axis=1)
    return sets[keep], valid[keep], cols[keep]


def _in_swath(cols: np.ndarray, spec: InstrumentSpec, t: int) -> np.ndarray:
    if spec.swath_width == 0:
        return np.zeros(cols.size, dtype=bool)
    offset = (t - 1) * spec.swath_shift
    phase = np.mod(cols - offset, spec.swath_period)
    return phase < spec.swath_width


def observe(truth: SyntheticTruth) -> Observations:
    """Noisy multi-instrument observations of the truth, with missingness.

    The footprint table holds one tiling per distinct block size, each tile
    cut to its valid BAUs (a tile without one is left out); records come in
    (time, instrument, tile) order.  The RNG stream continues from the truth
    seed (offset domain) so that the full scenario is a pure function of the
    config.
    """
    config = truth.config
    rng = np.random.default_rng([config.seed, 1])
    tiles = {spec.block: _block_footprints(truth.grid, spec.block)
             for spec in config.instruments}
    row0 = dict(zip(tiles, np.cumsum([0, *(len(sets) for sets, _v, _c in tiles.values())])))
    fields = []
    for t in range(1, config.T + 1):
        for k, spec in enumerate(config.instruments, start=1):
            sets, _valid, cols = tiles[spec.block]
            keep = ~_in_swath(cols, spec, t)
            keep &= rng.uniform(size=len(sets)) >= spec.drop_rate
            kept = np.flatnonzero(keep)
            noise = rng.standard_normal(kept.size)
            z = np.nanmean(truth.y[t - 1][sets[kept]], axis=1) + np.sqrt(
                spec.sigma2_eps * spec.v_factor) * noise
            fields.append((np.full(kept.size, t), np.full(kept.size, k), row0[spec.block] + kept,
                           z, np.full(kept.size, spec.v_factor)))
    time, inst, fp, value, var = (np.concatenate(c) for c in zip(*fields))
    sizes = np.concatenate([valid.sum(axis=1) for _s, valid, _c in tiles.values()])
    return Observations(time=time, instrument=inst, footprint=fp, value=value,
                        var_factor=var, fp_indptr=np.concatenate([[0], np.cumsum(sizes)]),
                        fp_indices=np.concatenate([s[v] for s, v, _c in tiles.values()]),
                        n_times=config.T)


def scenario_data(config: ScenarioConfig) -> tuple[SyntheticTruth, Observations, ModelData]:
    """Truth, observations, and assembled design matrices in one call, on
    the config's unmasked grid and multiresolution basis.  Assembly reuses
    the truth's BAU-level design, drawn from the same default point sample.
    """
    grid = build_grid(config.nx, config.ny, config.cell_size)
    basis = layout_multires(grid.bbox, list(config.basis_counts), config.radius_mult)
    truth = simulate_truth(config, grid, basis)
    obs = observe(truth)
    data = assemble(obs, truth.grid, truth.basis, truth.structure,
                    covariates=config.covariates, design=(truth.X_bau, truth.S_bau))
    return truth, obs, data
