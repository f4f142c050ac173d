"""Shared builders for randomized small test instances."""

import contextlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dfgp.basis import layout_multires
from dfgp.car import CARParams
from dfgp.grid import Observations, build_grid
from dfgp.model import DFGPParams, assemble
from dfgp.synth import build_adjacency


# One line per acceptance criterion, appended by test_acceptance._report.
# pytest captures output while a test runs, so the lines are printed in the
# terminal summary instead.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def rand_spd(rng, r, scale=1.0):
    a = rng.standard_normal((r, r))
    return scale * (a @ a.T / r + np.eye(r))


@contextlib.contextmanager
def stand_in_pool(workers):
    """Run dfgp's solve pool on a stand-in executor of ``workers`` threads.

    Yields the list of pool requests, so a test can check the stand-in was
    used.  Above one worker the interpreter switches threads every
    microsecond, so tasks interleave as finely as they can, and every solve
    of more than one column is split across the workers, however small.
    """
    requests = []
    switch = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp, ThreadPoolExecutor(max_workers=workers) as pool:
        mp.setattr("dfgp.car._pool", lambda: requests.append(1) or pool)
        mp.setattr("dfgp.car.SOLVE_BLOCK_MIN_ENTRIES", 1)
        if workers > 1:
            sys.setswitchinterval(1e-6)
        try:
            yield requests
        finally:
            sys.setswitchinterval(switch)


def make_observations(records, n_times):
    """Observations with one footprint per record, from a list of
    (time, instrument, bau_indices, value, var_factor) tuples."""
    times, insts, covers, values, vfs = zip(*records) if records else ((),) * 5
    return Observations(
        time=list(times), instrument=list(insts), footprint=np.arange(len(covers)),
        value=list(values), var_factor=list(vfs),
        fp_indptr=np.cumsum([0] + [len(c) for c in covers]),
        fp_indices=np.concatenate([np.asarray(c, dtype=np.int64) for c in covers])
        if covers else np.zeros(0, dtype=np.int64),
        n_times=n_times)


def make_instance(seed, nx=3, ny=3, T=3, r_counts=(2,), k0=2, mask=None,
                  empty_times=(), v_range=(0.5, 2.0)):
    """Random small instance: grid, two instruments, random obs values.

    Observation values are arbitrary Gaussians (not model draws); the
    conditioning identities the oracle checks hold for any data.
    """
    rng = np.random.default_rng(seed)
    grid = build_grid(nx, ny, 1.0, mask=mask)
    valid = grid.valid_indices()
    N = grid.n_bau
    basis = layout_multires(grid.bbox, list(r_counts))
    structure = build_adjacency(grid)
    records = []
    for t in range(1, T + 1):
        if t not in empty_times:
            n1 = int(rng.integers(2, valid.size))
            idx1 = rng.choice(valid, size=n1, replace=False)
            records += [(t, 1, [i], float(rng.standard_normal()),
                         float(rng.uniform(*v_range))) for i in idx1]
            if k0 == 2:
                for _ in range(int(rng.integers(1, 4))):
                    sz = min(int(rng.integers(2, 5)), valid.size)
                    cover = rng.choice(valid, size=sz, replace=False)
                    records.append((t, 2, cover, float(rng.standard_normal()),
                                    float(rng.uniform(*v_range))))
    data = assemble(make_observations(records, T), grid, basis, structure,
                    covariates=("1", "y"))
    r = basis.r
    params = DFGPParams(
        beta=rng.standard_normal((T, 2)) * 0.5,
        H=0.6 * np.eye(r) + 0.1 * rng.standard_normal((r, r)),
        U=rand_spd(rng, r, 0.5),
        K0=rand_spd(rng, r, 1.0),
        car=tuple(CARParams(float(rng.uniform(0.0, 0.9)),
                            float(rng.uniform(0.3, 2.0))) for _ in range(T)),
        sigma2_eps=rng.uniform(0.2, 1.5, size=(T, k0)),
    )
    return data, params


def relerr(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-12))


@pytest.fixture
def small_instance():
    return make_instance(0)
