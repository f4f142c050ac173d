"""Self-test of the benchmark harness at a toy size (16x16 grid, r = 9, T = 2).

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dfgp import car, dynamics, estimate  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SPEC_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def toy(w):
    extra = {"n_pred": 8} if hasattr(w, "n_pred") else {}
    return replace(w, nx=16, counts=(9,), T=2, **extra)


@dataclass(frozen=True)
class NaNSmooth(workloads.SmoothWorkload):
    """Toy smoothing workload whose first time step carries a NaN observation."""

    def setup(self, seed, workdir):
        inputs = super().setup(seed, workdir)
        inputs["data"].slices[0].z[0] = np.nan
        return inputs


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_run_reports_every_metric(name, trace, tmp_path):
    res = run.run_benchmark(toy(workloads.WORKLOADS[name]), 3, 0.0, trace, tmp_path)
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert sorted(res["metrics"]) == sorted(m["name"] for m in want)
    assert all(np.isfinite(v) for v in res["metrics"].values())


def test_wrappers_removed_after_traced_run(tmp_path):
    originals = (car.SparseFactor.__init__, car.SparseFactor.solve, dynamics.filter_pass,
                 dynamics.filter_step, estimate.sample_car, estimate.smoother_pass)
    res = run.run_benchmark(toy(workloads.WORKLOADS["sem-10k"]), 3, 0.0, True, tmp_path)
    assert res["correct"]
    assert res["metrics"]["estimate.em_iters"] == 3
    assert res["metrics"]["estimate.gamma_evals"] > 0
    assert tracer.leftover_wrappers() == []
    assert originals == (car.SparseFactor.__init__, car.SparseFactor.solve,
                         dynamics.filter_pass, dynamics.filter_step, estimate.sample_car,
                         estimate.smoother_pass)


def test_traced_counts_repeat_under_a_fixed_seed(tmp_path):
    w = toy(workloads.WORKLOADS["sem-10k"])
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a, b = (run.run_benchmark(w, 5, 0.0, True, tmp_path / d)["metrics"] for d in "ab")
    counts = [k for k, v in SPEC_UNITS.items() if v == "count"] + ["car.factorize_distinct_frac"]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}


def test_tracer_sees_calls_through_imported_names():
    w = toy(workloads.WORKLOADS["smooth-65k"])
    inputs = w.setup(3, None)
    with tracer.Tracer() as tr:
        w.run(inputs)
    fired = tracer.fired(tr.spans)
    assert {"dynamics.filter_step", "car.factorize", "car.logdet", "car.solve",
            "car.selected_diag", "dynamics.smoother", "dynamics.predict"} <= fired
    steps = [i for i, s in enumerate(tr.spans) if s[0] == "dynamics.filter_step"]
    assert len(steps) == w.T
    assert any(tr.spans[s[3]][0] == "dynamics.filter_step"
               for s in tr.spans if s[0] == "car.factorize" and s[3] >= 0)


def test_injected_failure_is_counted(tmp_path):
    res = run.run_benchmark(toy(NaNSmooth()), 3, 0.0, False, tmp_path)
    assert not res["correct"]
    assert res["failed"] >= 1
    assert res["metrics"]["ok_frac"] == 1.0 - res["failed"] / res["attempted"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smooth-65k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
