"""dfgp benchmark: one workload per invocation, closed loop, one client.

    python3 bench/run.py --workload smooth-65k --seed 1 --seconds 10 --trace 0

Set-up (input generation) runs ``setup_reps`` times in this process and
the median is reported as ``setup_s``.  Each run of the timed operation
happens in a fresh child process, so ``peak_rss_mb`` is the operation's
own and no state carries over between runs; runs repeat until
``--seconds`` have passed (at least one), and ``run_s`` is their median.
BLAS is capped to one thread in every process.  With ``--trace 1`` the set-up and one operation run with the span tracer
installed and the per-layer metrics are reported instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine.  The program is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
BLAS_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0          # the whole invocation must end within 180 s


def _import_program():
    for p in (str(BENCH), str(SRC)):
        if p not in sys.path:
            sys.path.insert(0, p)
    import tracer
    import workloads
    return tracer, workloads


def machine_info() -> dict:
    import numpy as np
    import scipy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _child(job: Path, result: Path) -> int:
    """Run one operation from a pickled (workload, inputs, trace) job."""
    tracer_mod, _ = _import_program()
    with open(job, "rb") as f:
        workload, inputs, trace = pickle.load(f)
    tr = tracer_mod.Tracer() if trace else None
    out = asdict(workload.run(inputs, tr))
    if tr is not None:
        out["spans"], out["overhead_s"] = tr.spans, tr.overhead_s
        out["leftover"] = tracer_mod.leftover_wrappers()
    result.write_text(json.dumps(out))
    return 0


def _spawn(job: Path, result: Path, timeout: float) -> dict | None:
    env = dict(os.environ, **{v: "1" for v in BLAS_CAPS})
    cmd = [sys.executable, str(BENCH / "run.py"), "--child", str(job), "--result", str(result)]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=env, cwd=ROOT)
    try:
        proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"operation killed after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not result.exists():
        print(f"operation process exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


def run_benchmark(workload, seed: int, seconds: float, trace: bool, workdir: Path,
                  started: float | None = None) -> dict:
    """Set up, run the operation in child processes and summarize."""
    tracer_mod, _ = _import_program()
    started = time.perf_counter() if started is None else started
    setup_tracer = tracer_mod.Tracer() if trace else None
    setup_times, inputs = [], None
    for i in range(1 if trace else workload.setup_reps):
        inputs = None
        t0 = time.perf_counter()
        with setup_tracer or contextlib.nullcontext(), contextlib.redirect_stdout(sys.stderr):
            inputs = workload.setup(seed, workdir / f"setup{i}")
        setup_times.append(time.perf_counter() - t0)
    job = workdir / "job.pkl"
    with open(job, "wb") as f:
        pickle.dump((workload, inputs, trace), f, protocol=pickle.HIGHEST_PROTOCOL)
    del inputs

    runs, attempted, failed = [], 0, 0
    op_started = time.perf_counter()
    while True:
        left = DEADLINE_S - (time.perf_counter() - started)
        out = _spawn(job, workdir / f"result{len(runs)}.json", left)
        if out is None:
            attempted, failed = attempted + 1, failed + 1
            break
        runs.append(out)
        attempted, failed = attempted + out["attempted"], failed + out["failed"]
        took = time.perf_counter() - op_started
        if trace or took >= seconds or 2 * took / len(runs) > left:
            break

    if not runs:
        metrics = {}
    elif trace:
        spans = [list(s) for s in setup_tracer.spans]
        base = len(spans)
        for name, t0, t1, parent, extra in runs[0]["spans"]:
            spans.append([name, t0, t1, parent + base if parent >= 0 else -1, extra])
        metrics = tracer_mod.layer_metrics(spans, runs[0]["overhead_s"], runs[0]["seconds"])
        missing = sorted(set(workload.spans) - tracer_mod.fired(spans))
        leftover = runs[0]["leftover"] + tracer_mod.leftover_wrappers()
        if missing or leftover:
            print(f"spans that never fired: {missing}; wrappers left: {leftover}",
                  file=sys.stderr)
            failed = max(failed, 1)
        WORK.mkdir(exist_ok=True)
        (WORK / f"spans-{workload.name}-seed{seed}.json").write_text(json.dumps(spans))
    else:
        metrics = {
            "run_s": statistics.median(r["seconds"] for r in runs),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "rmspe": statistics.median(r["rmspe"] for r in runs),
            "crps": statistics.median(r["crps"] for r in runs),
            "ok_frac": 1.0 - failed / attempted,
        }
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--result", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    for var in BLAS_CAPS:
        os.environ[var] = "1"
    if args.child is not None:
        return _child(args.child, args.result)
    if not (SRC / "dfgp" / "__init__.py").is_file():
        print(f"error: the dfgp sources are missing ({SRC / 'dfgp'})", file=sys.stderr)
        return 2
    _, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    units = _units()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        res = run_benchmark(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("machine " + json.dumps(machine_info()))
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": _finite_or_none(float(v)), "unit": units[k]}
                    for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
