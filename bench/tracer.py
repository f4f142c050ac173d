"""Span tracer that wraps dfgp's public functions from outside the package.

``Tracer.install()`` replaces each traced callable with a timing wrapper.
A module-level function is replaced under every name that binds it in any
loaded ``dfgp`` module, because ``dynamics``, ``estimate``, ``cli``,
``synth`` and ``model`` import functions by name: wrapping only the defining
module would miss those calls.  Methods are wrapped on their class.
``Tracer.uninstall()`` puts every original object back.

Spans live in memory as ``[name, start, end, parent, extra]``; ``parent`` is
the index of the enclosing span (-1 at top level), so self time is a span's
duration minus that of its direct children.  The wrappers time their own
bookkeeping, which gives the tracing overhead without a second, untraced
run of the workload.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

import scipy.sparse as sp

from dfgp import basis, car, dynamics, estimate, grid, model
from dfgp import io as dio

_MARK = "__bench_span__"

# Span name -> callables it covers, as (owner, attribute).  Owners that are
# classes are patched in place; owners that are modules are patched under
# every binding of the same function object in dfgp's modules.
TARGETS = {
    "car.factorize": [(car.SparseFactor, "__init__")],
    "car.solve": [(car.SparseFactor, "solve")],
    "car.selected_diag": [(car.SparseFactor, "solve_selected_diag")],
    "car.logdet": [(car.CARStructure, "logdet_i_minus_gamma_w")],
    "car.sample": [(car, "sample_car")],
    "dynamics.filter_step": [(dynamics, "filter_step")],
    "dynamics.smoother": [(dynamics, "smoother_pass")],
    "dynamics.predict": [(dynamics, "predict_smooth"), (dynamics, "predict_filter")],
    "estimate.e_step": [(estimate, "e_step")],
    "estimate.m_step": [(estimate, "m_step")],
    "estimate.optimize_gamma": [(estimate, "optimize_gamma")],
    "grid.mc_average": [(grid.BAUPointSample, "average")],
    "basis.bau_basis_values": [(basis, "bau_basis_values")],
    "model.assemble": [(model, "assemble")],
    "io.read": [(dio, n) for n in vars(dio) if n.startswith(("read_", "load_"))],
    "io.write": [(dio, n) for n in vars(dio) if n.startswith(("write_", "save_"))],
}


def _dfgp_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dfgp" or name.startswith("dfgp."))]


def _matrix_digest(matrix) -> str:
    m = sp.csc_matrix(matrix, copy=True)
    m.sum_duplicates()
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(m.shape).encode())
    for a in (m.indptr, m.indices, m.data):
        h.update(a.tobytes())
    return h.hexdigest()


class Tracer:
    """Records spans for calls into dfgp while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._nnz_by_digest: dict[str, int] = {}

    # ---- patching ---------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, targets in TARGETS.items():
            for owner, attr in targets:
                if isinstance(owner, type):
                    orig = owner.__dict__[attr]
                    self._patch(owner, attr, orig, self._wrap(name, orig))
                    continue
                orig = getattr(owner, attr)
                wrapper = self._wrap(name, orig)
                for mod in _dfgp_modules():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, orig, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- recording --------------------------------------------------------
    def _wrap(self, name: str, fn):
        annotate = {"car.factorize": self._note_factor,
                    "car.solve": _note_solve,
                    "car.selected_diag": _note_selected}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
            self.spans.append(span)
            self._stack.append(idx)
            t1 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = time.perf_counter()
                self._stack.pop()
                span[1], span[2] = t1, t2
            if annotate is not None:
                annotate(span[4], args, kwargs)
            self.overhead_s += (t1 - t0) + (time.perf_counter() - t2)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def _note_factor(self, extra: dict, args, kwargs) -> None:
        factor, matrix = args[0], args[1] if len(args) > 1 else kwargs["matrix"]
        digest = _matrix_digest(matrix)
        if digest not in self._nnz_by_digest:
            lu = factor._lu  # SparseFactor exposes no fill count; read SuperLU's factors
            self._nnz_by_digest[digest] = int(lu.L.nnz + lu.U.nnz - factor.shape[0])
        extra["digest"] = digest
        extra["nnz_lu"] = self._nnz_by_digest[digest]


def _note_solve(extra: dict, args, kwargs) -> None:
    b = args[1] if len(args) > 1 else kwargs["b"]
    extra["cols"] = 1 if getattr(b, "ndim", 1) == 1 else int(b.shape[1])


def _note_selected(extra: dict, args, kwargs) -> None:
    idx = args[1] if len(args) > 1 else kwargs["indices"]
    extra["cols"] = int(len(idx))


def leftover_wrappers() -> list[str]:
    """Names in dfgp's modules and classes that still hold a tracing wrapper."""
    found = []
    for mod in _dfgp_modules():
        for key, val in vars(mod).items():
            if hasattr(val, _MARK):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(val, type):
                found += [f"{mod.__name__}.{key}.{a}" for a, v in vars(val).items()
                          if hasattr(v, _MARK)]
    return found


# ---- per-layer metrics ----------------------------------------------------

def _ancestors(spans, i):
    p = spans[i][3]
    while p >= 0:
        yield spans[p][0]
        p = spans[p][3]


def layer_metrics(spans: list[list], overhead_s: float, op_seconds: float) -> dict:
    """Per-layer metrics from the spans of one traced set-up + operation.

    A ``*_s`` metric is the total time inside calls to that layer (children
    included, except where the name says ``self``);
    ``car.solve_*`` leaves out the unit solves made inside selected-diagonal
    calls, which ``car.selected_diag_*`` covers.
    """
    def dur(s):
        return s[2] - s[1]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total(name, keep=lambda i: True):
        return float(sum(dur(spans[i]) for i in by_name.get(name, []) if keep(i)))

    def count(name, keep=lambda i: True):
        return sum(1 for i in by_name.get(name, []) if keep(i))

    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += dur(s)

    factors = [spans[i][4] for i in by_name.get("car.factorize", [])]
    n_fact = len(factors)
    distinct = len({f.get("digest") for f in factors})
    outside_diag = lambda i: "car.selected_diag" not in _ancestors(spans, i)  # noqa: E731
    in_gamma = lambda i: "estimate.optimize_gamma" in _ancestors(spans, i)  # noqa: E731
    return {
        "car.factorize_s": total("car.factorize"),
        "car.factorize_n": n_fact,
        "car.factorize_distinct_frac": distinct / n_fact if n_fact else 1.0,
        "car.nnz_lu_max": max((f.get("nnz_lu", 0) for f in factors), default=0),
        "car.logdet_s": total("car.logdet"),
        "car.logdet_n": count("car.logdet"),
        "car.sample_s": total("car.sample"),
        "car.sample_n": count("car.sample"),
        "car.solve_s": total("car.solve", outside_diag),
        "car.solve_cols": sum(spans[i][4].get("cols", 0)
                              for i in by_name.get("car.solve", []) if outside_diag(i)),
        "car.selected_diag_s": total("car.selected_diag"),
        "car.selected_diag_cols": sum(spans[i][4].get("cols", 0)
                                      for i in by_name.get("car.selected_diag", [])),
        "dynamics.filter_step_self_s": float(sum(dur(spans[i]) - child_time[i]
                                                 for i in by_name.get("dynamics.filter_step", []))),
        "dynamics.smoother_s": total("dynamics.smoother"),
        "dynamics.predict_s": total("dynamics.predict"),
        "estimate.e_step_s": total("estimate.e_step"),
        "estimate.m_step_s": total("estimate.m_step"),
        "estimate.optimize_gamma_s": total("estimate.optimize_gamma"),
        "estimate.gamma_evals": count("car.logdet", in_gamma),
        "estimate.em_iters": count("estimate.e_step"),
        "grid.mc_average_s": total("grid.mc_average"),
        "basis.bau_basis_values_s": total("basis.bau_basis_values"),
        "model.assemble_s": total("model.assemble"),
        "io.read_s": total("io.read"),
        "io.write_s": total("io.write"),
        "trace.overhead_frac": overhead_s / op_seconds if op_seconds > 0 else 0.0,
    }


def fired(spans: list[list]) -> set[str]:
    return {s[0] for s in spans}
