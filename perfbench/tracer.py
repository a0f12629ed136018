"""Outside-in span tracer for the matorus layers.

``install()`` wraps public functions of the matorus modules, the
``scipy.fft`` module that ``matorus.grid`` calls, the Krylov entry points of
``matorus.linsolve`` and ``matorus.geometry``, and the thread pool of
``matorus.estimates``. Nothing under ``src/`` is edited: every wrapper is
installed by rebinding module attributes at run time, in every matorus
module that holds the name (``solver.complex_hessian``,
``chern.solve_constrained``, ``cli.estimate_report`` and so on), so no call
bypasses its span.

A span is (id, parent id, name, start, end, exception class, value). Each
thread keeps its own parent stack; work submitted to the sweep thread pool
adopts the submitting thread's open span as its parent. Spans stay in
memory and are written out once, when the task ends.

``layer_metrics()`` turns a span list into the per-layer metrics. A span's
self time is its duration minus the part of its interval that its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
from time import perf_counter

# Public functions timed as spans, as "module.attribute" under matorus.
FUNCTIONS = (
    "grid.complex_hessian",
    "grid.inverse",
    "grid.det",
    "grid.min_eigenvalue",
    "linsolve.solve_constrained",
    "solver.newton_solve",
    "solver.continuity_solve",
    "geometry.gauduchon_weight",
    "geometry.defects",
    "geometry.gauduchon_residual",
    "geometry.ricci_form",
    "estimates.report",
    "estimates.sweep",
    "problems.metric_from_spec",
    "fieldio.serialize",
    "cli.run",
)

# scipy.fft entry points used by matorus.grid, by direction.
FFT_FUNCTIONS = {"fftn": "fwd", "fft": "fwd", "ifftn": "inv", "ifft": "inv"}

# Modules whose ``spla`` (scipy.sparse.linalg) binding builds a Krylov solve,
# with the span prefix for their operator, preconditioner and lgmres.
KRYLOV_MODULES = {"linsolve": "linsolve", "geometry": "geometry.weight"}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans = []
        self.missing = []

    def current(self):
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "adopted", None)

    def wrap(self, name, fn, value=None):
        """Return fn timed as a span; ``value(args, result)`` gives a number
        recorded with the span (computed after the span ends)."""
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else getattr(local, "adopted", None)
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            exc = None
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = type(e).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                v = value(args, result) if value is not None and exc is None else None
                with self._lock:
                    self.spans.append((sid, parent, name, t0, t1, exc, v))

        return traced

    def adopt(self, parent, fn):
        """Run fn on another thread as if called under span ``parent``."""
        local = self._local

        @functools.wraps(fn)
        def adopted(*args, **kwargs):
            local.adopted = parent
            try:
                return fn(*args, **kwargs)
            finally:
                local.adopted = None

        return adopted


def span_cost(calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on an empty function."""
    t = Tracer()
    noop = t.wrap("calibrate", lambda: None)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    return (perf_counter() - t0) / calls


def _rebind(original, replacement):
    """Replace ``original`` by ``replacement`` in every loaded matorus module."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "matorus" or modname.startswith("matorus.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


class _Proxy:
    """Module stand-in: overridden attributes first, the real module after."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _fft_bytes(args, result):
    # Computed from array sizes: input read plus output written.
    return getattr(args[0], "nbytes", 0) + getattr(result, "nbytes", 0)


def _file_bytes(args, result):
    return os.path.getsize(args[1])


def install(tracer: Tracer) -> None:
    """Wrap the matorus layers; call after ``import matorus.cli``."""
    for target in FUNCTIONS:
        modname, attr = target.rsplit(".", 1)
        mod = importlib.import_module(f"matorus.{modname}")
        original = getattr(mod, attr, None)
        if original is None:
            tracer.missing.append(target)
            continue
        value = _file_bytes if target == "fieldio.serialize" else None
        _rebind(original, tracer.wrap(target, original, value))

    grid = importlib.import_module("matorus.grid")
    hf = getattr(grid, "HermitianField", None)
    if hf is None or "__post_init__" not in vars(hf):
        tracer.missing.append("grid.HermitianField")
    else:
        hf.__post_init__ = tracer.wrap("grid.HermitianField", hf.__post_init__)

    sfft = getattr(grid, "_sfft", None)
    if sfft is None:
        tracer.missing.append("grid.fft")
    else:
        grid._sfft = _Proxy(sfft, **{
            fname: tracer.wrap(f"grid.fft.{direction}", getattr(sfft, fname), _fft_bytes)
            for fname, direction in FFT_FUNCTIONS.items()
        })

    for modname, prefix in KRYLOV_MODULES.items():
        mod = importlib.import_module(f"matorus.{modname}")
        spla = getattr(mod, "spla", None)
        if spla is None:
            tracer.missing.append(f"{modname}.spla")
            continue
        mod.spla = _Proxy(
            spla,
            LinearOperator=_traced_operator(tracer, spla.LinearOperator, prefix),
            lgmres=tracer.wrap(f"{prefix}.lgmres", spla.lgmres),
        )

    estimates = importlib.import_module("matorus.estimates")
    pool = getattr(estimates, "ThreadPoolExecutor", None)
    if pool is None:
        tracer.missing.append("estimates.ThreadPoolExecutor")
    else:
        estimates.ThreadPoolExecutor = _traced_pool(tracer, pool)


def _traced_operator(tracer, linear_operator, prefix):
    def LinearOperator(shape, matvec=None, *args, **kwargs):
        # The preconditioner closures are named ``precond``; any other
        # operator is the system operator.
        role = "precond" if getattr(matvec, "__name__", "") == "precond" else "matvec"
        return linear_operator(shape, tracer.wrap(f"{prefix}.{role}", matvec), *args, **kwargs)

    return LinearOperator


def _traced_pool(tracer, base):
    class TracedPool(base):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.adopt(tracer.current(), fn), *args, **kwargs)

    return TracedPool


# ---------------------------------------------------------------------------
# Aggregation


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics from one task's spans (see perfbench/README.md)."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)

    calls, self_s, incl_s, values = {}, {}, {}, {}
    excess = 0.0
    for sid, _, name, t0, t1, _, v in spans:
        kids = children.get(sid, ())
        cover = _covered([(k[3], k[4]) for k in kids], t0, t1)
        excess += sum(k[4] - k[3] for k in kids) - cover
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - cover
        incl_s[name] = incl_s.get(name, 0.0) + (t1 - t0)
        if v is not None:
            values[name] = values.get(name, 0) + v

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def named(name):
        return [sp for sp in spans if sp[2] == name]

    attempts = [
        sp for sp in named("solver.newton_solve")
        if sp[1] in by_id and by_id[sp[1]][2] == "solver.continuity_solve"
    ]
    rejected = sum(1 for sp in attempts if sp[5] is not None)
    overlap = 0.0
    for sp in named("estimates.sweep"):
        kids = children.get(sp[0], ())
        overlap += sum(k[4] - k[3] for k in kids) / max(sp[4] - sp[3], 1e-12)
    matvecs = c("linsolve.matvec")
    newton_steps = c("linsolve.solve_constrained")

    return {
        "grid.fft.calls": c("grid.fft.fwd") + c("grid.fft.inv"),
        "grid.fft.inverse_calls": c("grid.fft.inv"),
        "grid.fft.self_s": s("grid.fft.fwd") + s("grid.fft.inv"),
        "grid.fft.bytes": values.get("grid.fft.fwd", 0) + values.get("grid.fft.inv", 0),
        "grid.complex_hessian.calls": c("grid.complex_hessian"),
        "grid.complex_hessian.self_s": s("grid.complex_hessian"),
        "grid.inverse.self_s": s("grid.inverse"),
        "grid.det.self_s": s("grid.det"),
        "grid.min_eigenvalue.self_s": s("grid.min_eigenvalue"),
        "grid.HermitianField.calls": c("grid.HermitianField"),
        "grid.HermitianField.self_s": s("grid.HermitianField"),
        "linsolve.solve_constrained.calls": newton_steps,
        "linsolve.matvecs": matvecs,
        "linsolve.matvec.self_s": s("linsolve.matvec"),
        "linsolve.precond.calls": c("linsolve.precond"),
        "linsolve.precond.self_s": s("linsolve.precond"),
        "linsolve.lgmres.self_s": s("linsolve.lgmres"),
        "linsolve.stalled": sum(
            1 for sp in named("linsolve.solve_constrained") if sp[5] == "LinearSolverStalled"
        ),
        "solver.continuation_attempts": len(attempts),
        "solver.continuation_rejected": rejected,
        "solver.accept_ratio": (len(attempts) - rejected) / len(attempts) if attempts else 0.0,
        "solver.matvecs_per_newton": matvecs / newton_steps if newton_steps else 0.0,
        "solver.newton_solve.self_s": s("solver.newton_solve"),
        "geometry.gauduchon_weight.calls": c("geometry.gauduchon_weight"),
        "geometry.gauduchon_weight.self_s": s("geometry.gauduchon_weight"),
        "geometry.weight.matvecs": c("geometry.weight.matvec"),
        "geometry.weight.matvec.self_s": s("geometry.weight.matvec"),
        "geometry.defects.self_s": s("geometry.defects"),
        "geometry.gauduchon_residual.self_s": s("geometry.gauduchon_residual"),
        "geometry.ricci_form.self_s": s("geometry.ricci_form"),
        "estimates.report.self_s": s("estimates.report"),
        "estimates.sweep.overlap": overlap,
        "problems.metric_from_spec.s": incl_s.get("problems.metric_from_spec", 0.0),
        "fieldio.serialize.s": incl_s.get("fieldio.serialize", 0.0),
        "fieldio.serialize.bytes": values.get("fieldio.serialize", 0),
        "cli.run.self_s": s("cli.run"),
        # Sum of all self times minus time counted twice by overlapping
        # children: equals the traced cli.run duration when every span
        # descends from it.
        "trace.accounted_s": sum(self_s.values()) - excess,
    }


# Counters that do not depend on the machine; two traced runs of one
# commit must agree on them exactly.
WORK_COUNTERS = (
    "grid.fft.calls",
    "grid.fft.inverse_calls",
    "grid.complex_hessian.calls",
    "grid.HermitianField.calls",
    "linsolve.solve_constrained.calls",
    "linsolve.matvecs",
    "linsolve.precond.calls",
    "linsolve.stalled",
    "solver.continuation_attempts",
    "solver.continuation_rejected",
    "geometry.gauduchon_weight.calls",
    "geometry.weight.matvecs",
)
