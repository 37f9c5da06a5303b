"""Span tracing of marekit from outside the package.

``Tracer.install`` replaces each traced function in every marekit module
namespace that binds it (``problem.classify_problem`` is bound in
``problem``, ``doubling`` and ``cli`` alike), and the traced methods on
their class.  Each wrapper records a span (id, parent, name, start, end)
and, for a few layers, a count taken from the call's arguments, result or
exception.  Spans stay in memory; ``write_spans`` writes them out once the
run is over.  A name the package no longer defines is reported absent and
is otherwise skipped.

Only the public API (``marekit.__all__``) and the layer entry points the
per-layer metrics name are traced.  Tolerance and norm helpers are left
alone: they are called thousands of times per solve and wrapping them
would mostly measure the wrapper.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) beyond marekit.__all__ that the metrics need
EXTRA_TARGETS = (
    ("linalg", "lu_factor"),
    ("linalg", "lu_solve"),
    ("cli", "execute"),
)
METHOD_TARGETS = (("linalg", "SylvesterSolver", "__init__"), ("linalg", "SylvesterSolver", "solve"))

OP = "op"


def _step_flops(tracer, args, result, exc):
    """Dense flops of one doubling step, computed from the block shapes.

    Counts the two cross products and their LU factorizations at the old
    and the new iterate, the four solves with the factors and the six
    products that form E, F, G, H.  Perron-root work is iterative and is
    not counted.
    """
    s = args[0]
    n, m = s.G.shape
    # integer arithmetic keeps the per-pass sums exact (LU: 2k^3/3, rounded down)
    cross = 2 * (2 * n * n * m + 2 * m * m * n) + 4 * (n**3 + m**3) // 3
    solves = 2 * n * n * (n + m) + 2 * m * m * (m + n)
    products = 2 * n**3 + 2 * m**3 + 2 * (n * n * m + n * m * m) * 2
    tracer.values["doubling.step.flops"] += cross + solves + products


def _oracle_iterations(tracer, args, result, exc):
    if result is not None:
        tracer.values["fixedpoint.fixed_point_solve.iterations"] += result.iterations


def _rate_unavailable(tracer, args, result, exc):
    if exc is not None or result is None or not math.isfinite(result):
        tracer.values["doubling.theoretical_rate.unavailable"] += 1


def _solve_cap(tracer, args, result, exc):
    if exc is not None and type(exc).__name__ == "MaxIterations":
        tracer.values["doubling.solve.cap"] += 1


HOOKS = {
    "doubling.step": _step_flops,
    "fixedpoint.fixed_point_solve": _oracle_iterations,
    "doubling.theoretical_rate": _rate_unavailable,
    "doubling.solve": _solve_cap,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.values: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called ``name``."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        hook = HOOKS.get(name)
        result = exc = None
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            exc = e
            raise
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))
            if hook is not None:
                try:
                    hook(self, args, result, exc)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # a signature the hook does not know leaves its count at
                    # 0 rather than failing the traced operation
                    pass

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the traced functions in every marekit module namespace."""
        prefix = package.__name__ + "."
        modules = [m for k, m in sorted(sys.modules.items()) if m is not None and (k == package.__name__ or k.startswith(prefix))]
        targets = [("", name) for name in getattr(package, "__all__", ())] + list(EXTRA_TARGETS)
        seen = set()
        for modname, attr in targets:
            owner = sys.modules.get(prefix + modname) if modname else package
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{modname}.{attr}" if modname else attr)
                continue
            if not callable(fn) or isinstance(fn, type) or id(fn) in seen:
                continue
            seen.add(id(fn))
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            wrapped = self._wrapper(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapped)
        for modname, cls_name, meth in METHOD_TARGETS:
            cls = getattr(sys.modules.get(prefix + modname), cls_name, None)
            fn = cls.__dict__.get(meth) if cls is not None else None
            if fn is None:
                self.absent.append(f"{modname}.{cls_name}.{meth}")
                continue
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrapper(f"{modname}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for obj, key, fn in reversed(self._patches):
            setattr(obj, key, fn)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, int]:
        """Span id -> duration minus the durations of its direct children."""
        child = defaultdict(int)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return {sid: (t1 - t0) - child[sid] for sid, _, _, t0, t1 in self.spans}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, parent, name, t0, t1 in sorted(self.spans):
                fh.write(f"{sid},{parent},{name},{t0},{t1}\n")


def call_counts(spans) -> Counter:
    return Counter(name for _, _, name, _, _ in spans)


def layer_metrics(tracer: Tracer, ops: int, overhead_frac: float, time_scale: float = 1.0) -> tuple[dict, list[str]]:
    """Per-operation means of the per-layer metrics, and the absent ones.

    Returns ({metric: (value, unit)}, [absent metric names]).  Every time
    is multiplied by ``time_scale`` (the run's factor to reference machine
    speed).  A metric is absent when none of its layers made a call in the
    traced passes (the layer does not run on this workload, or the package
    no longer has it); its value then reads 0.
    """
    selfs = tracer.self_times()
    parent_of = {sid: parent for sid, parent, _, _, _ in tracer.spans}
    name_of = {sid: name for sid, _, name, _, _ in tracer.spans}
    self_ns, dur_ns, calls, under_step = Counter(), Counter(), Counter(), Counter()
    for sid, _, name, t0, t1 in tracer.spans:
        self_ns[name] += selfs[sid]
        dur_ns[name] += t1 - t0
        calls[name] += 1
        p = parent_of[sid]
        while p >= 0 and name_of[p] != "doubling.step":
            p = parent_of[p]
        if p >= 0:
            under_step[name] += 1

    ops = max(ops, 1)
    steps = calls["doubling.step"]
    step_s = dur_ns["doubling.step"] / 1e9 * time_scale
    values = tracer.values

    def self_ms(*names):
        return sum(self_ns[n] for n in names) / 1e6 * time_scale / ops

    def per_step(name):
        return under_step[name] / steps if steps else 0.0

    step = ("doubling.step",)
    sylvester = ("linalg.SylvesterSolver.__init__", "linalg.SylvesterSolver.solve")
    rows = [  # metric, value, unit, layers whose calls make it present
        ("mstruct.classify_zm.self_ms", self_ms("mstruct.classify_zm"), "ms", ("mstruct.classify_zm",)),
        ("linalg.spectral_radius_nonneg.self_ms", self_ms("linalg.spectral_radius_nonneg"), "ms", ("linalg.spectral_radius_nonneg",)),
        ("doubling.step.classify_zm_per_step", per_step("mstruct.classify_zm"), "count", step),
        ("doubling.step.self_ms", self_ms("doubling.step"), "ms", step),
        ("doubling.step.calls", steps / ops, "count", step),
        ("doubling.step.lu_factor_per_step", per_step("linalg.lu_factor"), "count", step),
        ("linalg.lu_factor.self_ms", self_ms("linalg.lu_factor"), "ms", ("linalg.lu_factor",)),
        ("linalg.lu_solve.self_ms", self_ms("linalg.lu_solve"), "ms", ("linalg.lu_solve",)),
        ("linalg.lu_factor.calls", calls["linalg.lu_factor"] / ops, "count", ("linalg.lu_factor",)),
        ("doubling.theoretical_rate.self_ms", self_ms("doubling.theoretical_rate"), "ms", ("doubling.theoretical_rate",)),
        ("linalg.spectral_radius.self_ms", self_ms("linalg.spectral_radius"), "ms", ("linalg.spectral_radius",)),
        ("linalg.eigenvalues.self_ms", self_ms("linalg.eigenvalues"), "ms", ("linalg.eigenvalues",)),
        ("doubling.theoretical_rate.unavailable", values["doubling.theoretical_rate.unavailable"] / ops, "frac", ("doubling.theoretical_rate",)),
        ("mstruct.regularity_witness.self_ms", self_ms("mstruct.regularity_witness"), "ms", ("mstruct.regularity_witness",)),
        ("mstruct.null_pair.self_ms", self_ms("mstruct.null_pair"), "ms", ("mstruct.null_pair",)),
        ("mstruct.zero_eigen_structure.self_ms", self_ms("mstruct.zero_eigen_structure"), "ms", ("mstruct.zero_eigen_structure",)),
        ("mstruct.is_irreducible.self_ms", self_ms("mstruct.is_irreducible"), "ms", ("mstruct.is_irreducible",)),
        ("problem.classify_problem.ms", dur_ns["problem.classify_problem"] / 1e6 * time_scale / ops, "ms", ("problem.classify_problem",)),
        ("fixedpoint.fixed_point_solve.self_ms", self_ms("fixedpoint.fixed_point_solve"), "ms", ("fixedpoint.fixed_point_solve",)),
        ("fixedpoint.fixed_point_solve.iterations", values["fixedpoint.fixed_point_solve.iterations"] / ops, "count", ("fixedpoint.fixed_point_solve",)),
        ("linalg.SylvesterSolver.self_ms", self_ms(*sylvester), "ms", sylvester),
        ("doubling.initialize.self_ms", self_ms("doubling.initialize"), "ms", ("doubling.initialize",)),
        ("problem.make_certificate.self_ms", self_ms("problem.make_certificate"), "ms", ("problem.make_certificate",)),
        ("doubling.observed_rate.self_ms", self_ms("doubling.observed_rate"), "ms", ("doubling.observed_rate",)),
        ("cli.execute.self_ms", self_ms("cli.execute"), "ms", ("cli.execute",)),
        ("doubling.solve.cap_frac", values["doubling.solve.cap"] / ops, "frac", ("doubling.solve",)),
        ("doubling.step.gflops", values["doubling.step.flops"] / step_s / 1e9 if step_s else 0.0, "GFLOP/s", step),
        ("trace.overhead_frac", overhead_frac, "frac", ()),
    ]
    metrics = {name: (value, unit) for name, value, unit, _ in rows}
    absent = [name for name, _, _, layers in rows if layers and not any(calls[n] for n in layers)]
    return metrics, absent
