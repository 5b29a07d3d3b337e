"""Outside-in layer tracing for eigencoupler.

The package is never edited: `Tracer.install()` replaces a named list of
public functions with timing wrappers, in every `eigencoupler.*` module
namespace that binds them, so calls made through names imported across
modules (`from .spectral import decompose`) are caught as well.

Each wrapped call becomes a span (name, layer, start, end, parent) kept in
memory. A layer is the module the function is defined in. From the spans the
tracer derives, per layer: calls, self wall time (span minus its direct
children), self CPU time, and the tracemalloc peak above the allocation level
at span start. It also keeps counters of work done, read from the
arguments and results of a few calls.

tracemalloc hooks every allocation and slows allocation-heavy Python code
several times over (the pure-Python tridiagonal solver about 4x), so a
tracer either times spans or tracks allocation peaks, never both.

A listed function that does not exist (a module or name removed by a later
change) is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import threading
import time
import tracemalloc

# layer -> public functions traced in that layer's module
TARGETS = {
    "config": ["parse_config"],
    "potential": ["make_potential", "require_coupling_ready", "domains_of_attraction"],
    "spectral": ["auto_grid", "build_generator", "decompose", "schrodinger_eigenvalues"],
    "tridiag": ["eigensolve_tridiagonal"],
    "chain": ["synth_generator", "scaled_eigenvectors", "validate_chain"],
    "coupling": ["build_coupling", "build_joint_generator"],
    "oracle": ["evolve_distribution", "check_conditional_law", "check_y_marginal",
               "mean_exit_times"],
    "simulate": ["simulate_ensemble"],
    "stats": ["tv_distance", "tracking_probability"],
    "svgplot": ["line_chart"],
    "cli": ["execute"],
}
LAYERS = tuple(TARGETS)
COUNTERS = ("spectral.decompose_calls", "spectral.nodes", "tridiag.eigenpairs",
            "oracle.joint_evolutions", "oracle.rate_time",
            "simulate.path_steps", "simulate.paths", "simulate.jumps",
            "stats.records_scanned", "trace.counter_errors")


def _count_decompose(c, args, kwargs, result):
    c["spectral.decompose_calls"] += 1
    c["spectral.nodes"] += args[0].n


def _count_schrodinger(c, args, kwargs, result):
    c["spectral.nodes"] += args[2].n


def _count_eigensolve(c, args, kwargs, result):
    c["tridiag.eigenpairs"] += len(result[0])


def _count_joint(c, args, kwargs, result):
    c.joint_shapes.add(result.shape)


def _count_evolve(c, args, kwargs, result):
    B, t = args[0], args[2] if len(args) > 2 else kwargs["t"]
    if B.shape in c.joint_shapes:
        c["oracle.joint_evolutions"] += 1
    # uniformization rate Lambda = max exit rate; Lambda*t sets the series length
    c["oracle.rate_time"] += float(abs(B.diagonal()).max()) * float(t)


def _count_ensemble(c, args, kwargs, result):
    cfg = args[0]
    c["simulate.path_steps"] += cfg.n_paths * cfg.n_steps
    c["simulate.paths"] += len(result)
    c["simulate.jumps"] += sum(len(r.jumps) for r in result)


def _count_tracking(c, args, kwargs, result):
    c["stats.records_scanned"] += len(args[0])


_COUNT = {
    "decompose": _count_decompose,
    "schrodinger_eigenvalues": _count_schrodinger,
    "eigensolve_tridiagonal": _count_eigensolve,
    "build_joint_generator": _count_joint,
    "evolve_distribution": _count_evolve,
    "simulate_ensemble": _count_ensemble,
    "tracking_probability": _count_tracking,
}


class _Counters(dict):
    def __init__(self):
        super().__init__((k, 0) for k in COUNTERS)
        self.joint_shapes = set()


class _Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "cpu0", "cpu",
                 "child_wall", "child_cpu", "base", "peak")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.child_wall = self.child_cpu = 0.0
        self.base = self.peak = 0


class Tracer:
    """Wraps the target functions of an imported eigencoupler package and
    records spans for calls made on the installing thread."""

    def __init__(self, alloc=False):
        self.alloc = alloc
        self.spans = []
        self.counters = _Counters()
        self._stack = []
        self._thread = threading.get_ident()
        self._restore = []

    @classmethod
    def install(cls, alloc=False):
        tracer = cls(alloc)
        pkg = importlib.import_module("eigencoupler")
        modules = [pkg] + [importlib.import_module(f"eigencoupler.{m.name}")
                           for m in pkgutil.iter_modules(pkg.__path__)]
        for layer, names in TARGETS.items():
            home = next((m for m in modules if m.__name__ == f"eigencoupler.{layer}"), None)
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    continue
                wrapper = tracer._wrap(original, name, layer)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            tracer._restore.append((mod, attr, original))
        if alloc:
            tracemalloc.start()
        return tracer

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()
        if self.alloc:
            tracemalloc.stop()

    def _wrap(self, fn, name, layer):
        count = _COUNT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                try:
                    count(self.counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.counters["trace.counter_errors"] += 1
            return result

        return wrapper

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        span = _Span(name, layer, parent)
        if self.alloc:
            if parent is not None:
                parent.peak = max(parent.peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            span.base = tracemalloc.get_traced_memory()[0]
        self._stack.append(span)
        span.cpu0 = time.process_time()
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        span.cpu = time.process_time() - span.cpu0
        if self.alloc:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
        self._stack.pop()
        parent = span.parent
        if parent is not None:
            parent.child_wall += span.end - span.start
            parent.child_cpu += span.cpu
            parent.peak = max(parent.peak, span.peak)
        self.spans.append(span)

    def export(self):
        """Spans as plain dicts (in completion order, parent by index) plus
        the counters."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        spans = [{
            "name": s.name,
            "layer": s.layer,
            "start": s.start,
            "end": s.end,
            "parent": index.get(id(s.parent)),
            "self_s": (s.end - s.start) - s.child_wall,
            "self_cpu_s": s.cpu - s.child_cpu,
            "peak_alloc_mb": (s.peak - s.base) / 2 ** 20,
        } for s in self.spans]
        return {"spans": spans, "counters": dict(self.counters)}


def layer_totals(spans):
    """Per-layer calls, self time, self CPU time and peak allocation over a
    list of exported spans; every layer in LAYERS is present."""
    out = {layer: {"calls": 0, "self_s": 0.0, "cpu_s": 0.0, "peak_alloc_mb": 0.0}
           for layer in LAYERS}
    for s in spans:
        row = out[s["layer"]]
        row["calls"] += 1
        row["self_s"] += s["self_s"]
        row["cpu_s"] += s["self_cpu_s"]
        row["peak_alloc_mb"] = max(row["peak_alloc_mb"], s["peak_alloc_mb"])
    return out
