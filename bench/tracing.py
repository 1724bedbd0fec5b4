"""Spans around charfred's public functions, installed from outside.

The program itself carries no tracing. ``Tracer.install`` replaces every
binding of every public function of the eight charfred modules with a
wrapper that records a span; ``Tracer.uninstall`` puts the originals
back, so traced and untraced operations can alternate in one process.
``from .x import y`` copies a binding, so the same wrapper is set on
every module (and on the package) that holds the function.

A span is recorded at each layer boundary, that is a call entering a
module from another module or from the benchmark, and at every call of
a function that a per-layer metric names. Calls inside one module to an
unnamed function (``evaluate`` recursing through an expression tree,
``cmd_solve`` dispatched from ``main``) stay inside the caller's span.

``scipy.linalg.lstsq`` and ``numpy.linalg.svd`` get the names
``fredholm.section_solve`` and ``fredholm.kernel_svd``: ``fredholm``
looks both up at call time, so patching the library attribute times
exactly those calls.

Spans stay in memory until ``dump`` writes them once at the end. The
program runs on one thread, so one stack of open spans is enough.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

LAYERS = ("config", "system", "expressions", "gridfield", "characteristics",
          "fredholm", "diagnostics", "cli")

# (module, attribute) of library calls timed under a fredholm name
EXTERNAL = {"fredholm.section_solve": ("scipy.linalg", "lstsq"),
            "fredholm.kernel_svd": ("numpy.linalg", "svd")}


def _csv_bytes(args, kwargs, result):
    target = kwargs.get("target", args[1] if len(args) > 1 else None)
    return os.path.getsize(target) if isinstance(target, str) else 0


# span name -> {counter: f(args, kwargs, result)}, the work each call did
COUNTERS = {
    "characteristics.solve_transport_stack": {
        "columns": lambda a, k, r: r.shape[0]},
    "fredholm.assemble_dense": {
        "columns": lambda a, k, r: r.shape[1],
        "matrix_bytes": lambda a, k, r: r.nbytes},
    "fredholm.solve_neumann": {"iterations": lambda a, k, r: r.iterations},
    "expressions.evaluate_on": {"points": lambda a, k, r: r.size},
    "gridfield.interpolate_many": {
        "points": lambda a, k, r: r.size // max(1, r.shape[0])},
    "gridfield.to_csv": {"bytes": _csv_bytes},
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int         # index of the enclosing span, -1 for none
    op: object          # operation index, or "setup"
    counts: dict


class Tracer:
    def __init__(self, named=()):
        self.spans: list = []
        self.op: object = None
        self._named = frozenset(named) | frozenset(EXTERNAL)
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        always = name in self._named
        counters = COUNTERS.get(name, {})
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if stack and not always and stack[-1][1] == module:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append((index, module))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op, {})
            if counters:
                spans[index].counts.update(
                    (key, int(count(args, kwargs, result)))
                    for key, count in counters.items())
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            return
        import charfred
        modules = [importlib.import_module(f"charfred.{m}") for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    wrapper = self._wrap(f"{layer}.{attr}", value)
                    wrappers[id(value)] = (value, wrapper)
        libraries = []
        for name, (modname, attr) in EXTERNAL.items():
            lib = importlib.import_module(modname)
            value = getattr(lib, attr)
            wrappers[id(value)] = (value, self._wrap(name, value))
            libraries.append(lib)
        for mod in (charfred, *modules, *libraries):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s._asdict() for s in self.spans], fh)


def load_spans(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [Span(**s) for s in json.load(fh)]


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        inner = [(max(c.start, s.start), min(c.end, s.end))
                 for c in children[i]]
        out.append((s.end - s.start) - _covered(inner))
    return out


def per_op(spans) -> dict:
    """{op: {span name: {"calls", "self_s", counters...}}}."""
    table = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
    for s, own in zip(spans, self_times(spans)):
        row = table[s.op][s.name]
        row["calls"] += 1
        row["self_s"] += own
        for key, value in s.counts.items():
            row[key] += value
    return table
