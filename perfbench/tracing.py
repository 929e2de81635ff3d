"""Spans around chirospec's public functions, one layer per package module.

``Tracer.install()`` wraps every function in ``TRACED``, in its defining
module and in every chirospec module that bound it by name (``cli`` imports
``classify_lineshape`` and friends directly, ``spectrum`` imports
``dressed_states`` and ``jsa_value``), so no call escapes its span.  Spans
(id, parent id, name, start, end, command id) and a few work counts stay in
memory until ``dump()`` writes them out.

This module imports nothing from chirospec at load time, so the parent
benchmark process can use the analysis helpers without importing the
program.  Worker processes forked by a pool inherit the wrappers, but
their spans stay in the worker and are lost when it exits.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import weakref
from collections import defaultdict

#: (module, function) pairs that get a span; the layer is the module name.
TRACED = (
    ("config", "parse_config"),
    ("model", "build_rotating_hamiltonian"),
    ("model", "dressed_states"),
    ("biphoton", "jsa_value"),
    ("biphoton", "default_grid"),
    ("spectrum", "transmission_curve"),
    ("analysis", "curve_pair"),
    ("analysis", "sweep_amplitude"),
    ("analysis", "discriminability"),
    ("analysis", "classify_lineshape"),
    ("analysis", "regime_map"),
    ("cli", "build_scan_grid"),
    ("cli", "main"),
)

LAYERS = ("config", "model", "biphoton", "spectrum", "analysis", "cli")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, command: int = 0):
        """``command`` identifies the command whose spans this process records."""
        self.command = command
        self.spans: list[list] = []
        self.points: dict[str, int] = defaultdict(int)
        self.patched: dict[str, list[str]] = {}
        self.distinct_classified = 0
        self._stack: list[int] = []
        self._seen = weakref.WeakValueDictionary()

    def install(self) -> None:
        """Replace every binding of each ``TRACED`` function with its wrapper."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "chirospec" or name.startswith("chirospec."))
        }
        for mod_name, func_name in TRACED:
            key = f"{mod_name}.{func_name}"
            original = getattr(modules[f"chirospec.{mod_name}"], func_name, None)
            if original is None:  # renamed or removed: reported as 0 calls
                self.patched[key] = []
                continue
            wrapper = self._wrap(key, original)
            sites = []
            for name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        sites.append(name.removeprefix("chirospec."))
            self.patched[key] = sorted(sites)

    def _wrap(self, key: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, key, 0.0, 0.0, self.command]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            self._count(key, args, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        return traced

    def _count(self, key: str, args, result) -> None:
        if key == "biphoton.jsa_value":
            self.points[key] += int(getattr(result, "size", 1))
        elif key == "spectrum.transmission_curve":
            self.points[key] += len(result)
        elif key == "analysis.classify_lineshape":
            curve = args[0]
            if self._seen.get(id(curve)) is not curve:
                self._seen[id(curve)] = curve
                self.distinct_classified += 1

    def dump(self, path: str, wall_s: float) -> None:
        """Write spans and counts; ``wall_s`` is the untraced-clock command time."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "wall_s": wall_s,
                    "spans": self.spans,
                    "points": dict(self.points),
                    "distinct_classified": self.distinct_classified,
                    "patched": self.patched,
                },
                fh,
            )


def summarize(traces: list[dict]) -> dict:
    """Per-function and per-layer figures over the traces of one pass.

    Self time is a span's duration minus the durations of its direct
    children (calls nest, so children never overlap).  The traced wall time
    is the sum of the command times measured around ``cli.main``; the part
    of it no span covers is reported as ``uncovered_s``.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    curve_ms: list[float] = []
    points: dict[str, int] = defaultdict(int)
    distinct = 0
    wall = 0.0
    roots = 0.0
    for trace in traces:
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for sid, parent, _name, start, end, _cmd in spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, parent, name, start, end, _cmd in spans:
            calls[name] += 1
            self_s[name] += (end - start) - child[sid]
            if parent < 0:
                roots += end - start
            if name == "spectrum.transmission_curve":
                curve_ms.append((end - start) * 1e3)
        for key, n in trace["points"].items():
            points[key] += n
        distinct += trace["distinct_classified"]
        wall += trace["wall_s"]

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value
    uncovered = wall - roots
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "points": dict(points),
        "distinct_classified": distinct,
        "curve_ms": curve_ms,
        "wall_s": wall,
        "layer_self_s": layer_self,
        "uncovered_s": uncovered,
    }


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) by the inclusive method; needs >= 2 values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
