"""Spans around calls into hypoel's layers, recorded from outside the package.

``Tracer.install`` replaces every public function of each layer module, and
the public methods (plus ``__call__``) of each public class, with a wrapper
that records a span: layer, name, parent span, operation id, start and end.
Wrappers go wherever callers look the names up: the defining module, every
hypoel module that imported the name, the ``hypoel`` package namespace, and
the class for methods.  The entry points of ``numpy.fft`` are wrapped too, so
every FFT the program runs is a span of its own layer ``fft``.

Spans stay in memory; ``layer_metrics`` turns them into per-layer counts and
self times (a span's duration minus the time of its child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter

import numpy as np
import numpy.fft

LAYERS = ("symbols", "analysis", "sequences", "weights", "grids", "estimates", "cli")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn", "hfft", "ihfft")


def _points(xi) -> int:
    return math.prod(np.shape(xi)[:-1])


def _count_eval(counts, args, out):
    counts["symbols.eval_points"] += _points(args[1])


def _count_weight(counts, args, out):
    counts["weights.eval_points"] += _points(args[1])


def _count_directions(counts, args, out):
    counts["analysis.directions_built"] += len(out)


def _count_sweep(counts, args, out):
    counts["grids.sweep_entries"] += len(out.labels)
    counts["grids.sweep_entries_unflagged"] += sum(not f for f in out.flagged)


def _count_cases(counts, args, out):
    if hasattr(out, "cases"):
        counts["estimates.cases"] += len(out.cases)
    elif hasattr(out, "labels"):
        counts["estimates.cases"] += len(out.labels)


def _count_fft(counts, args, out):
    counts["grids.fft_points"] += out.size
    counts["grids.fft_bytes_computed"] += np.asarray(args[0]).nbytes + out.nbytes


#: scalar helpers called ~10^5 times a round from inside their own layer; a span
#: would cost more than the call, so their time stays in the caller's self time
UNTRACED = {("sequences", "log_factorial"), ("sequences", "log_binomial")}

#: extra counts derived from a call's arguments or result, keyed by (layer, name)
COUNTERS = {
    ("symbols", "SymbolPolynomial.__call__"): _count_eval,
    ("analysis", "unit_directions"): _count_directions,
    ("grids", "iterate_norms"): _count_sweep,
    ("grids", "derivative_norms"): _count_sweep,
}


class Tracer:
    def __init__(self):
        #: [layer, name, parent index, operation id, start, end]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.operation = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, layer: str, name: str, fn, count=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [layer, name, stack[-1] if stack else -1, self.operation, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[5] = clock()
            if count is not None:
                count(counts, args, out)
            return out

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import hypoel

        modules = {layer: importlib.import_module(f"hypoel.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if (layer, name) in UNTRACED:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped[obj] = self.wrap(layer, name, obj, self._counter(layer, name))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for mod in [hypoel, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
        for name in FFT_NAMES:
            self._patch(numpy.fft, name, self.wrap("fft", name, getattr(numpy.fft, name), _count_fft))
        return self

    def _counter(self, layer, name):
        if layer == "estimates":
            return _count_cases
        return COUNTERS.get((layer, name))

    def _wrap_methods(self, layer, cls):
        is_weight = layer == "weights"
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            static = isinstance(member, staticmethod)
            fn = member.__func__ if static else member
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            name = f"{cls.__name__}.{attr}"
            count = _count_weight if is_weight and attr == "__call__" else COUNTERS.get((layer, name))
            wrapper = self.wrap(layer, name, fn, count)
            self._patch(cls, attr, staticmethod(wrapper) if static else wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times summed over every recorded span."""
        child = [0.0] * len(self.spans)
        for layer, name, parent, op, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        calls = Counter()
        for (layer, name, parent, op, start, end), busy in zip(self.spans, child):
            self_s[layer] += (end - start) - busy
            calls[layer] += 1
            calls[(layer, name)] += 1
        out = dict(self.counts)
        out.update({
            "symbols.eval_calls": calls[("symbols", "SymbolPolynomial.__call__")],
            "analysis.calls": calls["analysis"],
            "analysis.check_hypoelliptic_calls": calls[("analysis", "check_hypoelliptic")],
            "sequences.log_m_calls": sum(n for key, n in calls.items() if isinstance(key, tuple)
                                         and key[0] == "sequences" and key[1].endswith(".log_m")),
            "grids.fft_calls": calls["fft"],
            "grids.fft_s": self_s["fft"],
            "grids.restricted_l2_calls": calls[("grids", "restricted_l2")],
            "grids.tail_fraction_calls": calls[("grids", "spectral_tail_fraction")],
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out
