"""Spans around hgrcalc's public functions, installed from outside the program.

The tracer replaces a function or method by a timing wrapper wherever the
loaded hgrcalc modules refer to it, and puts the originals back on close.
Spans (name, start, end, parent) stay in memory until the run writes them
out.  Where spans nest, a span's self time is its duration minus the
durations of its direct children.
"""

import functools
import sys
from time import perf_counter

from hgrcalc import chainduality, forms, grassring, polynomial, symfun, towers


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self._stack = []       # [span index, child seconds]
        self._patches = []

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn, on_result=None):
        """A wrapper that records one span per call of fn."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1][0] if stack else None
            tracer.spans.append(None)
            stack.append([index, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, child = stack.pop()
                tracer.spans[index] = (name, start, end, parent)
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + (end - start - child)
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if stack:
                    stack[-1][1] += end - start
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def patch(self, owner, attr, name, on_result=None):
        """Wrap owner.attr, and every other reference to the same object
        held by a loaded hgrcalc module."""
        original = owner.__dict__[attr]
        wrapper = self.span(name, original, on_result)
        holders = [owner] + [m for key, m in sorted(sys.modules.items())
                             if key.startswith("hgrcalc") and m is not None]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._patches.append((holder, key, original))

    def close(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []


def install_layers(tracer):
    """Spans at the public entry points of each library layer."""
    tracer.patch(grassring.GrassElement, "__mul__", "grassring.mul")
    tracer.patch(grassring.GrassRing, "normal_form", "grassring.normal_form")
    tracer.patch(symfun, "schur_in_elementary", "symfun.schur_in_elementary")
    tracer.patch(symfun, "poly_to_schur_coords", "symfun.poly_to_schur_coords")
    tracer.patch(polynomial, "bareiss_det", "polynomial.bareiss_det")
    tracer.patch(forms, "sp_reduce_unimodular", "forms.sp_reduce_unimodular",
                 lambda factors: tracer.count("forms.transvections", len(factors)))
    tracer.patch(forms, "diagonalize", "forms.diagonalize")
    for cls in (forms.RationalsField, forms.RealClosedField, forms.FiniteField):
        tracer.patch(cls, "square_class", "forms.square_class")
    tracer.patch(towers, "smith_normal_form", "towers.smith_normal_form")
    tracer.patch(towers, "hermite_column_form", "towers.hermite_column_form")
    tracer.patch(chainduality, "koszul", "chainduality.koszul")
    tracer.patch(chainduality, "koszul_tensor_isometry",
                 "chainduality.koszul_tensor_isometry")


def layer_metrics(tracer):
    """The per-layer figures of one traced round: self seconds and calls per
    span name, the counters, and the monomial memo table's hits and misses."""
    out = {}
    for name, seconds in tracer.self_s.items():
        out[name + "_s"] = seconds
        out[name + "_calls"] = tracer.calls[name]
    out.update(tracer.counts)
    info = symfun._monomial_schur.cache_info()
    out["symfun.monomial_cache_hits"] = info.hits
    out["symfun.monomial_cache_misses"] = info.misses
    return out
