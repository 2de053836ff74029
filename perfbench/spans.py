"""Span recorder for the traced benchmark run.

The benchmark measures every layer from outside the package: it replaces the
public hhmeasure functions a workload calls through with wrappers that record
one span per call (name, start, end, parent) plus a few counts, and leaves
every source file as it is.  Spans stay in memory until the run writes them
out.  A layer is one module of the package; span names are
``<module>.<function>``.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


class Tracer:
    """Spans and counts of one process; a span's parent is the span open around it."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = {}
        self._open = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.monotonic(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        self._open.remove(index)

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere, such as the start of a child process."""
        self.spans.append([name, start, end, -1])

    def count(self, name: str, value=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, original, name: str, after=None):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


# -- counts taken at the layer boundaries ---------------------------------------

def _curve_points(tracer, args, kwargs, curve):
    tracer.count("degree.curve_points", int(curve.points.size))


def _refined_curve(tracer, args, kwargs, curve):
    """A refined curve whose longest chord still exceeds its target hit the cap."""
    _curve_points(tracer, args, kwargs, curve)
    target = kwargs["target"] if "target" in kwargs else args[1]
    closed = np.append(curve.points, curve.points[0])
    if float(np.max(np.abs(np.diff(closed)))) > target:
        tracer.count("degree.curve_capped")


def _grid_cells(tracer, args, kwargs, mg):
    tracer.count("degree.cells", int(mg.values.size))
    tracer.count("degree.masked_cells", int(np.count_nonzero(mg.invalid)))


def _preimage_ok(tracer, args, kwargs, result):
    tracer.count("degree.preimage_ok")


def _products(power: int) -> int:
    """Matrix products numpy.linalg.matrix_power spends on one power."""
    if power <= 1:
        return 0
    return power.bit_length() - 1 + bin(power).count("1") - 1


def _poly_products(poly) -> int:
    xs = {i for i, _ in poly.coeffs} | {0}
    ys = {j for _, j in poly.coeffs} | {0}
    return sum(map(_products, xs)) + sum(map(_products, ys)) + len(poly.coeffs)


def _commutator_flops(tracer, args, kwargs, result):
    """Computed flops of the two padded dense blocks (sizes n and 2n) of one trace."""
    sym, p, q = args[:3]
    override = args[3] if len(args) > 3 else kwargs.get("n_override")
    k = max(sym.band, 1)
    n = override if override is not None else (p.degree + q.degree + 2) * k
    pad = (p.degree + q.degree) * k
    products = _poly_products(p) + _poly_products(q) + 2
    for size in (n + pad, 2 * n + pad):
        tracer.count("operators.commutator_flops", 8 * products * size ** 3)


def install(tracer: Tracer):
    """Route every public entry point a workload uses through `tracer`.

    A function is rebound wherever an hhmeasure module holds it, because the
    modules import each other's functions by name.  Returns a function that
    puts the originals back.
    """
    from hhmeasure import besov, cli, degree, gallery, measure, operators, symbols

    targets = [
        (cli.main, "cli.main", None),
        (symbols.load_symbol_spec, "symbols.load", None),
        (degree.multiplicity_grid, "degree.grid", _grid_cells),
        (degree.winding, "degree.winding", None),
        (degree.preimage_multiplicity, "degree.preimage", _preimage_ok),
        (measure.hh_density, "measure.hh_density", None),
        (measure.total_variation, "measure.total_variation", None),
        (measure.index_check, "measure.index_check", None),
        (measure.trace_formula_check, "measure.trace_formula_check", None),
        (measure.smoothing_limit_probe, "measure.smoothing_limit_probe", None),
        (operators.commutator_trace, "operators.commutator_trace", _commutator_flops),
        (operators.smoothing_trace_identity, "operators.smoothing_identity", None),
        (operators.self_commutator, "operators.self_commutator", None),
        (besov.besov_membership, "besov.membership", None),
        (gallery.summary_table, "gallery.summary_table", None),
    ]
    modules = [m for name, m in list(sys.modules.items())
               if name == "hhmeasure" or name.startswith("hhmeasure.")]
    replaced = []

    def replace(owner, attr, new):
        replaced.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for original, name, after in targets:
        wrapper = tracer.wrap(original, name, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    replace(module, attr, wrapper)

    curve_cls = degree.SampledCurve
    from_symbol = curve_cls.__dict__["from_symbol"].__func__
    replace(curve_cls, "from_symbol", classmethod(
        tracer.wrap(from_symbol, "degree.curve", _curve_points)))
    replace(curve_cls, "refine_to_chord", tracer.wrap(
        curve_cls.refine_to_chord, "degree.curve", _refined_curve))

    def uninstall():
        for owner, attr, old in reversed(replaced):
            setattr(owner, attr, old)
    return uninstall


# -- aggregation -----------------------------------------------------------------

def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def layer_times(spans) -> tuple[dict, dict]:
    """(total seconds, self seconds) per span name over a list of spans."""
    children = {}
    for name, lo, hi, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((lo, hi))
    total, own = {}, {}
    for index, (name, lo, hi, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (hi - lo)
        inner = [(max(a, lo), min(b, hi)) for a, b in children.get(index, ())]
        own[name] = own.get(name, 0.0) + (hi - lo) - _union_length(
            [(a, b) for a, b in inner if b > a])
    return total, own


def uncovered(spans, windows) -> float:
    """Seconds of the job windows that no span covers."""
    gap = 0.0
    for lo, hi in windows:
        inside = [(max(a, lo), min(b, hi)) for _, a, b, _ in spans]
        gap += (hi - lo) - _union_length([(a, b) for a, b in inside if b > a])
    return gap
