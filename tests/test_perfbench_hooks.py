"""The traced benchmark's hooks still fit the package.

`perfbench/spans.py` wraps public functions and the `SampledCurve`
constructors from outside, by name and by argument position.  This test
loads that file as it is, installs its tracer, runs a small density and
index check through the wrapped functions and checks that the curve spans
and counts were recorded and that uninstalling puts the originals back.
"""

import importlib.util
from pathlib import Path

from hhmeasure import FourierSymbol, measure
from hhmeasure.degree import GridSpec, SampledCurve

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_curve_spans():
    spans = load_spans()
    from_symbol = SampledCurve.__dict__["from_symbol"]
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        sym = FourierSymbol({1: 1.0})
        density = measure.hh_density(sym, 1.0, GridSpec(-1.5, 1.5, -1.5, 1.5, 40, 40))
        wind, _, ok = measure.index_check(sym, 0.1 + 0.2j, 1.0, density=density)
    finally:
        uninstall()
    assert wind == 1 and ok
    names = [span[0] for span in tracer.spans]
    assert "degree.curve" in names and "measure.index_check" in names
    assert tracer.counts["degree.curve_points"] > 0
    assert "degree.curve_capped" not in tracer.counts
    assert SampledCurve.__dict__["from_symbol"] is from_symbol
