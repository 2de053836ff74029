from dataclasses import fields

import hhmeasure

PUBLIC = [
    "BesovReport", "BivariatePolynomial", "FourierSymbol", "GridSpec",
    "MeasureDensity", "MultiplicityGrid", "SampledCurve", "TraceFormulaReport",
    "WeightedShiftSpec", "__version__",
    "almost_normal_sufficient", "analytic_besov_seminorm", "besov_membership",
    "brown_bound_check", "cesaro_commutator", "commutator_trace", "default_grid",
    "errors", "hankel_matrix", "hankel_schatten_probe", "hh_density", "index_check",
    "jacobian_bracket", "jacobian_integrability", "load_symbol_spec",
    "multiplicity_grid", "parse_polynomial", "perturbation_family_norm",
    "preimage_multiplicity", "schatten_norm", "self_commutator",
    "shift_almost_normality", "shift_hh_total_variation", "smoothing_limit_probe",
    "smoothing_trace_identity", "toeplitz_matrix", "total_variation",
    "trace_formula_check", "winding",
]


def test_public_surface():
    assert sorted(hhmeasure.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(hhmeasure, name), name


def test_curve_raster_and_density_compare_by_identity():
    sym = hhmeasure.FourierSymbol({1: 1.0})
    grid = hhmeasure.GridSpec(-1.5, 1.5, -1.5, 1.5, 10, 10)
    for make in (lambda: hhmeasure.SampledCurve.from_symbol(sym, 1.0),
                 lambda: hhmeasure.multiplicity_grid(sym, 1.0, grid),
                 lambda: hhmeasure.hh_density(sym, 1.0, grid)):
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, a, b}) == 2 and hash(a) == hash(a)


def test_curve_and_raster_fields():
    assert [f.name for f in fields(hhmeasure.SampledCurve)] == ["sym", "r", "points"]
    assert [f.name for f in fields(hhmeasure.MultiplicityGrid)] == [
        "grid", "values", "invalid", "masked_cover", "curve"]
