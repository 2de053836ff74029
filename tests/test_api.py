from dataclasses import fields

import hhmeasure

PUBLIC = [
    "BesovReport", "BivariatePolynomial", "FourierSymbol", "GridSpec",
    "MeasureDensity", "MultiplicityGrid", "SampledCurve", "TraceFormulaReport",
    "TruncatedMatrix", "WeightedShiftSpec", "__version__",
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


def test_curve_and_raster_fields():
    assert [f.name for f in fields(hhmeasure.SampledCurve)] == ["sym", "r", "points"]
    assert [f.name for f in fields(hhmeasure.MultiplicityGrid)] == [
        "grid", "values", "invalid", "curve"]
