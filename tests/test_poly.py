import pytest

from hhmeasure.poly import BivariatePolynomial as P
from hhmeasure.poly import jacobian_bracket, parse_polynomial


def test_bracket_xy():
    assert jacobian_bracket(P.x(), P.y()).coeffs == {(0, 0): 1.0}


def test_bracket_antisymmetry():
    p = P.monomial(2, 1, 0.5) + P.x()
    assert jacobian_bracket(p, p).coeffs == {}


def test_bracket_product_rule():
    out = jacobian_bracket(P.monomial(2, 0), P.y())
    assert out.coeffs == {(1, 0): 2.0}


def test_degree_and_partials():
    p = P.monomial(2, 1, 3.0) - P.y()
    assert p.degree == 3
    assert p.partial_x().coeffs == {(1, 1): 6.0}
    assert p.partial_y().coeffs == {(2, 0): 3.0, (0, 0): -1.0}


def test_evaluate_arrays():
    import numpy as np
    p = P.x() * P.y() + 2.0
    x = np.array([0.0, 1.0, 2.0])
    assert np.allclose(p(x, x), [2.0, 3.0, 6.0])
    assert p(3.0, 4.0) == pytest.approx(14.0)


@pytest.mark.parametrize("text,coeffs", [
    ("x", {(1, 0): 1.0}),
    ("poly:x^2*y+3*x", {(2, 1): 1.0, (1, 0): 3.0}),
    ("y^2", {(0, 2): 1.0}),
    ("2", {(0, 0): 2.0}),
    ("0.5*x*y - y", {(1, 1): 0.5, (0, 1): -1.0}),
    ("-x + x", {}),
    ("1e-3*x", {(1, 0): 1e-3}),
    ("x-1e-3", {(1, 0): 1.0, (0, 0): -1e-3}),
    ("2.5E+2*y - 1e2", {(0, 1): 250.0, (0, 0): -100.0}),
])
def test_parse(text, coeffs):
    assert parse_polynomial(text).coeffs == coeffs


@pytest.mark.parametrize("text", ["", "x**2", "x^", "q*y", "1..2*x", "x+-y", "e-3*x",
                                  "nan*x", "inf", "x-1e999"])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_polynomial(text)
