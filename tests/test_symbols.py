import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from hhmeasure import FourierSymbol, load_symbol_spec
from hhmeasure.degree import preimage_multiplicity
from hhmeasure.errors import (DomainError, NonFiniteError, RangeError, SampleCountError,
                              SchemaError, TailError)
from hhmeasure.symbols import _horner

from conftest import random_symbol


class TestFromSamples:
    def test_pure_harmonic(self):
        t = np.arange(8) * 2 * np.pi / 8
        sym = FourierSymbol.from_samples(np.exp(1j * t))
        assert sym.coeffs == {1: pytest.approx(1.0)}
        assert sym.band == 1

    def test_constant(self):
        sym = FourierSymbol.from_samples([3.0] * 8)
        assert sym.coeffs == {0: pytest.approx(3.0)}
        assert sym.band == 0

    def test_cosine_euler(self):
        t = np.arange(8) * 2 * np.pi / 8
        sym = FourierSymbol.from_samples(2 * np.cos(t))
        assert sym.coeff(1) == pytest.approx(1.0)
        assert sym.coeff(-1) == pytest.approx(1.0)
        assert sym.real_valued

    def test_roundtrip(self, rng):
        values = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        sym = FourierSymbol.from_samples(values)
        t = np.arange(16) * 2 * np.pi / 16
        back = sym.harmonic_eval(np.exp(1j * t))
        assert np.max(np.abs(back - values)) < 1e-12

    @pytest.mark.parametrize("count", [0, 3, 6, 12])
    def test_bad_counts(self, count):
        with pytest.raises(SampleCountError):
            FourierSymbol.from_samples([1.0] * count)


class TestPoissonSmooth:
    def test_harmonic(self):
        sym = FourierSymbol({1: 1.0}).poisson_smooth(0.5)
        assert sym.coeff(1) == pytest.approx(0.5)

    def test_constant_unchanged(self):
        sym = FourierSymbol({0: 2.5})
        assert sym.poisson_smooth(0.7).coeff(0) == pytest.approx(2.5)

    def test_rpow_rule(self):
        sym = FourierSymbol({2: 1.0, -1: 1.0}).poisson_smooth(0.3)
        assert sym.coeff(2) == pytest.approx(0.09)
        assert sym.coeff(-1) == pytest.approx(0.3)

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.2, 1.5])
    def test_range(self, r):
        with pytest.raises(RangeError):
            FourierSymbol({1: 1.0}).poisson_smooth(r)

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_composition(self, r, s):
        sym = FourierSymbol({-2: 0.5j, 1: 1.0, 3: 0.25})
        twice = sym.poisson_smooth(r).poisson_smooth(s)
        once = sym.poisson_smooth(r * s)
        for k in twice.coeffs:
            assert twice.coeff(k) == pytest.approx(once.coeff(k), abs=1e-14)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bit pattern, signed zeros and NaN payloads included."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


class TestHorner:
    """`_horner` repeats npoly.polyval's operations in place, so every bit agrees."""

    SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-300, 1e300])

    def inputs(self, rng):
        yield rng.standard_normal(257)
        yield 0.97 * np.exp(2j * np.pi * rng.random(257))
        yield self.SPECIAL
        yield (self.SPECIAL[:, None] + 1j * self.SPECIAL).ravel()
        yield from (0.3, -0.0, 2, 0.6 - 0.8j, complex(-0.0, 0.0), np.float64(-0.0))

    @pytest.mark.parametrize("degree", range(65))
    @pytest.mark.parametrize("kind", [float, complex])
    def test_matches_polyval(self, degree, kind):
        rng = np.random.default_rng(degree)
        c = rng.standard_normal(degree + 1)
        if kind is complex:
            c = c + 1j * rng.standard_normal(degree + 1)
        c[rng.random(degree + 1) < 0.2] = 0.0
        c[rng.random(degree + 1) < 0.2] *= -0.0  # signed zero coefficients
        for z in self.inputs(rng):
            with np.errstate(all="ignore"):
                expected = npoly.polyval(z, c)
                got = _horner(z, c)
            assert same_bits(got, expected), (degree, z)


class TestHarmonicEval:
    def test_z_symbol(self):
        assert FourierSymbol({1: 1.0}).harmonic_eval(0.3) == pytest.approx(0.3)

    def test_cosine(self):
        assert FourierSymbol({1: 1.0, -1: 1.0}).harmonic_eval(0.3) == pytest.approx(0.6)

    def test_mixed_series(self):
        # direct series: z + 0.5 conj(z)^2 at z = 0.4i
        sym = FourierSymbol({1: 1.0, -2: 0.5})
        assert sym.harmonic_eval(0.4j) == pytest.approx(-0.08 + 0.4j)

    def test_outside_disk(self):
        with pytest.raises(DomainError):
            FourierSymbol({1: 1.0}).harmonic_eval(1.5)

    def test_truncation_boundary_rejected(self):
        sym = FourierSymbol({1: 1.0}, tail_bound=0.1)
        with pytest.raises(TailError):
            sym.harmonic_eval(1.0)
        assert sym.harmonic_eval(0.99) == pytest.approx(0.99)

    @given(st.floats(0.05, 0.95), st.floats(0.0, 6.2))
    @settings(max_examples=40, deadline=None)
    def test_poisson_consistency(self, r, theta):
        sym = FourierSymbol({-2: 0.3 - 0.1j, -1: 0.2j, 0: 1.0, 1: 0.7, 3: 0.4j})
        lhs = sym.harmonic_eval(r * np.exp(1j * theta))
        rhs = sym.poisson_smooth(r).harmonic_eval(np.exp(1j * theta))
        assert abs(lhs - rhs) < 1e-12

    def test_real_symbol_real_values(self, rng):
        sym = random_symbol(rng, 3, real=True)
        pts = 0.9 * np.exp(1j * rng.uniform(0, 2 * np.pi, 25)) * rng.uniform(0, 1, 25)
        vals = sym.harmonic_eval(pts)
        assert np.max(np.abs(vals.imag)) < 1e-12


class TestAnalyticSplit:
    def test_analytic(self):
        f, g = FourierSymbol({1: 1.0}).analytic_split()
        assert f.coeffs == {1: 1.0} and g.coeffs == {}

    def test_cosine(self):
        f, g = FourierSymbol({1: 1.0, -1: 1.0}).analytic_split()
        assert f.coeff(1) == pytest.approx(1.0)
        assert g.coeff(1) == pytest.approx(1.0)

    def test_constant_in_f(self):
        f, g = FourierSymbol({0: 5.0}).analytic_split()
        assert f.coeff(0) == pytest.approx(5.0)
        assert g.coeffs == {}

    def test_reconstruction(self, rng):
        sym = random_symbol(rng, 4)
        f, g = sym.analytic_split()
        for k in sym.coeffs:
            expect = f.coeff(k) + np.conj(g.coeff(-k))
            assert sym.coeff(k) == pytest.approx(expect, abs=0)


class TestWirtinger:
    def test_z(self):
        assert FourierSymbol({1: 1.0}).wirtinger(0.2 + 0.1j) == (1.0, 0.0)

    def test_zbar(self):
        assert FourierSymbol({-1: 1.0}).wirtinger(0.2) == (0.0, 1.0)

    def test_termwise(self):
        dz, dzbar = FourierSymbol({2: 1.0, -1: 0.5}).wirtinger(0.2)
        assert dz == pytest.approx(0.4)
        assert dzbar == pytest.approx(0.5)

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            FourierSymbol({1: 1.0}).wirtinger(1.0)

    @pytest.mark.parametrize("coeffs,expected", [
        ({1: 1.0}, 1.0),
        ({-1: 1.0}, -1.0),
        ({1: 1.0, -1: 0.5}, 0.75),
    ])
    def test_jacobian(self, coeffs, expected):
        sym = FourierSymbol(coeffs)
        for z in (0.0, 0.3j, -0.5 + 0.2j):
            assert sym.jacobian(z) == pytest.approx(expected)


class TestParts:
    def test_real_imag_reconstruction(self, rng):
        sym = random_symbol(rng, 3)
        re, im = sym.real_part(), sym.imag_part()
        assert re.real_valued and im.real_valued
        for k in sym.coeffs:
            assert sym.coeff(k) == pytest.approx(re.coeff(k) + 1j * im.coeff(k))

    def test_real_valued_flag_verified(self):
        with pytest.raises(RangeError):
            FourierSymbol({1: 1.0}, real_valued=True)
        FourierSymbol({1: 0.5, -1: 0.5}, real_valued=True)


class TestSymbolSpecFiles:
    def test_finite_band(self, tmp_path):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({
            "type": "finite_band",
            "coeffs": [{"k": 1, "re": 1.0, "im": 0.0}, {"k": -2, "re": 0.0, "im": 0.5}],
        }))
        sym = load_symbol_spec(path)
        assert sym.coeff(1) == 1.0 and sym.coeff(-2) == 0.5j

    def test_samples(self):
        sym = load_symbol_spec({"type": "samples",
                                "values": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]})
        assert sym.coeff(1) == pytest.approx(1.0)

    @pytest.mark.parametrize("doc", [
        [],
        {"type": "mystery"},
        {"type": "finite_band", "coeffs": [{"k": 1.5, "re": 0, "im": 0}]},
        {"type": "finite_band", "coeffs": [{"k": 1, "re": 0}]},
        {"type": "finite_band", "coeffs": [{"k": 1, "re": 0, "im": 0, "extra": 1}]},
        {"type": "finite_band", "coeffs": [], "surprise": True},
        {"type": "samples", "values": [[0, 0], [1]]},
        {"type": "samples", "values": "nope"},
        {"type": "finite_band", "coeffs": [{"k": 1, "re": float("nan"), "im": 0.0}]},
        {"type": "finite_band", "coeffs": [{"k": 1, "re": 1.0, "im": float("inf")}]},
        {"type": "finite_band", "coeffs": [{"k": 2, "re": -float("inf"), "im": 0.0}]},
        {"type": "finite_band", "coeffs": [{"k": 1, "re": 10 ** 400, "im": 0}]},
        {"type": "samples", "values": [[1.0, 0.0], [float("nan"), 1.0], [-1.0, 0.0],
                                       [0.0, -1.0]]},
        {"type": "finite_band", "coeffs": [{"k": 2 ** 17 + 1, "re": 1.0, "im": 0.0}]},
        {"type": "finite_band", "coeffs": [{"k": -10 ** 15, "re": 1.0, "im": 0.0}]},
    ])
    def test_rejects_malformed(self, doc):
        with pytest.raises(SchemaError):
            load_symbol_spec(doc)

    def test_largest_frequency_accepted(self):
        # loading builds no array, so the largest admitted |k| costs nothing here
        sym = load_symbol_spec({"type": "finite_band",
                                "coeffs": [{"k": -2 ** 17, "re": 1.0, "im": 0.0}]})
        assert sym.band == 2 ** 17

    def test_more_samples_than_the_band_bound_rejected(self):
        # 2^18 + 1 samples would carry frequencies above 2^17
        with pytest.raises(SchemaError, match="at most 262144 samples"):
            load_symbol_spec({"type": "samples", "values": [[1.0, 0.0]] * (2 ** 18 + 1)})

    @pytest.mark.filterwarnings("error")
    def test_samples_whose_transform_overflows(self):
        with pytest.raises(NonFiniteError):
            load_symbol_spec({"type": "samples",
                              "values": [[1.7e308, 0.0], [1.7e308, 0.0], [0.0, 0.0], [0.0, 0.0]]})

    @pytest.mark.filterwarnings("error")
    def test_derivatives_near_the_float_limit(self):
        sym = FourierSymbol({3: 1e308, -2: 1e308})
        fa, fd, ga, gd = sym._split
        assert np.isinf(fd[2]) and np.isinf(gd[1])
        assert np.isfinite(sym.harmonic_eval(0.5))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coeffs, call", [
        ({1: 1.5e308, 2: 1.5e308}, lambda sym: sym.harmonic_eval(0.99)),
        ({1: 1.5e308, 2: 1.5e308}, lambda sym: sym.wirtinger(0.5)),
        ({1: 1.5e308, 2: 1.5e308}, lambda sym: preimage_multiplicity(sym, 1.0, 0.3)),
        # finite derivatives, but the coefficient sum of the bound overflows
        ({1: 1e308, -1: 1e308}, lambda sym: preimage_multiplicity(sym, 1.0, 0.3)),
        ({1: 1e200}, lambda sym: sym.jacobian(0.5)),
    ], ids=["harmonic_eval", "wirtinger", "preimage_multiplicity", "preimage_bound",
            "jacobian"])
    def test_overflow_raises_without_warning(self, coeffs, call):
        with pytest.raises(NonFiniteError):
            call(FourierSymbol(coeffs))

    def test_one_norm_overflow_is_inf(self):
        assert FourierSymbol({1: 1.7e308 + 1.7e308j}).one_norm() == np.inf
        assert FourierSymbol({1: 3 + 4j, -2: 1.0}).one_norm() == 6.0

    def test_sample_count_error(self):
        with pytest.raises(SampleCountError):
            load_symbol_spec({"type": "samples", "values": [[0.0, 0.0]] * 6})
