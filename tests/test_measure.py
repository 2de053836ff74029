import numpy as np
import pytest

from hhmeasure import FourierSymbol
from hhmeasure import measure
from hhmeasure.degree import GridSpec, default_grid
from hhmeasure.errors import RangeError, WindingUndefined
from hhmeasure.measure import (brown_bound_check, hh_density, index_check,
                               smoothing_limit_probe, total_variation,
                               trace_formula_check)
from hhmeasure.operators import schatten_norm, self_commutator
from hhmeasure.poly import BivariatePolynomial as P

from conftest import random_symbol

SHIFT = FourierSymbol({1: 1.0})
SHIFT_GRID = GridSpec(-1.5, 1.5, -1.5, 1.5, 300, 300)


class TestHHDensity:
    def test_shift_density_value(self):
        d = hh_density(SHIFT, 1.0, SHIFT_GRID)
        inside = d.value_at(0.2 + 0.1j)
        assert inside == pytest.approx(1 / (2j * np.pi))
        assert d.value_at(1.4) == 0

    def test_constant_symbol_zero(self):
        d = hh_density(FourierSymbol({0: 2.0}), 0.9, GridSpec(-3, 3, -3, 3, 50, 50))
        assert not d.values.any()

    def test_conjugate_orientation(self):
        d = hh_density(FourierSymbol({-1: 1.0}), 1.0, SHIFT_GRID)
        assert d.value_at(0.0) == pytest.approx(-1 / (2j * np.pi))

    def test_values_are_imaginary_rationals(self, rng):
        sym = random_symbol(rng, 2)
        d = hh_density(sym, 0.9, default_grid(sym, 50))
        valid = ~d.grid.invalid
        recon = d.values[valid] * (2j * np.pi)
        assert np.max(np.abs(recon - np.round(recon.real))) < 1e-12


class TestDensityPair:
    GRID = GridSpec(-1.5, 1.5, -1.5, 1.5, 150, 150)

    def test_build_halves_eps_on_the_fine_grid(self):
        d = hh_density(SHIFT, 1.0, self.GRID)
        assert d.grid.grid == self.GRID and d.grid.eps == 2 * self.GRID.cell_diag
        assert d.fine.grid == self.GRID.refined() and d.fine.eps == d.grid.eps / 2
        assert hh_density(SHIFT, 1.0, self.GRID, refine=False).fine is None

    def test_richardson_pair(self):
        d = hh_density(SHIFT, 1.0, self.GRID)
        tv, coarse, fine = d.tv()
        assert tv == 2 * fine - coarse == total_variation(d)
        moment, coarse, fine = d.moment(P.constant(1.0))
        assert moment == 2 * fine - coarse
        assert moment == pytest.approx(-0.5j, abs=2e-3)   # area pi / (2 pi i)

    def test_coarse_only_reports_coarse(self):
        d = hh_density(SHIFT, 1.0, self.GRID, refine=False)
        tv, coarse, fine = d.tv()
        assert tv == coarse == fine
        assert len(set(d.moment(P.x() * P.x()))) == 1

    def test_moment_takes_coarse_weight_values(self):
        d = hh_density(SHIFT, 1.0, self.GRID)
        w = P.monomial(2, 1) + P.y()
        assert d.moment(w, w(*self.GRID.mesh())) == d.moment(w)

    def test_values_computed_once(self):
        d = hh_density(SHIFT, 1.0, self.GRID, refine=False)
        assert d.values is d.values
        assert np.array_equal(d.values, d.grid.values / (2j * np.pi))


class TestTraceFormula:
    def test_shift_xy(self):
        rep = trace_formula_check(SHIFT, P.x(), P.y(), SHIFT_GRID, 1.0)
        assert rep.lhs == pytest.approx(-0.5j, abs=1e-14)
        assert abs(rep.rhs - (-0.5j)) < 1e-3
        assert rep.abs_err == pytest.approx(abs(rep.lhs - rep.rhs))

    def test_p_equals_q(self):
        p = P.x() * P.y()
        rep = trace_formula_check(SHIFT, p, p, SHIFT_GRID, 1.0)
        assert rep.lhs == 0 and rep.rhs == 0

    def test_band2_suite(self):
        sym = FourierSymbol({1: 1.0, 2: 0.4, -1: 0.2})
        for p, q in [(P.x(), P.y()), (P.monomial(2, 0), P.y()), (P.x(), P.monomial(0, 2))]:
            rep = trace_formula_check(sym, p, q)
            assert rep.abs_err <= max(5e-3, 3 * rep.quad_err_estimate)

    def test_residual_over_random_suite(self, rng):
        # |lhs - rhs| <= max(5e-3, 3 * estimate) for band <= 3, deg p + deg q <= 3
        pairs = [(P.x(), P.y()), (P.monomial(2, 0), P.y()), (P.x(), P.monomial(1, 1))]
        for _ in range(3):
            sym = random_symbol(rng, int(rng.integers(1, 4)))
            p, q = pairs[int(rng.integers(0, len(pairs)))]
            rep = trace_formula_check(sym, p, q, r=0.95)
            assert rep.abs_err <= max(5e-3, 3 * rep.quad_err_estimate)

    def test_weight_evaluated_once_per_grid(self, monkeypatch):
        shapes = []
        bracket = measure.jacobian_bracket

        def counting_bracket(p, q):
            weight = bracket(p, q)

            def evaluate(x, y):
                shapes.append(np.shape(x))
                return weight(x, y)
            return evaluate

        monkeypatch.setattr(measure, "jacobian_bracket", counting_bracket)
        trace_formula_check(SHIFT, P.x(), P.y(), SHIFT_GRID, 1.0)
        assert shapes == [(300, 300), (600, 600)]

    def test_box_containment_precondition(self):
        small = GridSpec(-0.5, 0.5, -0.5, 0.5, 20, 20)
        with pytest.raises(RangeError):
            trace_formula_check(SHIFT, P.x(), P.y(), small, 1.0)

    def test_report_dict_fields(self):
        rep = trace_formula_check(SHIFT, P.x(), P.y(), SHIFT_GRID, 1.0)
        doc = rep.to_dict()
        assert set(doc) == {"lhs", "rhs", "abs_err", "quad_err", "N", "grid",
                            "masked_area_fraction", "tail_bound"}


class TestTotalVariation:
    def test_shift(self):
        d = hh_density(SHIFT, 1.0, SHIFT_GRID)
        assert total_variation(d) == pytest.approx(0.5, abs=2e-3)

    def test_zero_density(self):
        d = hh_density(FourierSymbol({0: 1.0}), 0.9, GridSpec(-2, 2, -2, 2, 40, 40))
        assert total_variation(d) == 0.0

    def test_double_winding(self):
        sym = FourierSymbol({2: 1.0})
        d = hh_density(sym, 1.0, SHIFT_GRID)
        assert total_variation(d) == pytest.approx(1.0, abs=2e-3)

    @pytest.mark.parametrize("shape", [(1, 5), (7, 3), (301, 7), (3, 50)])
    def test_blocked_abs_sum_is_exact(self, monkeypatch, shape):
        # 20 cells per block: several blocks, a ragged last one, and rows wider than a block
        monkeypatch.setattr(measure, "_ABS_SUM_CELLS", 20)
        values = np.random.default_rng(5).integers(-3, 4, size=shape)
        assert measure._abs_sum(values) == float(np.sum(np.abs(values)))


class TestBrownBound:
    def test_shift_equality_case(self):
        tv, bound, ok = brown_bound_check(SHIFT, 1.0, SHIFT_GRID)
        assert tv == pytest.approx(0.5, abs=2e-3)
        assert bound == pytest.approx(0.5)
        assert ok

    def test_real_symbol(self, rng):
        sym = random_symbol(rng, 2, real=True)
        tv, bound, ok = brown_bound_check(sym, 0.9)
        assert tv == 0 and bound == pytest.approx(0, abs=1e-14) and ok

    def test_ellipse(self):
        sym = FourierSymbol({1: 1.0, -1: 0.5})
        tv, bound, ok = brown_bound_check(sym, 1.0, GridSpec(-2, 2, -2, 2, 300, 300))
        assert tv == pytest.approx(0.375, abs=2e-3)
        assert bound == pytest.approx(0.375)
        assert ok

    def test_random_suite(self, rng):
        for _ in range(4):
            sym = random_symbol(rng, int(rng.integers(1, 4)))
            _, _, ok = brown_bound_check(sym, 0.9)
            assert ok


class TestHyponormalEquality:
    @pytest.mark.parametrize("coeffs", [{1: 1.0}, {1: 1.0, 2: 0.3}, {2: 1.0}])
    def test_analytic_symbols(self, coeffs):
        sym = FourierSymbol(coeffs)
        d = hh_density(sym, 1.0, default_grid(sym, 300))
        tv = total_variation(d)
        tn = schatten_norm(self_commutator(sym, sym.band + 1), 1)
        assert 2 * tv == pytest.approx(tn, abs=5e-3)
        # i * density >= 0 cellwise: every valid multiplicity is nonnegative
        assert np.all(d.grid.values >= 0)

    def test_trace_equals_weighted_coefficient_sum(self, rng):
        for _ in range(5):
            band = int(rng.integers(1, 5))
            coeffs = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for k in range(1, band + 1)}
            sym = FourierSymbol(coeffs)
            c = self_commutator(sym, band + 2)
            expected = sum(k * abs(c_k) ** 2 for k, c_k in coeffs.items())
            assert c.trace() == pytest.approx(expected, abs=1e-12)
            assert schatten_norm(c, 1) == pytest.approx(expected, abs=1e-12)


class TestIndexCheck:
    def test_shift_inside(self):
        wind, val, ok = index_check(SHIFT, 0.0, 1.0, SHIFT_GRID)
        assert wind == 1 and ok
        assert val == pytest.approx(1 / (2j * np.pi))

    def test_shift_outside(self):
        wind, val, ok = index_check(SHIFT, 1.4 + 0.2j, 1.0, SHIFT_GRID)
        assert wind == 0 and val == 0 and ok

    def test_double_winding(self):
        wind, val, ok = index_check(FourierSymbol({2: 1.0}), 0.3, 1.0, SHIFT_GRID)
        assert wind == 2 and ok
        assert val == pytest.approx(2 / (2j * np.pi))

    def test_masked_point_raises(self):
        with pytest.raises(WindingUndefined):
            index_check(SHIFT, 1.0 + 0.0j, 1.0, SHIFT_GRID)


class TestSmoothingLimitProbe:
    def test_shift_moment_convergence(self):
        rep = smoothing_limit_probe(SHIFT, P.x(), P.y(), [0.9, 0.99],
                                 GridSpec(-1.5, 1.5, -1.5, 1.5, 200, 200))
        m = rep.moments
        assert m[0] == pytest.approx(-0.5j * 0.81, abs=5e-4)
        assert m[1] == pytest.approx(-0.5j * 0.9801, abs=5e-4)
        assert rep.lhs == pytest.approx(-0.5j, abs=1e-14)

    def test_p_equals_q_zero(self):
        rep = smoothing_limit_probe(SHIFT, P.x(), P.x(), [0.5, 0.9],
                                 GridSpec(-1.5, 1.5, -1.5, 1.5, 150, 150))
        assert not rep.moments.any()
        assert rep.lhs == 0

    def test_truncated_symbol_cauchy(self):
        sym = FourierSymbol({k: k ** -3.0 for k in range(1, 21)}, tail_bound=2e-3)
        rep = smoothing_limit_probe(sym, P.x(), P.y(), [0.9, 0.99, 0.999],
                                 default_grid(sym, 200))
        diffs = rep.successive_diffs
        assert diffs[1] < diffs[0]
        assert rep.tail_bound == 2e-3
        doc = rep.to_dict()
        assert doc["tail_bound"] == 2e-3
        assert "diff_prev" in doc["rows"][1]
