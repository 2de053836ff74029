import dataclasses

import numpy as np
import pytest

from hhmeasure import FourierSymbol
from hhmeasure import degree, measure
from hhmeasure.degree import _START_POINTS, GridSpec, SampledCurve, default_grid
from hhmeasure.errors import NonFiniteError, RangeError, WindingUndefined
from hhmeasure.measure import (brown_bound_check, hh_density, index_check,
                               smoothing_limit_probe, total_variation,
                               trace_formula_check)
from hhmeasure.operators import commutator_trace, schatten_norm, self_commutator
from hhmeasure.poly import BivariatePolynomial as P

from conftest import dense_coverage, random_symbol

SHIFT = FourierSymbol({1: 1.0})
SHIFT_GRID = GridSpec(-1.5, 1.5, -1.5, 1.5, 300, 300)


class TestHHDensity:
    def test_shift_density_value(self):
        d = hh_density(SHIFT, 1.0, SHIFT_GRID)
        assert d.grid.value_at(0.2 + 0.1j) == 1
        assert d.values[d.grid.grid.locate(0.2 + 0.1j)] == pytest.approx(1 / (2j * np.pi))
        assert d.grid.value_at(1.4) == 0

    def test_constant_symbol_zero(self):
        d = hh_density(FourierSymbol({0: 2.0}), 0.9, GridSpec(-3, 3, -3, 3, 50, 50))
        assert not d.values.any()

    def test_conjugate_orientation(self):
        d = hh_density(FourierSymbol({-1: 1.0}), 1.0, SHIFT_GRID)
        assert d.grid.value_at(0.0) == -1
        assert d.values[d.grid.grid.locate(0.0)] == pytest.approx(-1 / (2j * np.pi))

    @pytest.mark.parametrize("refine", [True, False])
    def test_one_raster_whatever_refine(self, monkeypatch, refine):
        grids = []
        raster = measure.multiplicity_grid

        def counting(sym, r, grid):
            grids.append(grid)
            return raster(sym, r, grid)

        monkeypatch.setattr(measure, "multiplicity_grid", counting)
        d = hh_density(SHIFT, 1.0, SHIFT_GRID, refine=refine)
        assert grids == [SHIFT_GRID] and d.grid.grid == SHIFT_GRID
        assert [f.name for f in dataclasses.fields(d)] == ["grid"]

    def test_values_are_imaginary_rationals(self, rng):
        sym = random_symbol(rng, 2)
        d = hh_density(sym, 0.9, default_grid(sym, 50))
        valid = ~d.grid.invalid
        recon = d.values[valid] * (2j * np.pi)
        assert np.max(np.abs(recon - np.round(recon.real))) < 1e-12


class TestDensityPair:
    GRID = GridSpec(-1.5, 1.5, -1.5, 1.5, 150, 150)

    def test_values_computed_once(self):
        d = hh_density(SHIFT, 1.0, self.GRID)
        assert d.values is d.values
        assert np.array_equal(d.values, d.grid.values / (2j * np.pi))

    @pytest.mark.parametrize("coeffs, r", [({1: 1.0}, 1.0), ({1: 1.0, 2: 0.4, -1: 0.2}, 0.9),
                                           ({1: -0.5j, -1: 0.5j, 2: 0.25, -2: -0.25}, 1.0)])
    def test_cell_windings_from_the_stored_raster(self, coeffs, r):
        mg = hh_density(FourierSymbol(coeffs), r, self.GRID).grid
        cells = measure._cell_windings(mg)
        fresh = np.where(mg.invalid, dense_coverage(mg.curve.points, mg.grid), mg.values)
        assert cells.dtype == np.float64 and mg.invalid.any()
        assert np.array_equal(cells.view(np.uint64), fresh.view(np.uint64))

    def test_one_coverage_pass_per_density(self, monkeypatch):
        grids = []
        coverage = degree._coverage

        def counting(pts, grid):
            grids.append(grid)
            return coverage(pts, grid)

        monkeypatch.setattr(degree, "_coverage", counting)
        d = hh_density(FourierSymbol({1: 1.0, 2: 0.4, -1: 0.2}), 1.0, self.GRID)
        d.moment(P.x(), P.y())
        d.moment(P.monomial(2, 1), P.y())
        total_variation(d)
        assert grids == [self.GRID]


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
        assert shapes == [(300, 300)]

    def test_box_containment_precondition(self):
        small = GridSpec(-0.5, 0.5, -0.5, 0.5, 20, 20)
        with pytest.raises(RangeError):
            trace_formula_check(SHIFT, P.x(), P.y(), small, 1.0)

    def test_report_dict_fields(self):
        rep = trace_formula_check(SHIFT, P.x(), P.y(), SHIFT_GRID, 1.0)
        doc = rep.to_dict()
        assert set(doc) == {"lhs", "rhs", "abs_err", "quad_err", "N", "grid",
                            "masked_area_fraction", "tail_bound"}


    @pytest.mark.filterwarnings("error")
    def test_overflowing_weight_raises(self):
        density = hh_density(FourierSymbol({2: 1.0}), 0.9, GridSpec(-2, 2, -2, 2, 8, 8))
        with pytest.raises(NonFiniteError):
            density.moment(P.x() * 1e308, P.y())   # J = 1e308 on 64 cells

    def test_moment_degree_guard(self):
        # the Gauss-Legendre rule for degree 2048 already solves a 1025 x 1025 eigenproblem
        density = hh_density(SHIFT, 1.0, GridSpec(-2, 2, -2, 2, 8, 8))
        with pytest.raises(RangeError, match="2049 exceeds the 2048"):
            density.moment(P.monomial(2048, 0), P.y())


class TestOneGridMoment:
    BAND2 = FourierSymbol({1: 1.0, 2: 0.4, -1: 0.2})

    def test_one_raster_per_moment(self, monkeypatch):
        grids = []
        raster = measure.multiplicity_grid

        def counting(sym, r, grid):
            grids.append((r, grid))
            return raster(sym, r, grid)

        monkeypatch.setattr(measure, "multiplicity_grid", counting)
        trace_formula_check(SHIFT, P.x(), P.y(), SHIFT_GRID, 1.0)
        assert grids == [(1.0, SHIFT_GRID)]
        grids.clear()
        rep = smoothing_limit_probe(SHIFT, P.x(), P.y(), [0.5, 0.9, 0.99], SHIFT_GRID)
        assert grids == [(r, SHIFT_GRID) for r in (0.5, 0.9, 0.99)]
        assert [row["quad_err"] for row in rep.to_dict()["rows"]] == list(rep.quad_errs)

    @pytest.mark.parametrize("sym, p, q", [
        (SHIFT, P.x(), P.y()), (BAND2, P.x(), P.y()), (BAND2, P.monomial(2, 0), P.y())])
    def test_default_grid_accuracy(self, sym, p, q):
        rep = trace_formula_check(sym, p, q)
        assert rep.grid.nx == rep.grid.ny == 400
        assert rep.abs_err <= 1e-6
        assert rep.quad_err_estimate <= 1e-6

    def test_converges_at_h_squared(self):
        p, q = P.monomial(2, 1), P.x() + P.monomial(0, 2)
        exact = commutator_trace(self.BAND2, p, q)
        errs = []
        for n in (100, 200, 400):
            value, quad_err = hh_density(self.BAND2, 1.0,
                                         default_grid(self.BAND2, n)).moment(p, q)
            assert abs(value - exact) == pytest.approx(quad_err, rel=0.05)
            errs.append(quad_err)
        assert errs[0] / errs[1] >= 3 and errs[1] / errs[2] >= 3


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

    # closed forms: sum k |c_k|^2 / 2 for analytic symbols, the area pi (1 - 0.5^2)
    # over 2 pi for the ellipse, and the area 4/3 of the lemniscate of Gerono over
    # 2 pi for the figure-eight, whose +1 and -1 lobes meet at the origin
    CLOSED_FORMS = {
        "shift": ({1: 1.0}, 0.5),
        "band2": ({1: 1.0, 2: 0.3}, 0.59),
        "square": ({2: 1.0}, 1.0),
        "ellipse": ({1: 1.0, -1: 0.5}, 0.375),
        "figure-eight": ({1: -0.5j, -1: 0.5j, 2: 0.25, -2: -0.25}, 2 / (3 * np.pi)),
    }

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_closed_form_at_400(self, name):
        coeffs, exact = self.CLOSED_FORMS[name]
        sym = FourierSymbol(coeffs)
        assert abs(total_variation(hh_density(sym, 1.0, default_grid(sym, 400))) - exact) <= 1e-6

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coeffs", [{}, {1: 1.0}])
    def test_infinite_cell_area_raises(self, coeffs):
        # finite cell sides whose product overflows: 0 * inf or a sum times inf
        d = hh_density(FourierSymbol(coeffs), 1.0, GridSpec(0.0, 1e308, -1.0, 3.0, 1, 1))
        with pytest.raises(NonFiniteError, match="area inf"):
            total_variation(d)
        with pytest.raises(NonFiniteError, match="area inf"):
            d.moment(P.x(), P.y())

    @pytest.mark.parametrize("name", ["shift", "figure-eight"])
    def test_converges_at_h_squared(self, name):
        coeffs, exact = self.CLOSED_FORMS[name]
        sym = FourierSymbol(coeffs)
        errs = [abs(total_variation(hh_density(sym, 1.0, default_grid(sym, n))) - exact)
                for n in (100, 200, 400)]
        assert errs[0] / errs[1] >= 3 and errs[1] / errs[2] >= 3


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
        wind, val, ok = index_check(SHIFT, 0.0, 1.0, hh_density(SHIFT, 1.0, SHIFT_GRID))
        assert wind == 1 and ok
        assert val == pytest.approx(1 / (2j * np.pi))

    def test_shift_outside(self):
        wind, val, ok = index_check(SHIFT, 1.4 + 0.2j, 1.0, hh_density(SHIFT, 1.0, SHIFT_GRID))
        assert wind == 0 and val == 0 and ok

    def test_double_winding(self):
        sym = FourierSymbol({2: 1.0})
        wind, val, ok = index_check(sym, 0.3, 1.0, hh_density(sym, 1.0, SHIFT_GRID))
        assert wind == 2 and ok
        assert val == pytest.approx(2 / (2j * np.pi))

    def test_masked_point_raises(self):
        with pytest.raises(WindingUndefined):
            index_check(SHIFT, 1.0 + 0.0j, 1.0, hh_density(SHIFT, 1.0, SHIFT_GRID))

    def test_start_curve_read_from_the_density(self, rng, monkeypatch):
        sym = random_symbol(rng, 3)
        grid = default_grid(sym, 400)
        fresh = SampledCurve.from_symbol(sym, 0.9)
        calls = []
        from_symbol = SampledCurve.from_symbol

        def counted(*args, **kwargs):
            calls.append(args)
            return from_symbol(*args, **kwargs)

        monkeypatch.setattr(SampledCurve, "from_symbol", counted)
        density = hh_density(sym, 0.9, grid)
        stride = density.grid.curve_points // _START_POINTS
        assert stride > 1
        start = np.ascontiguousarray(density.grid.curve.points[::stride])
        assert np.array_equal(start.view(np.int64),
                              fresh.points.view(np.int64))
        lams = [complex(x, y) for x in grid.centers_x()[::50] for y in grid.centers_y()[::50]
                if density.grid.value_at(complex(x, y)) is not None]
        assert len(lams) > 10
        assert all(index_check(sym, lam, 0.9, density=density)[2] for lam in lams)
        assert len(calls) == 1

    def test_density_of_another_curve_rejected(self):
        square = FourierSymbol({2: 1.0})
        grid = GridSpec(-2, 2, -2, 2, 200, 200)
        for sym, r in [(SHIFT, 0.5), (square, 1.0)]:
            with pytest.raises(RangeError, match="curve of this symbol and radius"):
                index_check(square, 0.1, 0.5, density=hh_density(sym, r, grid))
        wind, _, ok = index_check(square, 0.1, 0.5, density=hh_density(square, 0.5, grid))
        assert wind == 2 and ok


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
