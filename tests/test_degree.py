import numpy as np
import pytest

from hhmeasure import FourierSymbol
from hhmeasure.besov import jacobian_integrability
from hhmeasure.degree import (GridSpec, SampledCurve, default_grid,
                              multiplicity_grid, multiplicity_limit_probe,
                              preimage_multiplicity, winding)
from hhmeasure.errors import (DegenerateRoot, MaskCoverageError, NoConvergence,
                              NonIntegerError, RangeError, TailError,
                              WindingUndefined)
from hhmeasure.poly import BivariatePolynomial as P

from conftest import random_symbol

SHIFT = FourierSymbol({1: 1.0})


def suite_symbols(seed=42, count=10, band_max=3):
    """Seeded finite-band symbols with coefficients in the unit disk."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        out.append(random_symbol(rng, int(rng.integers(1, band_max + 1))))
    return out


class TestWinding:
    def test_circle_inside(self):
        curve = SampledCurve.from_symbol(SHIFT, 1.0)
        assert winding(curve, 0.0, 1e-6) == 1

    def test_circle_outside(self):
        curve = SampledCurve.from_symbol(SHIFT, 1.0)
        assert winding(curve, 2.0, 1e-6) == 0

    def test_double_loop(self):
        curve = SampledCurve.from_symbol(FourierSymbol({2: 1.0}), 1.0)
        assert winding(curve, 0.1, 1e-6) == 2

    def test_adaptive_refinement_from_coarse(self):
        # 8 samples force bisection near the query point
        n = 8
        ang = np.arange(n) * 2 * np.pi / n
        curve = SampledCurve(ang, np.exp(1j * ang),
                             evaluator=lambda t: np.exp(1j * np.asarray(t)))
        assert winding(curve, 0.9, 1e-4) == 1

    def test_separation_failure(self):
        curve = SampledCurve.from_symbol(SHIFT, 1.0, n=4096)
        with pytest.raises(WindingUndefined):
            winding(curve, 1.0, 1e-3)

    def test_unrefinable_curve_under_resolution(self):
        ang = np.arange(3) * 2 * np.pi / 3
        curve = SampledCurve(ang, np.exp(1j * ang))  # no evaluator
        with pytest.raises(NonIntegerError):
            winding(curve, 0.0, 1e-6)


class TestMultiplicityGrid:
    def test_shift_indicator(self):
        grid = GridSpec(-2, 2, -2, 2, 100, 100)
        mg = multiplicity_grid(SHIFT, 1.0, grid)
        gx, gy = np.meshgrid(grid.centers_x(), grid.centers_y())
        inside = gx ** 2 + gy ** 2 < 1
        valid = ~mg.invalid
        assert np.array_equal(mg.values[valid], inside.astype(int)[valid])

    def test_orientation_reversal(self):
        grid = GridSpec(-2, 2, -2, 2, 60, 60)
        mg = multiplicity_grid(FourierSymbol({-1: 1.0}), 1.0, grid)
        valid = ~mg.invalid
        gx, gy = np.meshgrid(grid.centers_x(), grid.centers_y())
        inside = (gx ** 2 + gy ** 2 < 1)
        assert np.array_equal(mg.values[valid], -inside.astype(int)[valid])

    def test_ellipse(self):
        sym = FourierSymbol({1: 1.0, -1: 0.5})
        grid = GridSpec(-2, 2, -2, 2, 80, 80)
        mg = multiplicity_grid(sym, 1.0, grid)
        gx, gy = np.meshgrid(grid.centers_x(), grid.centers_y())
        inside = (gx / 1.5) ** 2 + (gy / 0.5) ** 2 < 1
        valid = ~mg.invalid
        assert np.array_equal(mg.values[valid], inside.astype(int)[valid])

    def test_grid_matches_pointwise_winding(self, rng):
        sym = random_symbol(rng, 3)
        grid = default_grid(sym, 25)
        mg = multiplicity_grid(sym, 0.9, grid)
        curve = SampledCurve.from_symbol(sym, 0.9)
        cx, cy = grid.centers_x(), grid.centers_y()
        checked = 0
        for _ in range(40):
            i, j = rng.integers(0, grid.nx), rng.integers(0, grid.ny)
            if mg.invalid[j, i]:
                continue
            w = complex(cx[i], cy[j])
            assert winding(curve, w, mg.eps / 2) == mg.values[j, i]
            checked += 1
        assert checked > 10

    def test_truncation_rejected_at_r1(self):
        sym = FourierSymbol({1: 1.0}, tail_bound=0.1)
        with pytest.raises(TailError):
            multiplicity_grid(sym, 1.0, GridSpec(-2, 2, -2, 2, 10, 10))

    def test_conjugate_negates(self, rng):
        sym = random_symbol(rng, 2)
        grid = default_grid(sym, 30)
        a = multiplicity_grid(sym, 0.95, grid)
        b = multiplicity_grid(sym.conjugate(), 0.95, grid)
        both = ~(a.invalid | b.invalid)
        assert np.array_equal(a.values[both], -b.values[both])

    def test_csv_dump(self):
        grid = GridSpec(-2, 2, -2, 2, 4, 4)
        mg = multiplicity_grid(SHIFT, 1.0, grid)
        text = mg.to_csv()
        assert text.splitlines()[1] == "x,y,value,valid"
        assert len(text.splitlines()) == 2 + 16


class TestPreimageMultiplicity:
    def test_shift(self):
        assert preimage_multiplicity(SHIFT, 1.0, 0.3) == 1

    def test_square_two_roots(self):
        assert preimage_multiplicity(FourierSymbol({2: 1.0}), 1.0, 0.25) == 2

    def test_linear_conjugate_mix(self):
        sym = FourierSymbol({1: 1.0, -1: 0.5})
        assert preimage_multiplicity(sym, 1.0, 0.0) == 1

    def test_empty_preimage(self):
        assert preimage_multiplicity(SHIFT, 1.0, 3.0) == 0

    def test_radius_restriction(self):
        # root z = 0.8 lies outside the r = 0.5 disk
        assert preimage_multiplicity(SHIFT, 0.5, 0.8) == 0
        assert preimage_multiplicity(SHIFT, 0.9, 0.8) == 1

    def test_degenerate_root_rejected(self):
        # z^2 = 0 has a double root at the origin where J vanishes
        with pytest.raises((DegenerateRoot, NoConvergence)):
            preimage_multiplicity(FourierSymbol({2: 1.0}), 1.0, 0.0)


class TestDegreeIdentity:
    @pytest.mark.parametrize("idx", range(6))
    def test_grid_equals_preimage_oracle(self, idx):
        sym = suite_symbols()[idx]
        r = (1.0, 0.9, 0.8, 1.0, 0.95, 0.85)[idx]
        grid = default_grid(sym, 12)
        mg = multiplicity_grid(sym, r, grid)
        cx, cy = grid.centers_x(), grid.centers_y()
        compared = 0
        for j in range(grid.ny):
            for i in range(grid.nx):
                if mg.invalid[j, i]:
                    continue
                w = complex(cx[i], cy[j])
                try:
                    oracle = preimage_multiplicity(sym, r, w)
                except Exception:
                    continue
                assert oracle == mg.values[j, i], f"cell {w} of {sym.describe()}"
                compared += 1
        assert compared >= 30


class TestImageMonotonicity:
    def test_image_grows_with_r(self, rng):
        sym = random_symbol(rng, 3)
        grid = default_grid(sym, 40)
        small = multiplicity_grid(sym, 0.7, grid)
        large = multiplicity_grid(sym, 0.9, grid)
        nonzero_small = (~small.invalid) & (small.values != 0)
        covered = large.invalid | (large.values != 0)
        assert np.all(covered[nonzero_small])


class TestL1Bound:
    def test_mass_below_jacobian_integral(self, rng):
        for _ in range(3):
            sym = random_symbol(rng, 3)
            r = 0.9
            grid = default_grid(sym, 60)
            mg = multiplicity_grid(sym, r, grid)
            mass = float(np.sum(np.abs(mg.masked_values()))) * grid.cell_area
            jac = jacobian_integrability(sym, radii=[r]).partials[-1]
            assert mass <= jac + 0.05 * max(1.0, jac)


class TestLimitProbe:
    def test_shift_disk_moments(self):
        grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 200, 200)
        probe = multiplicity_limit_probe(SHIFT, [0.9], [P.constant(1.0)], grid)
        assert probe.moments[0, 0] == pytest.approx(-0.405j, abs=1e-3)

    def test_zero_poly(self):
        grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 150, 150)
        probe = multiplicity_limit_probe(SHIFT, [0.5, 0.9], [P.constant(0.0)], grid)
        assert not probe.moments.any()

    def test_real_symbol_zero_moments(self, rng):
        sym = random_symbol(rng, 2, real=True)
        grid = default_grid(sym, 200)
        probe = multiplicity_limit_probe(sym, [0.9], [P.constant(1.0), P.x()], grid)
        assert np.max(np.abs(probe.moments)) < 1e-12

    def test_rejects_unsorted_r(self):
        grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 20, 20)
        with pytest.raises(RangeError):
            multiplicity_limit_probe(SHIFT, [0.9, 0.5], [P.x()], grid)

    def test_mask_budget(self):
        # a box hugging the curve is mostly masked at coarse resolution
        grid = GridSpec(0.9, 1.1, -0.1, 0.1, 4, 4)
        with pytest.raises(MaskCoverageError):
            multiplicity_limit_probe(SHIFT, [0.999], [P.x()], grid)

    def test_rejects_r_at_one(self):
        grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 20, 20)
        with pytest.raises(RangeError):
            multiplicity_limit_probe(SHIFT, [0.9, 1.0], [P.x()], grid)


class TestGridSpec:
    def test_cell_geometry(self):
        g = GridSpec(0, 1, 0, 2, 10, 20)
        assert g.hx == pytest.approx(0.1)
        assert g.hy == pytest.approx(0.1)
        assert g.cell_area == pytest.approx(0.01)

    def test_locate(self):
        g = GridSpec(-1, 1, -1, 1, 4, 4)
        assert g.locate(0.9 + 0.9j) == (3, 3)
        assert g.locate(2.0) is None

    def test_validation(self):
        with pytest.raises(RangeError):
            GridSpec(1, 0, 0, 1, 4, 4)

    @pytest.mark.parametrize("bounds", [
        (-np.inf, 1, -1, 1), (-1, np.inf, -1, 1), (-1, 1, np.nan, 1), (np.nan,) * 4,
    ])
    def test_non_finite_bounds(self, bounds):
        with pytest.raises(RangeError, match="finite"):
            GridSpec(*bounds, 4, 4)

    @pytest.mark.parametrize("bounds", [(-1e308, 1e308, -1, 1), (-1, 1, -1.5e308, 1e308)])
    def test_overflowing_extent(self, bounds):
        with pytest.raises(RangeError, match="finite"):
            GridSpec(*bounds, 4, 4)
