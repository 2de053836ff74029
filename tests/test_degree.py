import numpy as np
import pytest

from hhmeasure import FourierSymbol
from hhmeasure.besov import jacobian_integrability
from hhmeasure import degree
from hhmeasure.degree import (GridSpec, MultiplicityGrid, SampledCurve, _polygon_windings,
                              _proximity_mask, default_grid, multiplicity_grid,
                              preimage_multiplicity, winding)
from hhmeasure.errors import (DegenerateRoot, MaskCoverageError, NoConvergence,
                              NonIntegerError, RangeError, TailError,
                              WindingUndefined)
from hhmeasure.measure import hh_density, smoothing_limit_probe
from hhmeasure.poly import BivariatePolynomial as P
from hhmeasure.symbols import _eval_extension

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


def row_sweep_windings(pts, cx, cy):
    """Reference winding raster: one crossing-count sweep per grid row.

    For each row, the edges crossing its center line (half-open rule) are
    sorted by crossing abscissa; a center's winding is the signed count of
    crossings strictly to its right.
    """
    x1, y1 = pts.real, pts.imag
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    out = np.zeros((cy.size, cx.size), dtype=np.int64)
    for j, yc in enumerate(cy):
        below1 = y1 <= yc
        cross = below1 != (y2 <= yc)
        if not np.any(cross):
            continue
        sgn = np.where(below1[cross], 1, -1)
        t = (yc - y1[cross]) / (y2[cross] - y1[cross])
        xs = x1[cross] + t * (x2[cross] - x1[cross])
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        prefix = np.concatenate(([0], np.cumsum(sgn[order])))
        idx = np.searchsorted(xs, cx, side="right")
        out[j] = prefix[-1] - prefix[idx]
    return out


def brute_force_mask(pts, grid, eps):
    """Cells whose center is within eps of a sample, by all-pairs distances."""
    gx, gy = grid.mesh()
    d2 = (gx[..., None] - pts.real) ** 2 + (gy[..., None] - pts.imag) ** 2
    return np.any(d2 <= eps * eps, axis=-1)


def random_polygon(rng, n, spread=1.0):
    return spread * (rng.normal(size=n) + 1j * rng.normal(size=n))


class TestRasterKernels:
    """The edge-driven sweep and the offset-table mask give the exact integers."""

    GRID = GridSpec(-1.5, 1.5, -1.25, 1.25, 23, 19)

    def check_windings(self, pts, grid=GRID):
        cx, cy = grid.centers_x(), grid.centers_y()
        got = _polygon_windings(pts, cx, cy)
        assert got.shape == (grid.ny, grid.nx)
        assert np.array_equal(got, row_sweep_windings(pts, cx, cy))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_polygons(self, seed):
        rng = np.random.default_rng(seed)
        self.check_windings(random_polygon(rng, int(rng.integers(3, 60))))

    def test_vertices_on_row_centers(self):
        rng = np.random.default_rng(11)
        cy = self.GRID.centers_y()
        pts = rng.uniform(-1.4, 1.4, 40) + 1j * rng.choice(cy, 40)
        self.check_windings(pts)

    def test_horizontal_edges(self):
        cy = self.GRID.centers_y()
        # a staircase whose horizontal runs lie on row centers and between them
        ys = np.repeat([cy[2], cy[5], 0.3, cy[12], cy[16], -0.9], 2)
        xs = np.array([-1.2, 1.1, 0.9, -0.7, -0.5, 1.3, 1.0, -1.0, -0.8, 0.4, 0.2, -1.3])
        self.check_windings(xs + 1j * ys)

    def test_crossings_on_cell_center_abscissa(self):
        cx, cy = self.GRID.centers_x(), self.GRID.centers_y()
        # vertical edges and a diamond through grid centers cross rows exactly at cx
        square = np.array([cx[3] + 1j * cy[1], cx[17] + 1j * cy[1],
                           cx[17] + 1j * cy[15], cx[3] + 1j * cy[15]])
        self.check_windings(square)
        diamond = np.array([cx[10] + 1j * cy[2], cx[18] + 1j * cy[10],
                            cx[10] + 1j * cy[18], cx[2] + 1j * cy[10]])
        self.check_windings(diamond)
        self.check_windings(diamond[::-1])

    def test_vertices_outside_box(self):
        rng = np.random.default_rng(5)
        self.check_windings(random_polygon(rng, 50, spread=3.0))
        # a polygon entirely left of, and one entirely above, the box
        self.check_windings(random_polygon(rng, 20, 0.2) - 4.0)
        self.check_windings(random_polygon(rng, 20, 0.2) + 4.0j)

    def test_sampled_curve_on_fine_grid(self, rng):
        sym = random_symbol(rng, 4)
        grid = default_grid(sym, 90)
        pts = SampledCurve.from_symbol(sym, 0.95).refine_to_chord(grid.hx / 4).points
        self.check_windings(pts, grid)

    @pytest.mark.parametrize("eps_cells", [0.37, 1.0, 2.3, 4.71])
    def test_mask_matches_all_pairs(self, eps_cells):
        rng = np.random.default_rng(int(eps_cells * 100))
        grid = self.GRID
        pts = random_polygon(rng, 300, spread=1.2)  # some samples fall outside the box
        eps = eps_cells * grid.hx
        assert np.array_equal(_proximity_mask(pts, grid, eps), brute_force_mask(pts, grid, eps))

    def test_mask_samples_far_outside(self):
        grid = self.GRID
        eps = 1.7 * grid.hy
        # far samples, samples just beyond each edge of the box, and one inside
        pts = np.array([1e6 + 1j, -1e6, 1e6j, -3.0 - 3.0j, 1.52 + 0.1j, -1.53 - 0.2j,
                        0.4 + 1.27j, -0.2 - 1.26j, 0.01 + 0.02j])
        assert np.array_equal(_proximity_mask(pts, grid, eps), brute_force_mask(pts, grid, eps))

    @pytest.mark.filterwarnings("error")
    def test_mask_rejects_overflowing_distances(self):
        # squared distances of 1e199-sized cells overflow, and inf <= inf would mask them all
        grid = GridSpec(-2e200, 2e200, -2e200, 2e200, 40, 40)
        pts = 1e200 * np.exp(2j * np.pi * np.arange(64) / 64)
        with pytest.raises(RangeError, match="overflow"):
            _proximity_mask(pts, grid, 2.0 * grid.cell_diag)


class TestChordCap:
    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(degree, "_MAX_CURVE_POINTS", 2048)
        curve = SampledCurve.from_symbol(SHIFT, 1.0)
        assert curve.refine_to_chord(2 * np.pi / 1500).points.size == 2048
        with pytest.raises(NonIntegerError, match="above target"):
            curve.refine_to_chord(1e-3)

    def test_grid_past_cap_raises(self, monkeypatch):
        monkeypatch.setattr(degree, "_MAX_CURVE_POINTS", 1024)
        with pytest.raises(NonIntegerError):
            multiplicity_grid(SHIFT, 1.0, GridSpec(-2, 2, -2, 2, 400, 400))

    def test_unrefinable_curve_raises(self):
        ang = np.arange(8) * 2 * np.pi / 8
        curve = SampledCurve(ang, np.exp(1j * ang))
        assert curve.refine_to_chord(1.0) is curve
        with pytest.raises(NonIntegerError, match="not refinable"):
            curve.refine_to_chord(0.1)


class TestMaskedCellsStoreZero:
    def test_grid_stores_zero_on_masked_cells(self):
        mg = multiplicity_grid(SHIFT, 1.0, GridSpec(-1.5, 1.5, -1.5, 1.5, 40, 40))
        assert mg.invalid.any()
        assert not mg.values[mg.invalid].any()

    def test_nonzero_masked_cell_rejected(self):
        grid = GridSpec(0, 1, 0, 1, 2, 2)
        invalid = np.array([[True, False], [False, False]])
        with pytest.raises(RangeError, match="invalid cells"):
            MultiplicityGrid(grid, np.ones((2, 2)), invalid, 0.1, 8)
        MultiplicityGrid(grid, np.array([[0, 1], [1, 1]]), invalid, 0.1, 8)


class TestCoarseCurveReuse:
    def test_fine_grid_equals_fresh_raster(self, rng, monkeypatch):
        sym = random_symbol(rng, 3)
        grid = default_grid(sym, 70)
        calls = []
        from_symbol = SampledCurve.from_symbol

        def counted(*args, **kwargs):
            calls.append(args)
            return from_symbol(*args, **kwargs)

        monkeypatch.setattr(SampledCurve, "from_symbol", counted)
        pair = hh_density(sym, 0.9, grid)
        assert len(calls) == 1
        fresh = multiplicity_grid(sym, 0.9, grid.refined())
        assert pair.fine.curve_points == fresh.curve_points
        assert np.array_equal(pair.fine.values, fresh.values)
        assert np.array_equal(pair.fine.invalid, fresh.invalid)


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

    @pytest.mark.parametrize("sym, w", [(FourierSymbol({}), 0.0),
                                        (FourierSymbol({0: 0.7 - 0.2j}), 0.7 - 0.2j)])
    def test_constant_symbol_not_discrete(self, sym, w):
        # every point of the disk is a preimage; the n^2 = 0 root cap says so
        with pytest.raises(DegenerateRoot, match="not discrete"):
            preimage_multiplicity(sym, 0.95, w)

    @pytest.mark.parametrize("r, w", [(1.0, 3.0), (0.5, 0.8)])
    def test_zero_count_by_exclusion(self, monkeypatch, r, w):
        def no_newton(*args):
            raise AssertionError("Newton ran although no square can hold a preimage")

        monkeypatch.setattr(degree, "_wirtinger", no_newton)
        assert preimage_multiplicity(SHIFT, r, w) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_variation_bound(self, seed):
        """|Phi(z) - Phi(c)| stays within the exclusion bound on square and disk."""
        rng = np.random.default_rng(seed)
        sym = random_symbol(rng, int(rng.integers(1, 6)))
        r = float(rng.choice([0.3, 0.7, 0.95, 1.0]))
        corners = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
        for _ in range(50):
            h = r * 2.0 ** -float(rng.integers(0, 7))
            # centres inside the disk and up to a half-width beyond it
            c = complex(*rng.uniform(-r - h, r + h, 2))
            z = c + h * np.concatenate([corners, rng.uniform(-1, 1, 300)
                                        + 1j * rng.uniform(-1, 1, 300)])
            z = z[np.abs(z) < r]
            bound = degree._variation_bound(sym, np.array([c]), h, 0.0)[0]
            assert np.all(np.abs(_eval_extension(sym, z) - _eval_extension(sym, c)) <= bound)

    @pytest.mark.parametrize("t", [0.9, 1.025])
    def test_variation_bound_along_a_radius(self, t):
        """z^200 attains L along the ray of the square's diagonal, so rho needs |c| + sqrt2*h.

        The second centre lies outside the unit disk, where capping rho at r
        would under-bound the variation.
        """
        sym, h = FourierSymbol({200: 1.0}), 0.05
        ray = np.exp(0.25j * np.pi)
        c = t * ray
        z = (t + h * np.linspace(-1.4, 1.4, 57)) * ray
        z = z[np.abs(z) < 1.0]
        bound = degree._variation_bound(sym, np.array([c]), h, 0.0)[0]
        assert np.all(np.abs(_eval_extension(sym, z) - _eval_extension(sym, c)) <= bound)


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
                except (NoConvergence, DegenerateRoot):
                    continue
                assert oracle == mg.values[j, i], f"cell {w} of {sym.describe()}"
                compared += 1
        assert compared >= 30

    def test_nonzero_cells(self):
        """Raster, winding and Newton agree where m != 0.

        Criterion 06's symbols and radii at 60^2, where the default eps leaves
        cells with m = +-1 unmasked; up to 40 nonzero and 10 zero valid cells
        of each symbol, spread over the raster.
        """
        def spread(cells, k):
            return cells[::max(1, -(-len(cells) // k))]

        rng = np.random.default_rng(31)
        nonzero = 0
        for r in (1.0, 0.9, 0.8, 1.0, 0.95, 0.85, 1.0, 0.9, 0.75, 1.0):
            sym = random_symbol(rng, int(rng.integers(1, 4)))
            grid = default_grid(sym, 60)
            mg = multiplicity_grid(sym, r, grid)
            cx, cy = grid.centers_x(), grid.centers_y()
            valid = ~mg.invalid
            cells = np.concatenate([spread(np.argwhere(valid & (mg.values != 0)), 40),
                                    spread(np.argwhere(valid & (mg.values == 0)), 10)])
            for j, i in cells:
                w, m = complex(cx[i], cy[j]), int(mg.values[j, i])
                assert winding(mg.curve, w, mg.eps / 4) == m, f"winding at {w}, r = {r}"
                try:
                    oracle = preimage_multiplicity(sym, r, w)
                except (NoConvergence, DegenerateRoot):
                    continue
                assert oracle == m, f"Newton at {w}, r = {r}"
                nonzero += m != 0
        assert nonzero >= 150, f"only {nonzero} nonzero cells compared"


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
            mass = float(np.sum(np.abs(mg.values))) * grid.cell_area
            jac = jacobian_integrability(sym, radii=[r]).partials[-1]
            assert mass <= jac + 0.05 * max(1.0, jac)


class TestLimitProbe:
    """The r -> 1 probe on the rasters of this module; the weight is J(p, q)."""

    def test_shift_disk_moments(self):
        grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 200, 200)
        rep = smoothing_limit_probe(SHIFT, P.x(), P.y(), [0.9], grid)  # J(x, y) = 1
        assert rep.moments[0] == pytest.approx(-0.405j, abs=1e-3)

    def test_zero_poly(self):
        grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 150, 150)
        rep = smoothing_limit_probe(SHIFT, P.x(), P.x(), [0.5, 0.9], grid)  # J(x, x) = 0
        assert not rep.moments.any()

    def test_real_symbol_zero_moments(self, rng):
        sym = random_symbol(rng, 2, real=True)
        grid = default_grid(sym, 200)
        # J(x, y) = 1 and J(x^2 / 2, y) = x
        for p in (P.x(), P.monomial(2, 0, 0.5)):
            rep = smoothing_limit_probe(sym, p, P.y(), [0.9], grid)
            assert np.max(np.abs(rep.moments)) < 1e-12

    def test_rejects_unsorted_r(self):
        grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 20, 20)
        with pytest.raises(RangeError):
            smoothing_limit_probe(SHIFT, P.x(), P.y(), [0.9, 0.5], grid)

    def test_mask_budget(self):
        # a box hugging the curve is mostly masked at coarse resolution
        grid = GridSpec(0.9, 1.1, -0.1, 0.1, 4, 4)
        with pytest.raises(MaskCoverageError, match=r"masked at r=0\.999$"):
            smoothing_limit_probe(SHIFT, P.x(), P.y(), [0.999], grid)

    def test_rejects_r_at_one(self):
        grid = GridSpec(-1.5, 1.5, -1.5, 1.5, 20, 20)
        with pytest.raises(RangeError):
            smoothing_limit_probe(SHIFT, P.x(), P.y(), [0.9, 1.0], grid)


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
