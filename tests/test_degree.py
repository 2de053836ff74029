import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hhmeasure import FourierSymbol
from hhmeasure.besov import jacobian_integrability
from hhmeasure import degree
from hhmeasure.degree import (GridSpec, MultiplicityGrid, SampledCurve, _coverage,
                              _rasterize, _sample_mask, default_grid, multiplicity_grid,
                              preimage_multiplicity, winding)
from hhmeasure.errors import (DegenerateRoot, NoConvergence, NonIntegerError, RangeError,
                              TailError, WindingUndefined)
from hhmeasure.measure import smoothing_limit_probe
from hhmeasure.poly import BivariatePolynomial as P
from hhmeasure.symbols import _eval_extension

from conftest import dense_coverage, load_perfbench, random_symbol, row_sweep_windings

SHIFT = FourierSymbol({1: 1.0})
CURVE = SampledCurve.from_symbol(SHIFT, 1.0, n=8)


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
        curve = SampledCurve.from_symbol(SHIFT, 1.0, n=8)
        assert winding(curve, 0.9, 1e-4) == 1

    @pytest.mark.filterwarnings("error")
    def test_nan_eps_rejected(self):
        curve = SampledCurve.from_symbol(SHIFT, 1.0)
        with pytest.raises(RangeError, match="eps"):
            winding(curve, 1 + 0j, float("nan"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [complex("nan"), complex("inf"), complex(0, -np.inf)])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(RangeError, match="lambda must be finite"):
            winding(SampledCurve.from_symbol(SHIFT, 1.0), lam, 1e-8)

    @pytest.mark.parametrize("k", [1029, -1029, 2053])
    def test_band_above_512_does_not_alias(self, k):
        curve = SampledCurve.from_symbol(FourierSymbol({k: 1.0}), 1.0)
        assert winding(curve, 0.0, 1e-8) == k

    def test_separation_failure(self):
        curve = SampledCurve.from_symbol(SHIFT, 1.0, n=4096)
        with pytest.raises(WindingUndefined):
            winding(curve, 1.0, 1e-3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam, expected", [
        (complex(1e308, 1e308), 0), (complex(-1.7e308, 1.7e308), 0), (complex(0, -1e300), 0),
    ])
    def test_far_point(self, lam, expected):
        curve = SampledCurve.from_symbol(SHIFT, 1.0)
        assert winding(curve, lam, 1e-8) == expected

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam, expected", [
        (0.0, 1), (complex(1e307, 0), 1), (complex(-1.7e308, 0), 0), (complex(0, 1.7e308), 0),
    ])
    def test_curve_near_the_float_range(self, lam, expected):
        curve = SampledCurve.from_symbol(FourierSymbol({1: 1.2e308}), 1.0)
        assert winding(curve, lam, 1e-8) == expected


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

    @pytest.mark.filterwarnings("error")
    def test_tall_cell_rasterizes_without_warning(self):
        # in units of a 1e308-tall cell the curve's rises are subnormal, and
        # the raster's quotients by them overflow
        mg = multiplicity_grid(SHIFT, 1.0, GridSpec(0.0, 1.0, 0.5, 1e308, 1, 1))
        assert mg.invalid.all() and not mg.values.any()

    def test_valid_centres_lie_beyond_eps(self):
        """The mask's guarantee on random symbols and cells of aspect 1 to 1000.

        Every valid centre lies more than eps from the sampled polygon: each
        polygon point lies within half the longest chord of a sample.  On up
        to 15 valid cells of each grid, `winding` at eps / 4 equals the raster.
        """
        rng = np.random.default_rng(24)
        checked = 0
        for _ in range(40):
            sym = random_symbol(rng, int(rng.integers(1, 9)))
            r = float(rng.choice([0.9, 1.0]))
            half = default_grid(sym, 1).x1
            wide = half * float(rng.choice([1.0, 10.0, 1000.0]))
            n = int(rng.integers(12, 40))
            grid = (GridSpec(-wide, wide, -half, half, n, n) if rng.integers(2)
                    else GridSpec(-half, half, -wide, wide, n, n))
            mg = multiplicity_grid(sym, r, grid)
            pts = mg.curve.points
            chord = np.max(np.abs(np.diff(np.append(pts, pts[0]))))
            rows, cols = np.nonzero(~mg.invalid)
            centres = grid.centers_x()[cols] + 1j * grid.centers_y()[rows]
            tree = cKDTree(np.column_stack([pts.real, pts.imag]))
            gap = tree.query(np.column_stack([centres.real, centres.imag]))[0] - chord / 2
            assert np.all(gap > mg.eps)
            start = SampledCurve.from_symbol(sym, r)
            for k in np.unique(np.linspace(0, rows.size - 1, 15).astype(int))[:rows.size]:
                assert winding(start, centres[k], mg.eps / 4) == mg.values[rows[k], cols[k]]
                checked += 1
        assert checked >= 400

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


def brute_force_mask(pts, grid):
    """Cells within two rows and two columns of a sample's cell, every cell against every sample."""
    with np.errstate(over="ignore"):
        col = np.floor((pts.real - grid.x0) / grid.hx)
        row = np.floor((pts.imag - grid.y0) / grid.hy)
    near_col = np.abs(np.arange(grid.nx)[:, None] - col) <= 2
    near_row = np.abs(np.arange(grid.ny)[:, None] - row) <= 2
    return np.any(near_row[:, None, :] & near_col[None, :, :], axis=-1)


def random_polygon(rng, n, spread=1.0):
    return spread * (rng.normal(size=n) + 1j * rng.normal(size=n))


def assert_reference(ref, invalid, values, masked_cover):
    """values and masked_cover are ref's rint on valid cells and ref on invalid ones, byte for byte."""
    assert values.dtype == np.int32 and masked_cover.dtype == np.float64
    assert np.array_equal(values, np.where(invalid, 0.0, np.rint(ref)))
    assert np.array_equal(masked_cover.view(np.uint64), ref[invalid].view(np.uint64))


def check_raster(pts, grid, invalid):
    """`_rasterize` against `dense_coverage`, with this mask and with every cell masked.

    Returns the reference, every cell's average of the polygon pts.
    """
    ref = dense_coverage(pts, grid)
    for mask in (invalid, np.ones(ref.shape, dtype=bool)):
        assert_reference(ref, mask, *_rasterize(pts, grid, mask))
    return ref


def check_grid(mg):
    """`check_raster` on the grid's own curve and mask, and the grid's fields against it."""
    ref = check_raster(mg.curve.points, mg.grid, mg.invalid)
    assert_reference(ref, mg.invalid, mg.values, mg.masked_cover)
    return ref


def subdivide(pts, step):
    """The closed polygon pts, each edge cut into equal pieces of at most step."""
    d = np.roll(pts, -1) - pts
    k = np.maximum(np.ceil(np.abs(d) / step), 1).astype(np.int64)
    edge = np.repeat(np.arange(pts.size), k)
    frac = (np.arange(edge.size) - np.repeat(np.cumsum(k) - k, k)) / k[edge]
    return pts[edge] + frac * d[edge]


class TestRasterKernels:
    """The coverage raster, rounded, and the sample mask give the exact integers.

    Each polygon is cut into edges of at most a quarter cell, as
    `multiplicity_grid` refines its curves, which keeps its shape; on every
    cell that `_sample_mask` leaves valid the rounded coverage must equal
    the crossing count of the original polygon.  The raster's integers and
    averages must equal those of the dense reference byte for byte, on every
    cell.  Windings are checked on FINE, whose cells are a fifth of GRID's
    each way, so that every center of GRID is also one of FINE and at least
    a fifth of the cells stay valid.
    """

    GRID = GridSpec(-1.5, 1.5, -1.25, 1.25, 23, 19)
    FINE = GridSpec(-1.5, 1.5, -1.25, 1.25, 115, 95)

    def check_windings(self, pts, grid=FINE):
        fine = subdivide(pts, min(grid.hx, grid.hy) / 4)
        invalid = _sample_mask(fine, grid)
        valid = ~invalid
        assert valid.sum() >= grid.nx * grid.ny // 5
        got = check_raster(fine, grid, invalid)
        ref = row_sweep_windings(pts, grid.centers_x(), grid.centers_y())
        assert np.max(np.abs(got[valid] - ref[valid]), initial=0) <= 1e-9
        assert np.array_equal(np.rint(got[valid]), ref[valid])
        return got

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

    def test_pieces_left_of_the_box(self):
        # a circle around the box's left edge: its left half is clamped into column 0
        circle = -1.5 + 0.1j + 0.8 * np.exp(2j * np.pi * np.arange(40) / 40)
        assert self.check_windings(circle)[:, 0].any()

    def test_rows_no_piece_meets(self):
        # a triangle in rows 34-58 of 95: the other rows hold only their opening runs
        grid = self.FINE
        triangle = np.array([-0.5 - 0.35j, 0.6 - 0.3j, 0.1 + 0.3j])
        self.check_windings(triangle)
        starts, _ = _coverage(subdivide(triangle, grid.hx / 4), grid)
        rows = np.unique(starts // (grid.nx + 1), return_counts=True)[1]
        assert rows.size == grid.ny and np.count_nonzero(rows == 1) >= grid.ny // 2

    def test_sampled_curve_on_fine_grid(self, rng):
        sym = random_symbol(rng, 4)
        grid = default_grid(sym, 90)
        pts = SampledCurve.from_symbol(sym, 0.95).refine_to_chord(grid.hx / 4).points
        self.check_windings(pts, grid)

    @pytest.mark.parametrize("aspect", [0.37, 1.0, 2.3, 4.71, 1e-3, 1e3])
    def test_mask_matches_all_pairs(self, aspect):
        """Random samples, some outside the box, on cells about aspect times as tall as wide."""
        rng = np.random.default_rng(int(aspect * 100))
        wide, tall = 1.5 / max(aspect, 1.0), 1.25 * min(aspect, 1.0)
        grid = GridSpec(-wide, wide, -tall, tall, 23, 19)
        pts = random_polygon(rng, 40, spread=0.8)
        pts = pts.real * (wide / 1.5) + 1j * pts.imag * (tall / 1.25)
        got = _sample_mask(pts, grid)
        assert np.array_equal(got, brute_force_mask(pts, grid))
        assert got.any() and not got.all()

    def test_mask_samples_far_outside(self):
        grid = self.GRID
        # far samples, samples two and three cells beyond each edge of the box, and one inside
        hx, hy = grid.hx, grid.hy
        pts = np.array([1e6 + 1j, -1e6, 1e6j, -3.0 - 3.0j, 1e308 - 1e308j,
                        -1.5 - 1.5 * hx, -1.5 - 2.5 * hx, 1.5 + 1.5 * hx + 0.1j, 1.5 + 2.5 * hx,
                        1j * (1.25 + 1.5 * hy), 1j * (1.25 + 2.5 * hy), -0.2 - 1.26j,
                        0.3 - 1j * (1.25 + 2.5 * hy), 0.01 + 0.02j])
        got = _sample_mask(pts, grid)
        assert np.array_equal(got, brute_force_mask(pts, grid))
        # a sample two cells out masks the edge column; one three cells out masks nothing
        assert np.array_equal(_sample_mask(pts[5:6], grid).any(axis=0), np.arange(23) == 0)
        assert not _sample_mask(pts[6:7], grid).any()

    @pytest.mark.parametrize("grid, eps", [
        # square cells
        (GridSpec(-1.0, 1.0, -1.0, 1.0, 16, 16), 2.0 * float(np.hypot(0.125, 0.125))),
        # steps of whole cells
        (GridSpec(0.0, 2.0, 0.0, 1.0, 16, 16), 0.25),
        (GridSpec(-1.0, 1.0, -3.0, 3.0, 8, 48), 0.5),
        # a step of whole cells along x, not y, and the reverse
        (GridSpec(-1.0, 1.0, -1.0, 1.0, 16, 10), 0.375),
        (GridSpec(-1.0, 1.0, -1.0, 1.0, 10, 16), 0.375),
        # wide and tall cells
        (GridSpec(-1.0, 1.0, -0.25, 0.25, 10, 80), 0.15),
        (GridSpec(-0.25, 0.25, -1.0, 1.0, 80, 10), 0.15),
        # boxes far from the origin, where the cell coordinates carry rounding
        (GridSpec(1e6, 1e6 + 2.0, -1e6 - 1.0, -1e6 + 1.0, 16, 16), 0.25),
        (GridSpec(1e8, 1e8 + 2e-3, 3e8, 3e8 + 2e-3, 24, 24), 2.5e-4),
        (GridSpec(1e8, 1e8 + 2e-3, 3e8, 3e8 + 2e-3, 24, 24), 2.99999 * 1e-3 / 12),
        (GridSpec(-7e15, -7e15 + 64.0, 5e15, 5e15 + 48.0, 16, 12), 8.0),
    ])
    def test_mask_matches_all_pairs_on_offset_edges(self, grid, eps):
        """Samples a step eps from a center along an axis, and on cell corners and lines."""
        rng = np.random.default_rng(17)
        cx, cy = grid.centers_x(), grid.centers_y()
        steps = np.array([eps, -eps, 0, 0, 0.5 * grid.hx, -0.5 * grid.hx]) + 1j * np.array(
            [0, 0, eps, -eps, 0.5 * grid.hy, -0.5 * grid.hy])
        for _ in range(40):
            i, j = rng.integers(grid.nx, size=6), rng.integers(grid.ny, size=6)
            step = rng.choice(steps, 6)
            pts = (cx[i] + step.real) + 1j * (cy[j] + step.imag)
            got = _sample_mask(pts, grid)
            assert np.array_equal(got, brute_force_mask(pts, grid))
            assert not got.all()

    @pytest.mark.filterwarnings("error")
    def test_mask_of_huge_cells(self):
        # 1e199-wide cells: the index mask computes no distance, so nothing overflows
        grid = GridSpec(-2e200, 2e200, -2e200, 2e200, 40, 40)
        pts = 1e200 * np.exp(2j * np.pi * np.arange(64) / 64)
        got = _sample_mask(pts, grid)
        assert np.array_equal(got, brute_force_mask(pts, grid))
        assert got.any() and not got.all()


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

    def test_reachable_target_is_reached(self):
        # 2^8 doublings are left from 1024 points: a chord at 255.9 times the
        # target is within reach, and refinement ends at the cap
        curve = SampledCurve.from_symbol(SHIFT, 1.0)
        chord = float(np.max(np.abs(np.diff(np.append(curve.points, curve.points[0])))))
        assert curve.refine_to_chord(chord / 255.9).points.size == degree._MAX_CURVE_POINTS
        with pytest.raises(NonIntegerError, match="at 1024 points"):
            curve.refine_to_chord(chord / 256.1)

    def test_bisection_cap_raises(self, monkeypatch):
        monkeypatch.setattr(degree, "_MAX_CURVE_POINTS", 8)
        curve = SampledCurve.from_symbol(SHIFT, 1.0, n=8)
        with pytest.raises(NonIntegerError, match="bisection passed 8 points"):
            winding(curve, 0.9, 1e-4)


class TestStartCurve:
    """A start curve has at least 2 band samples, so no frequency aliases."""

    @pytest.mark.parametrize("band, count", [(0, 1024), (1, 1024), (512, 1024), (513, 2048),
                                             (1029, 4096)])
    def test_default_count(self, band, count):
        assert SampledCurve.from_symbol(FourierSymbol({band: 1.0}), 0.9).points.size == count

    @pytest.mark.parametrize("n", [2, 1023])
    def test_explicit_count_below_twice_the_band_raises(self, n):
        with pytest.raises(RangeError, match="alias"):
            SampledCurve.from_symbol(FourierSymbol({-512: 1.0}), 0.9, n)
        SampledCurve.from_symbol(FourierSymbol({-512: 1.0}), 0.9, 1024)


class TestRefineToChord:
    """Doubling keeps the current samples as the even ones, bit for bit."""

    @pytest.mark.parametrize("band", [1, 2, 3, 16, 64])
    @pytest.mark.parametrize("r", [0.9, 0.99, 1.0])
    def test_equals_fresh_sampling(self, band, r):
        sym = random_symbol(np.random.default_rng(band), band)
        curve = SampledCurve.from_symbol(sym, r, 256)
        closed = np.append(curve.points, curve.points[0])
        refined = curve.refine_to_chord(float(np.max(np.abs(np.diff(closed)))) / 20)
        assert refined.points.size >= 256 * 16
        fresh = SampledCurve.from_symbol(sym, r, refined.points.size)
        assert np.array_equal(refined.angles.view(np.uint64), fresh.angles.view(np.uint64))
        assert np.array_equal(refined.points.view(np.uint64), fresh.points.view(np.uint64))

    def test_odd_start_count(self):
        sym = random_symbol(np.random.default_rng(3), 3)
        refined = SampledCurve.from_symbol(sym, 0.95, 100).refine_to_chord(1e-3)
        fresh = SampledCurve.from_symbol(sym, 0.95, refined.points.size)
        assert np.array_equal(refined.points.view(np.uint64), fresh.points.view(np.uint64))


class TestMaskedCellsStoreZero:
    def test_grid_stores_zero_on_masked_cells(self):
        mg = multiplicity_grid(SHIFT, 1.0, GridSpec(-1.5, 1.5, -1.5, 1.5, 40, 40))
        assert mg.invalid.any()
        assert not mg.values[mg.invalid].any()

    def test_nonzero_masked_cell_rejected(self):
        grid = GridSpec(0, 1, 0, 1, 2, 2)
        invalid = np.array([[True, False], [False, False]])
        with pytest.raises(RangeError, match="invalid cells"):
            MultiplicityGrid(grid, np.ones((2, 2)), invalid, [0.5], CURVE)
        MultiplicityGrid(grid, np.array([[0, 1], [1, 1]]), invalid, [0.5], CURVE)

    @pytest.mark.parametrize("cover", [[], [0.5, 0.5], [[0.5]]])
    def test_one_average_per_masked_cell(self, cover):
        grid = GridSpec(0, 1, 0, 1, 2, 2)
        invalid = np.array([[True, False], [False, False]])
        with pytest.raises(RangeError, match="masked_cover"):
            MultiplicityGrid(grid, np.zeros((2, 2)), invalid, cover, CURVE)


class TestInt32Raster:
    GRID = GridSpec(0, 1, 0, 1, 2, 2)
    VALID = np.zeros((2, 2), dtype=bool)
    NONE_MASKED = np.zeros(0)

    def test_raster_is_int32(self):
        mg = multiplicity_grid(SHIFT, 1.0, GridSpec(-1.5, 1.5, -1.5, 1.5, 20, 20))
        assert mg.values.dtype == np.int32

    def test_int32_values_kept_without_copy(self):
        values = np.array([[0, 1], [-2, 3]], dtype=np.int32)
        mg = MultiplicityGrid(self.GRID, values, self.VALID, self.NONE_MASKED, CURVE)
        assert mg.values is values

    def test_wider_integers_converted(self):
        values = np.array([[0, 2 ** 31 - 1], [-2 ** 31, 3]], dtype=np.int64)
        mg = MultiplicityGrid(self.GRID, values, self.VALID, self.NONE_MASKED, CURVE)
        assert mg.values.dtype == np.int32
        assert np.array_equal(mg.values, values)

    @pytest.mark.parametrize("big", [2 ** 31, -2 ** 31 - 1, 2 ** 40])
    def test_out_of_range_rejected(self, big):
        values = np.array([[0, 0], [big, 0]], dtype=np.int64)
        with pytest.raises(RangeError, match="int32"):
            MultiplicityGrid(self.GRID, values, self.VALID, self.NONE_MASKED, CURVE)


def shoelace(pts: np.ndarray) -> float:
    return 0.5 * float(np.sum(pts.real * np.roll(pts.imag, -1) - np.roll(pts.real, -1) * pts.imag))


COVERAGE_SYMBOLS = [random_symbol(np.random.default_rng(band), band) for band in (1, 2, 3, 5, 8, 16)] + [
    FourierSymbol({7: 1.0}), FourierSymbol({7: 1.0, 1: 0.3, -2: 0.2}), FourierSymbol({-3: 1.0})]


class TestCoverage:
    """Exact cell averages of the polygon's winding, against the crossing count."""

    @pytest.mark.parametrize("r", [1.0, 0.9])
    @pytest.mark.parametrize("idx", range(len(COVERAGE_SYMBOLS)))
    def test_winding_on_valid_cells_and_shoelace_area(self, idx, r):
        sym = COVERAGE_SYMBOLS[idx]
        grid = default_grid(sym, 90)
        mg = multiplicity_grid(sym, r, grid)
        cov = check_grid(mg)
        valid = ~mg.invalid
        ref = row_sweep_windings(mg.curve.points, grid.centers_x(), grid.centers_y())
        assert np.max(np.abs(cov[valid] - ref[valid])) <= 1e-9
        assert np.array_equal(mg.values[valid], ref[valid])
        area = shoelace(mg.curve.points)
        assert abs(cov.sum() * grid.cell_area - area) <= 1e-9 * abs(area)

    def test_real_symbol_is_zero(self, rng):
        sym = random_symbol(rng, 3, real=True)
        mg = multiplicity_grid(sym, 0.9, default_grid(sym, 50))
        _, runs = _coverage(mg.curve.points, mg.grid)
        assert not runs.any()
        check_grid(mg)

    @pytest.mark.parametrize("box, rows, cols", [
        ((-0.5, 1.5, -1.0, 0.5), slice(20, 50), slice(30, 70)),   # cuts the curve
        ((1.0, 2.0, -2.0, 2.0), slice(0, 80), slice(60, 80)),     # right part of the curve
        ((-2.0, -1.0, 1.0, 2.0), slice(60, 80), slice(0, 20)),    # one corner
    ])
    def test_box_cutting_the_curve(self, box, rows, cols):
        # cells aligned with those of a box around the whole curve, same chord target
        sym = FourierSymbol({1: 1.0, 2: 0.4, -1: 0.2})
        full = multiplicity_grid(sym, 1.0, GridSpec(-2, 2, -2, 2, 80, 80))
        x0, x1, y0, y1 = box
        part = GridSpec(x0, x1, y0, y1, cols.stop - cols.start, rows.stop - rows.start)
        cut = check_raster(full.curve.points, part, full.invalid[rows, cols])
        whole = check_raster(full.curve.points, full.grid, full.invalid)
        assert np.max(np.abs(cut - whole[rows, cols])) <= 1e-12
        valid = ~full.invalid[rows, cols]
        assert np.max(np.abs(cut[valid] - full.values[rows, cols][valid]), initial=0) <= 1e-9

    def test_float64_when_no_piece_meets_a_row(self):
        # the zero symbol's curve is the origin, below the box's one row
        grid = GridSpec(0, 1, 0.25, 0.5, 1, 1)
        zero = SampledCurve.from_symbol(FourierSymbol({}), 1.0)
        starts, runs = _coverage(zero.points, grid)
        assert np.array_equal(starts, [0]) and runs.dtype == np.float64
        assert np.array_equal(runs.view(np.uint64), [0])
        mg = multiplicity_grid(FourierSymbol({}), 1.0, grid)
        assert mg.values.dtype == np.int32 and np.array_equal(mg.values, [[0]])
        check_grid(mg)

    @pytest.mark.filterwarnings("error")
    def test_far_vertices_are_clamped(self):
        # a small circle so far left of 1e-10-wide cells that its abscissae
        # overflow in cell units: it lies left of every cell, so it covers none
        grid = GridSpec(0, 4e-10, 0, 1, 4, 4)
        far = SampledCurve.from_symbol(FourierSymbol({0: -1e300 + 0.5j, 1: 0.01}), 1.0)
        assert np.max(np.abs(check_raster(far.points, grid, np.zeros((4, 4), dtype=bool)))) <= 1e-12

    def test_density_sweep_curves(self):
        # the eight curves and grids of the benchmark's `density_jobs(3, ...)`, drawn the same way
        workloads = load_perfbench("workloads")
        rng, curves = np.random.default_rng(3), np.random.default_rng(workloads.CURVE_SEED)
        for band, n, r in workloads.SWEEP:
            sym = workloads.turned(workloads.phase_symbol(curves, band), rng.uniform(0, 2 * np.pi))
            grid = default_grid(sym, n)
            workloads.box_points(rng, grid, 32)
            check_grid(multiplicity_grid(sym, r, grid))


class TestRasterMemory:
    def test_peak_bytes_per_cell(self):
        # the dense float buffer of every cell took 19.8 B/cell here
        sym = FourierSymbol({1: 1.0, 2: 0.4, -1: 0.2})
        grid = default_grid(sym, 2000)
        tracemalloc.start()
        try:
            mg = multiplicity_grid(sym, 1.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mg.invalid.any()
        assert peak / (grid.nx * grid.ny) <= 12


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
                assert oracle == mg.values[j, i], f"cell {w} of {sym.coeffs}"
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
        # no mask budget: a box hugging the curve is wholly masked and still
        # gives a moment, whose quad_err shows the part of the disk outside the box
        grid = GridSpec(0.9, 1.1, -0.1, 0.1, 4, 4)
        rep = smoothing_limit_probe(SHIFT, P.x(), P.y(), [0.999], grid)
        assert rep.masked_fractions == (1.0,)
        assert abs(rep.moments[0]) < 0.01
        assert rep.quad_errs[0] == pytest.approx(0.5, abs=0.01)
        assert rep.to_dict()["rows"][0]["quad_err"] == rep.quad_errs[0]

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

    @pytest.mark.parametrize("w", [complex(1e308, 1e308), complex(-1e308, 0.0),
                                   complex(0.0, 1.7e308), complex(np.inf, 0.0),
                                   complex(0.0, -np.inf), complex(np.nan, 0.0)])
    def test_locate_far_or_non_finite(self, w):
        assert GridSpec(-1, 1, -1, 1, 4, 4).locate(w) is None
        assert GridSpec(-1e-300, 1e-300, -1e-300, 1e-300, 4, 4).locate(w) is None

    def test_validation(self):
        with pytest.raises(RangeError):
            GridSpec(1, 0, 0, 1, 4, 4)

    @pytest.mark.parametrize("nx, ny", [(2.5, 3), (3, 4.0), ("4", 4), (None, 4)])
    def test_non_integral_resolution(self, nx, ny):
        with pytest.raises(RangeError, match="integral"):
            GridSpec(-1.5, 1.5, -1.5, 1.5, nx, ny)

    @pytest.mark.parametrize("nx, ny", [(10 ** 400, 1), (1, 10 ** 400), (10 ** 309, 10 ** 309)])
    def test_resolution_beyond_float_range(self, nx, ny):
        with pytest.raises(RangeError, match="float range"):
            GridSpec(-1.0, 1.0, -1.0, 1.0, nx, ny)

    def test_numpy_integer_resolution(self):
        grid = GridSpec(-1.5, 1.5, -1.5, 1.5, np.int64(3), np.int32(2))
        assert (grid.hx, grid.hy) == (1.0, 1.5)

    @pytest.mark.parametrize("bounds", [
        (-np.inf, 1, -1, 1), (-1, np.inf, -1, 1), (-1, 1, np.nan, 1), (np.nan,) * 4,
    ])
    def test_non_finite_bounds(self, bounds):
        with pytest.raises(RangeError, match="finite"):
            GridSpec(*bounds, 4, 4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bounds, n", [
        ((0.0, 5e-324, 0.0, 1.0), 2),             # cells narrower than the least float
        ((0.0, 1.7e308, 0.0, 1.7e308), 1),        # a cell diagonal beyond the float range
    ])
    def test_cell_size(self, bounds, n):
        with pytest.raises(RangeError, match="cell"):
            GridSpec(*bounds, n, n)

    @pytest.mark.parametrize("bounds", [(-1e308, 1e308, -1, 1), (-1, 1, -1.5e308, 1e308)])
    def test_overflowing_extent(self, bounds):
        with pytest.raises(RangeError, match="finite"):
            GridSpec(*bounds, 4, 4)
