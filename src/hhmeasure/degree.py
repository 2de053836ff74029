"""Winding numbers and signed multiplicity grids of symbol curves.

Two independent routes to the same integers:

* `winding` accumulates argument increments along an adaptively refined
  curve (the classical argument principle), one query point at a time.
* `multiplicity_grid` rasterizes the winding number over a whole grid with
  an exact crossing-count sweep per row, which is deterministic, integer-
  exact with respect to the sampled polygon, and fast enough for fine grids.
* `preimage_multiplicity` counts disk preimages with Jacobian signs by a
  subdivided Newton iteration and serves as the oracle for the degree
  identity wind(phi, w) = sum sgn J over preimages.

Grid cells are independent, so per-cell evaluation may run concurrently;
all outputs are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (DegenerateRoot, MaskCoverageError, NoConvergence,
                     NonIntegerError, RangeError, TailError, WindingUndefined)
from .symbols import FourierSymbol, _eval_extension, _jacobian, _wirtinger

_MAX_REFINE_PASSES = 48
_MAX_CURVE_POINTS = 1 << 18


@dataclass(frozen=True)
class GridSpec:
    """Rectangle [x0, x1] x [y0, y1] split into nx x ny cells."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        if not np.all(np.isfinite((self.x0, self.x1, self.y0, self.y1))):
            raise RangeError("grid bounds must be finite")
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise RangeError("grid box must have positive extent")
        if self.nx < 1 or self.ny < 1:
            raise RangeError("grid resolution must be >= 1")
        # finite bounds can still overflow their difference, and so hx and hy
        if not np.all(np.isfinite((self.x1 - self.x0, self.y1 - self.y0))):
            raise RangeError("grid extent and cell size must be finite")

    @property
    def hx(self) -> float:
        return (self.x1 - self.x0) / self.nx

    @property
    def hy(self) -> float:
        return (self.y1 - self.y0) / self.ny

    @property
    def cell_diag(self) -> float:
        return float(np.hypot(self.hx, self.hy))

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def centers_x(self) -> np.ndarray:
        return self.x0 + (np.arange(self.nx) + 0.5) * self.hx

    def centers_y(self) -> np.ndarray:
        return self.y0 + (np.arange(self.ny) + 0.5) * self.hy

    def mesh(self) -> tuple:
        """(x, y) of every cell center, each of shape (ny, nx)."""
        return np.meshgrid(self.centers_x(), self.centers_y())

    def refined(self) -> "GridSpec":
        return GridSpec(self.x0, self.x1, self.y0, self.y1, 2 * self.nx, 2 * self.ny)

    def locate(self, w: complex):
        """(row, col) of the cell containing w, or None if outside the box."""
        i = int(np.floor((w.real - self.x0) / self.hx))
        j = int(np.floor((w.imag - self.y0) / self.hy))
        if 0 <= i < self.nx and 0 <= j < self.ny:
            return j, i
        return None

    def to_dict(self) -> dict:
        return {"x0": self.x0, "x1": self.x1, "y0": self.y0, "y1": self.y1,
                "nx": self.nx, "ny": self.ny}


def default_grid(sym: FourierSymbol, n: int = 400) -> GridSpec:
    """Square box of half-width sum|c(k)| + tail + 0.5, covering sigma(T_phi)."""
    half = sym.one_norm() + sym.tail_bound + 0.5
    return GridSpec(-half, half, -half, half, n, n)


# -- sampled curves ---------------------------------------------------------------

@dataclass(frozen=True)
class SampledCurve:
    """Closed curve phi_r(e^{it}) sampled on a strictly increasing angle grid."""

    angles: np.ndarray
    points: np.ndarray
    evaluator: Callable | None = None

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=float)
        pts = np.asarray(self.points, dtype=complex)
        if ang.ndim != 1 or ang.shape != pts.shape or ang.size < 3:
            raise RangeError("curve needs matching 1-D angle/point arrays with >= 3 samples")
        if np.any(np.diff(ang) <= 0) or ang[0] < 0 or ang[-1] >= 2 * np.pi:
            raise RangeError("angles must be strictly increasing inside [0, 2*pi)")
        if not np.all(np.isfinite(pts.view(float))):
            raise RangeError("curve points must be finite")
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "points", pts)

    @property
    def refinable(self) -> bool:
        return self.evaluator is not None

    @classmethod
    def from_symbol(cls, sym: FourierSymbol, r: float, n: int = 1024) -> "SampledCurve":
        """Sample the curve of phi_r; r = 1 needs an exact finite-band symbol."""
        if not 0.0 < r <= 1.0:
            raise RangeError(f"curve radius must lie in (0,1], got {r}")
        if r == 1.0 and not sym.is_finite_band:
            raise TailError("r = 1 curves need an exact finite-band symbol")

        def evaluate(thetas):
            return np.asarray(_eval_extension(sym, r * np.exp(1j * np.asarray(thetas))),
                              dtype=complex)

        ang = np.arange(n) * (2 * np.pi / n)
        return cls(ang, evaluate(ang), evaluate)

    def refine_to_chord(self, target: float) -> "SampledCurve":
        """Uniformly double the sampling until every chord is below target."""
        curve = self
        while curve.points.size < _MAX_CURVE_POINTS:
            closed = np.append(curve.points, curve.points[0])
            if np.max(np.abs(np.diff(closed))) <= target:
                break
            if not curve.refinable:
                break
            n = 2 * curve.angles.size
            ang = np.arange(n) * (2 * np.pi / n)
            curve = SampledCurve(ang, curve.evaluator(ang), curve.evaluator)
        return curve


def winding(curve: SampledCurve, lam: complex, eps: float) -> int:
    """Winding number of the curve around lam by argument accumulation.

    Segments are bisected until every argument increment is below pi/2;
    the accumulated total must land within 1e-6 of an integer.  If sampling
    comes within eps of lam the winding is declared undefined.
    """
    if eps <= 0:
        raise RangeError("separation eps must be positive")
    ang = np.append(curve.angles, curve.angles[0] + 2 * np.pi)
    pts = np.append(curve.points, curve.points[0])
    for _ in range(_MAX_REFINE_PASSES):
        if np.min(np.abs(pts - lam)) <= eps:
            raise WindingUndefined(
                f"curve samples come within {eps:g} of lambda = {lam}")
        rel = pts - lam
        inc = np.angle(rel[1:] / rel[:-1])
        bad = np.abs(inc) >= np.pi / 2
        if not bad.any():
            total = float(np.sum(inc))
            w = total / (2 * np.pi)
            nearest = round(w)
            if abs(w - nearest) > 1e-6:
                raise NonIntegerError(
                    f"winding total {w} is not within 1e-6 of an integer")
            return int(nearest)
        if not curve.refinable or pts.size > _MAX_CURVE_POINTS:
            raise NonIntegerError("curve under-resolved and not refinable")
        idx = np.flatnonzero(bad)
        mid = (ang[idx] + ang[idx + 1]) / 2
        vals = np.asarray(curve.evaluator(np.mod(mid, 2 * np.pi)), dtype=complex)
        ang = np.insert(ang, idx + 1, mid)
        pts = np.insert(pts, idx + 1, vals)
    raise NonIntegerError("bisection limit reached without resolving the curve")


# -- multiplicity grids --------------------------------------------------------------

@dataclass(frozen=True)
class MultiplicityGrid:
    """Integer raster of the signed multiplicity over a rectangle.

    ``values[j, i]`` belongs to the cell center (centers_x[i], centers_y[j]);
    invalid cells (curve within eps of the center) carry no value and are
    stored as 0 with the mask set.
    """

    grid: GridSpec
    values: np.ndarray
    invalid: np.ndarray
    eps: float
    r_used: float
    curve_points: int
    tail_bound: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int64)
        mask = np.asarray(self.invalid, dtype=bool)
        shape = (self.grid.ny, self.grid.nx)
        if vals.shape != shape or mask.shape != shape:
            raise RangeError(f"value/mask arrays must have shape {shape}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "invalid", mask)

    @property
    def masked_area_fraction(self) -> float:
        return float(np.mean(self.invalid))

    def value_at(self, w: complex):
        """Integer multiplicity of the cell containing w; None if invalid/outside."""
        loc = self.grid.locate(w)
        if loc is None or self.invalid[loc]:
            return None
        return int(self.values[loc])

    def masked_values(self) -> np.ndarray:
        """Values with invalid cells zeroed, for quadrature."""
        return np.where(self.invalid, 0, self.values)

    def to_csv(self) -> str:
        g = self.grid
        lines = [
            f"# box=({g.x0:.17g},{g.x1:.17g},{g.y0:.17g},{g.y1:.17g}) nx={g.nx} ny={g.ny}"
            f" r={self.r_used:.17g} eps={self.eps:.17g} tail_bound={self.tail_bound:.17g}",
            "x,y,value,valid",
        ]
        cx, cy = g.centers_x(), g.centers_y()
        for j in range(g.ny):
            for i in range(g.nx):
                bad = self.invalid[j, i]
                val = "" if bad else str(int(self.values[j, i]))
                lines.append(f"{cx[i]:.17g},{cy[j]:.17g},{val},{0 if bad else 1}")
        return "\n".join(lines) + "\n"


def _polygon_windings(pts: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Exact winding numbers of a closed polygon around every grid center.

    Per row, edges crossing the horizontal line are collected with their
    crossing abscissae and orientations; the winding at a center is the
    signed count of crossings strictly to its right (ray casting).
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


def _proximity_mask(pts: np.ndarray, grid: GridSpec, eps: float) -> np.ndarray:
    """Cells whose center lies within eps of some curve sample."""
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    cx, cy = grid.centers_x(), grid.centers_y()
    px, py = pts.real, pts.imag
    vi = np.floor((px - grid.x0) / grid.hx - 0.5).astype(int)
    vj = np.floor((py - grid.y0) / grid.hy - 0.5).astype(int)
    ri = int(np.ceil(eps / grid.hx)) + 1
    rj = int(np.ceil(eps / grid.hy)) + 1
    for dj in range(-rj, rj + 2):
        jj = vj + dj
        okj = (jj >= 0) & (jj < grid.ny)
        if not np.any(okj):
            continue
        for di in range(-ri, ri + 2):
            ii = vi + di
            ok = okj & (ii >= 0) & (ii < grid.nx)
            if not np.any(ok):
                continue
            d2 = (cx[ii[ok]] - px[ok]) ** 2 + (cy[jj[ok]] - py[ok]) ** 2
            hit = d2 <= eps * eps
            if np.any(hit):
                mask[jj[ok][hit], ii[ok][hit]] = True
    return mask


def multiplicity_grid(sym: FourierSymbol, r: float, grid: GridSpec,
                      eps: float | None = None,
                      curve: SampledCurve | None = None) -> MultiplicityGrid:
    """Signed multiplicity m_{Phi_r} on every valid cell center.

    Valid cells carry the winding of the sampled curve of phi_r around the
    cell center; cells within eps (default: twice the cell diagonal) of the
    curve are masked invalid rather than aborting the grid.
    """
    if not 0.0 < r <= 1.0:
        raise RangeError(f"radius must lie in (0,1], got {r}")
    if r == 1.0 and not sym.is_finite_band:
        raise TailError("m_Phi at r = 1 needs an exact finite-band symbol")
    if eps is None:
        eps = 2.0 * grid.cell_diag
    if curve is None:
        curve = SampledCurve.from_symbol(sym, r)
    target = min(grid.hx, grid.hy) / 4.0
    curve = curve.refine_to_chord(min(target, eps / 2.0))
    pts = curve.points
    values = _polygon_windings(pts, grid.centers_x(), grid.centers_y())
    invalid = _proximity_mask(pts, grid, eps)
    values = np.where(invalid, 0, values)
    return MultiplicityGrid(grid, values, invalid, eps, r, pts.size, sym.tail_bound)


# -- preimage counting oracle ----------------------------------------------------------

_NEWTON_ITERS = 60
_DEDUP_TOL = 1e-6
_JTOL = 1e-8


def _newton_roots(sym: FourierSymbol, r: float, w: complex, depth: int) -> list[complex]:
    """Deduplicated interior solutions of Phi(z) = w from a subdivision grid."""
    g = 1 << depth
    step = 2.0 * r / g
    line = -r + (np.arange(g) + 0.5) * step
    zz = (line[None, :] + 1j * line[:, None]).ravel()
    z = zz[np.abs(zz) < r].astype(complex)
    if z.size == 0:
        return []
    active = np.ones(z.size, dtype=bool)
    for _ in range(_NEWTON_ITERS):
        e = _eval_extension(sym, z) - w
        if np.all(np.abs(e[active]) < 1e-12 * (1 + abs(w))):
            break
        p, q = _wirtinger(sym, z)
        det = np.abs(p) ** 2 - np.abs(q) ** 2
        ok = active & (np.abs(det) > 1e-14 * (np.abs(p) ** 2 + np.abs(q) ** 2 + 1))
        delta = np.zeros_like(z)
        delta[ok] = (-e[ok] * np.conj(p[ok]) + q[ok] * np.conj(e[ok])) / det[ok]
        step_ok = ok & np.isfinite(delta) & (np.abs(delta) < 10.0)
        z = np.where(step_ok, z + delta, z)
        active = step_ok
    resid = np.abs(_eval_extension(sym, z) - w)
    conv = (resid < 1e-10 * (1 + abs(w))) & (np.abs(z) < r * (1 - 1e-9))
    roots = sorted(z[conv], key=lambda c: (c.real, c.imag))
    unique: list[complex] = []
    for root in roots:
        if all(abs(root - u) > _DEDUP_TOL for u in unique):
            unique.append(complex(root))
    return unique


def _match_roots(a: list[complex], b: list[complex]) -> bool:
    if len(a) != len(b):
        return False
    return all(min((abs(x - y) for y in b), default=np.inf) < 10 * _DEDUP_TOL for x in a)


def preimage_multiplicity(sym: FourierSymbol, r: float, w: complex,
                          depth: int = 6) -> int:
    """sum of sgn J(Phi) over solutions of Phi(z) = w with |z| < r.

    Newton iterations are launched from progressively finer subdivisions of
    the disk until two consecutive depths produce the same root set; roots
    with |J| below 1e-8 are rejected as degenerate.  This is the independent
    oracle for `multiplicity_grid`.
    """
    if not 0.0 < r <= 1.0:
        raise RangeError(f"radius must lie in (0,1], got {r}")
    if not sym.is_finite_band:
        raise TailError("preimage counting needs an exact finite-band symbol")
    if depth < 3:
        raise RangeError("subdivision depth must be >= 3")
    prev = None
    roots = []
    for d in range(max(3, depth - 2), depth + 1):
        roots = _newton_roots(sym, r, w, d)
        if prev is not None and _match_roots(prev, roots):
            break
        prev = roots
    else:
        raise NoConvergence(f"root set at w = {w} did not stabilize by depth {depth}")
    total = 0
    for root in roots:
        jac = float(_jacobian(sym, root))
        if abs(jac) < _JTOL:
            raise DegenerateRoot(f"|J| = {abs(jac):g} below tolerance at root {root}")
        total += 1 if jac > 0 else -1
    return total


# -- the coarse/fine density pair and the r -> 1 probe -----------------------------

@dataclass(frozen=True)
class MeasureDensity:
    """Complex raster of the measure density (1/2 pi i) * m over a box.

    ``values[j, i] = m[j, i] / (2 pi i)`` on valid cells of the coarse grid
    and 0 on masked ones.  The optional doubled-resolution companion ``fine``
    turns every integral into the Richardson pair 2*fine - coarse, which
    removes the O(h) bias of the curve-proximity mask; without it the coarse
    midpoint sum is reported as is.
    """

    grid: MultiplicityGrid
    fine: MultiplicityGrid | None = None

    @classmethod
    def build(cls, sym: FourierSymbol, r: float, grid: GridSpec,
              eps: float | None = None, refine: bool = True) -> "MeasureDensity":
        """Rasterize phi_r on grid and, if refine, on its halving with eps / 2."""
        coarse = multiplicity_grid(sym, r, grid, eps)
        fine = None
        if refine:
            fine = multiplicity_grid(sym, r, grid.refined(),
                                     None if eps is None else eps / 2.0)
        return cls(coarse, fine)

    @cached_property
    def values(self) -> np.ndarray:
        return self.grid.masked_values() / (2j * np.pi)

    @property
    def masked_area_fraction(self) -> float:
        return self.grid.masked_area_fraction

    def value_at(self, w: complex):
        m = self.grid.value_at(w)
        if m is None:
            return None
        return complex(m / (2j * np.pi))

    def _richardson(self, integral):
        coarse = integral(self.grid)
        if self.fine is None:
            return coarse, coarse, coarse
        fine = integral(self.fine)
        return 2 * fine - coarse, coarse, fine

    def moment(self, weight, coarse_weight: np.ndarray | None = None) -> tuple:
        """(extrapolated, coarse, fine) of (1/2 pi i) int weight(x, y) m dxdy.

        ``coarse_weight`` is weight already evaluated on the coarse mesh, for
        callers that need those values too.
        """
        def midpoint(mg: MultiplicityGrid) -> complex:
            if mg is self.grid and coarse_weight is not None:
                wvals = coarse_weight
            else:
                wvals = weight(*mg.grid.mesh())
            tot = float(np.sum(wvals * mg.masked_values()))
            return complex(tot * mg.grid.cell_area / (2j * np.pi))
        return self._richardson(midpoint)

    def tv(self) -> tuple:
        """(extrapolated, coarse, fine) of the total variation int |m| / 2 pi."""
        return self._richardson(lambda mg: float(np.sum(np.abs(mg.masked_values())))
                                * mg.grid.cell_area / (2 * np.pi))


@dataclass(frozen=True)
class MomentProbe:
    """Convergence diagnostics for grid moments along increasing radii."""

    r_values: tuple
    moments: np.ndarray          # (n_r, n_poly) extrapolated values
    moments_raw: np.ndarray      # (n_r, n_poly, 2) coarse/fine midpoint sums
    successive_diffs: np.ndarray  # (n_r - 1, n_poly) |moment_{i+1} - moment_i|
    masked_fractions: tuple
    tail_bound: float


def multiplicity_limit_probe(sym: FourierSymbol, r_list, test_polys,
                             grid: GridSpec, eps: float | None = None) -> MomentProbe:
    """Moments (1/2 pi i) int p(x,y) m_{Phi_r} dxdy along increasing radii.

    Reports Cauchy diagnostics only; no limit value is claimed.  Fails if
    more than 10% of the box is masked at any radius.
    """
    r_values = tuple(float(r) for r in r_list)
    if not r_values or any(b <= a for a, b in zip(r_values, r_values[1:])):
        raise RangeError("r_list must be nonempty and strictly increasing")
    if r_values[-1] >= 1.0:
        raise RangeError("probe radii must stay strictly below 1")
    polys = list(test_polys)
    moments = np.zeros((len(r_values), len(polys)), dtype=complex)
    raw = np.zeros((len(r_values), len(polys), 2), dtype=complex)
    fractions = []
    for i, r in enumerate(r_values):
        pair = MeasureDensity.build(sym, r, grid, eps)
        if pair.masked_area_fraction > 0.10:
            raise MaskCoverageError(
                f"{100 * pair.masked_area_fraction:.1f}% of the box is masked at r={r}")
        fractions.append(pair.masked_area_fraction)
        for k, p in enumerate(polys):
            moments[i, k], coarse, fine = pair.moment(p)
            raw[i, k] = (coarse, fine)
    diffs = np.abs(np.diff(moments, axis=0))
    return MomentProbe(r_values, moments, raw, diffs, tuple(fractions), sym.tail_bound)
