"""Winding numbers and signed multiplicity grids of symbol curves.

Two independent routes to the same integers:

* `winding` accumulates argument increments along an adaptively refined
  curve (the classical argument principle), one query point at a time.
* `multiplicity_grid` rasterizes the winding number over a whole grid with
  an exact crossing-count sweep driven by the polygon's edges: each edge is
  expanded into the grid rows it crosses, the crossing orientations go into
  a per-row difference array, and one reverse cumulative sum turns them into
  windings.  The result is deterministic and integer-exact with respect to
  the sampled polygon, and its cost grows with the crossings and the cells,
  not with rows times edges.  Cells within eps of a curve sample are masked
  by testing a fixed table of cell offsets around every sample.
* `preimage_multiplicity` counts disk preimages with Jacobian signs and
  serves as the oracle for the degree identity wind(phi, w) = sum sgn J
  over preimages.  An exclusion quadtree discards every square on which the
  coefficient-sum Lipschitz bound of Phi proves that w is not attained; if
  no square survives, the count is 0 by proof, and otherwise Newton runs
  only from the centres of the surviving squares.

This module owns the curves, the winding numbers, the rasters and the
preimage oracle; the density m / (2 pi i) built from the rasters, and every
integral over it, live in `measure`.  Grid cells are independent, so
per-cell evaluation may run concurrently; all outputs are pure functions of
their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (DegenerateRoot, NoConvergence, NonIntegerError, RangeError,
                     TailError, WindingUndefined)
from .symbols import _MAX_BAND, FourierSymbol, _eval_extension, _jacobian, _wirtinger

_MAX_REFINE_PASSES = 48
_MAX_CURVE_POINTS = 2 * _MAX_BAND


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
        """Uniformly double the sampling until every chord is below target.

        Raises NonIntegerError when the chord target is out of reach: the
        curve cannot be refined, or doubling would pass _MAX_CURVE_POINTS.
        """
        curve = self
        while True:
            closed = np.append(curve.points, curve.points[0])
            chord = float(np.max(np.abs(np.diff(closed))))
            if chord <= target:
                return curve
            if not curve.refinable or curve.points.size >= _MAX_CURVE_POINTS:
                raise NonIntegerError(
                    f"curve under-resolved: max chord {chord:g} above target {target:g}"
                    f" at {curve.points.size} points"
                    + ("" if curve.refinable else " and the curve is not refinable"))
            n = 2 * curve.angles.size
            ang = np.arange(n) * (2 * np.pi / n)
            curve = SampledCurve(ang, curve.evaluator(ang), curve.evaluator)


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
    stored as 0 with the mask set.  ``curve`` is the refined curve the raster
    was made from, if known.
    """

    grid: GridSpec
    values: np.ndarray
    invalid: np.ndarray
    eps: float
    curve_points: int
    curve: SampledCurve | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int64)
        mask = np.asarray(self.invalid, dtype=bool)
        shape = (self.grid.ny, self.grid.nx)
        if vals.shape != shape or mask.shape != shape:
            raise RangeError(f"value/mask arrays must have shape {shape}")
        if np.any(vals[mask]):
            raise RangeError("invalid cells must store the value 0")
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


def _polygon_windings(pts: np.ndarray, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Exact winding numbers of a closed polygon around every grid center.

    Ray casting to the right, driven by edges: an edge crosses the rows whose
    center line lies in its half-open span [min(y1, y2), max(y1, y2)), which
    two `searchsorted` calls find.  Each (edge, row) crossing adds its
    orientation to a per-row difference array at the last cell center left
    of the crossing abscissa; a reverse cumulative sum along each row then
    gives the signed count of crossings strictly to the right of every center.
    """
    x1, y1 = pts.real, pts.imag
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    first = np.searchsorted(cy, np.minimum(y1, y2), "left")
    count = np.searchsorted(cy, np.maximum(y1, y2), "left") - first
    edge = np.repeat(np.arange(pts.size), count)
    # the crossing's row: its edge's first row plus its rank among that edge's crossings
    row = np.arange(edge.size) + np.repeat(first - (np.cumsum(count) - count), count)
    ex, ey = x1[edge], y1[edge]
    t = (cy[row] - ey) / (y2[edge] - ey)
    xs = ex + t * (x2[edge] - ex)
    # k centers lie strictly left of the crossing; k = 0 counts for none
    k = np.searchsorted(cx, xs, "left")
    right = k > 0
    out = np.zeros((cy.size, cx.size), dtype=np.int64)
    np.add.at(out, (row[right], k[right] - 1), np.where(y2 > y1, 1, -1)[edge[right]])
    rev = out[:, ::-1]
    np.cumsum(rev, axis=1, out=rev)
    return out


def _proximity_mask(pts: np.ndarray, grid: GridSpec, eps: float) -> np.ndarray:
    """Cells whose center lies within eps of some curve sample.

    Each sample tests a fixed table of (row, column) offsets from the cell
    center just below and left of it: with kx = ceil(eps / hx), column
    offsets -kx .. kx + 1 (every center outside lies at least one cell width
    beyond eps), and likewise for rows.  The squared distances along x and
    along y are computed once per column and per row offset, and hits are
    written into a flat array padded by the table's reach, so no offset needs
    a bounds check; the padding is cropped at the end.

    Every squared distance tested is at most 2 * (eps + 2 * cell width)^2.
    Raises RangeError when twice that overflows, since inf <= inf would mask
    cells at any distance.
    """
    reach = eps + 2.0 * max(grid.hx, grid.hy)
    if not np.isfinite(4.0 * reach * reach):
        raise RangeError(f"squared distances overflow: eps {eps:g} and cell size"
                         f" {max(grid.hx, grid.hy):g} are too large for the proximity mask")
    kx = int(np.ceil(eps / grid.hx))
    ky = int(np.ceil(eps / grid.hy))
    u = (pts.real - grid.x0) / grid.hx - 0.5
    v = (pts.imag - grid.y0) / grid.hy - 0.5
    # samples whose offset window meets the grid
    near = (u >= -kx - 1) & (u < grid.nx + kx) & (v >= -ky - 1) & (v < grid.ny + ky)
    px, py = pts.real[near], pts.imag[near]
    padx, pady = 2 * kx + 1, 2 * ky + 1
    width = grid.nx + 2 * padx
    vi = np.floor(u[near]).astype(np.int64) + padx
    vj = np.floor(v[near]).astype(np.int64) + pady
    # padded centers; the unpadded ones are bit-identical to centers_x/centers_y
    cx = grid.x0 + (np.arange(-padx, grid.nx + padx) + 0.5) * grid.hx
    cy = grid.y0 + (np.arange(-pady, grid.ny + pady) + 0.5) * grid.hy
    cols = range(-kx, kx + 2)
    dx2 = [(cx[vi + di] - px) ** 2 for di in cols]
    base = vj * width + vi
    flat = np.zeros((grid.ny + 2 * pady) * width, dtype=bool)
    e2 = eps * eps
    for dj in range(-ky, ky + 2):
        dy2 = (cy[vj + dj] - py) ** 2
        for di, ddx in zip(cols, dx2):
            flat[base[ddx + dy2 <= e2] + (dj * width + di)] = True
    return flat.reshape(-1, width)[pady:pady + grid.ny, padx:padx + grid.nx]


def multiplicity_grid(sym: FourierSymbol, r: float, grid: GridSpec,
                      curve: SampledCurve | None = None) -> MultiplicityGrid:
    """Signed multiplicity m_{Phi_r} on every valid cell center.

    Valid cells carry the winding of the sampled curve of phi_r around the
    cell center; cells within eps = twice the cell diagonal of the curve are
    masked invalid rather than aborting the grid.  The curve is refined until
    every chord is below a quarter of the smaller cell side; ``curve``, if
    given, is the sampling of phi_r to start the refinement from.
    """
    if not 0.0 < r <= 1.0:
        raise RangeError(f"radius must lie in (0,1], got {r}")
    if r == 1.0 and not sym.is_finite_band:
        raise TailError("m_Phi at r = 1 needs an exact finite-band symbol")
    eps = 2.0 * grid.cell_diag
    if curve is None:
        curve = SampledCurve.from_symbol(sym, r)
    curve = curve.refine_to_chord(min(grid.hx, grid.hy) / 4.0)
    pts = curve.points
    values = _polygon_windings(pts, grid.centers_x(), grid.centers_y())
    invalid = _proximity_mask(pts, grid, eps)
    values[invalid] = 0
    return MultiplicityGrid(grid, values, invalid, eps, pts.size, curve)


# -- preimage counting oracle ----------------------------------------------------------

_NEWTON_ITERS = 60
_DEDUP_TOL = 1e-6
_JTOL = 1e-8
_DEPTH = 6  # quadtree levels below [-r, r]^2
_SQRT2 = float(np.sqrt(2.0))
_CHILD_DI = np.array([0, 1, 0, 1])
_CHILD_DJ = np.array([0, 0, 1, 1])


def _variation_bound(sym: FourierSymbol, c: np.ndarray, h: float, w: complex) -> np.ndarray:
    """Bound on |Phi(z) - Phi(c)| over the square of centre c and half-width h.

    Every z of the square lies within sqrt2*h of c, and the segment from c
    to z within rho = |c| + sqrt2*h of the origin, where |F'| + |G'| is at
    most L(rho) = sum_{k>=1} k (|F_k| + |G_k|) rho^(k-1).  So the variation
    is at most sqrt2*h*L(rho); a relative 1e-12 of |w| and of the
    coefficient sum at rho is added for the rounding in Phi(c) - w.
    """
    fa, fd, ga, gd = sym._split
    rho = np.abs(c) + _SQRT2 * h
    lip = npoly.polyval(rho, np.abs(fd)) + npoly.polyval(rho, np.abs(gd))
    size = npoly.polyval(rho, np.abs(fa)) + npoly.polyval(rho, np.abs(ga))
    return _SQRT2 * h * lip + 1e-12 * (1 + abs(w) + size)


def _quadtree_starts(sym: FourierSymbol, r: float, w: complex):
    """Centres of the squares at levels _DEPTH - 1 and _DEPTH that may hold a preimage.

    Level l tiles [-r, r]^2 by 4^l squares of half-width r / 2^l, whose
    centres are those of the 2^l x 2^l lattice.  Each level splits the
    squares the previous one kept and drops every child that lies wholly
    outside the disk or whose value at the centre is further from w than
    `_variation_bound`: such a square holds no preimage.  Returns None when
    a level keeps no square, which proves that w has no preimage.
    """
    i = j = np.zeros(1, dtype=np.int64)
    kept = []
    for level in range(_DEPTH + 1):
        if level:
            i = (2 * i[:, None] + _CHILD_DI).ravel()
            j = (2 * j[:, None] + _CHILD_DJ).ravel()
        step = 2.0 * r / (1 << level)
        h = step / 2.0
        c = (-r + (i + 0.5) * step) + 1j * (-r + (j + 0.5) * step)
        keep = ((np.abs(c) - _SQRT2 * h < r)
                & (np.abs(_eval_extension(sym, c) - w) <= _variation_bound(sym, c, h, w)))
        if not keep.any():
            return None
        i, j = i[keep], j[keep]
        kept.append(c[keep])
    return kept[-2], kept[-1]


def _newton_roots(sym: FourierSymbol, r: float, w: complex, z: np.ndarray,
                  cap: int) -> list[complex]:
    """Deduplicated interior solutions of Phi(z) = w reached by Newton from z.

    More than cap distinct roots means the preimage set is not discrete,
    and raises DegenerateRoot.
    """
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
            if len(unique) == cap:
                raise DegenerateRoot(f"preimage set is not discrete: more than {cap}"
                                     f" distinct solutions of Phi(z) = {w}")
            unique.append(complex(root))
    return unique


def _match_roots(a: list[complex], b: list[complex]) -> bool:
    if len(a) != len(b):
        return False
    return all(min((abs(x - y) for y in b), default=np.inf) < 10 * _DEDUP_TOL for x in a)


def preimage_multiplicity(sym: FourierSymbol, r: float, w: complex) -> int:
    """sum of sgn J(Phi) over solutions of Phi(z) = w with |z| < r.

    An exclusion quadtree of _DEPTH levels below [-r, r]^2 drops every square
    that provably holds no preimage: the square misses the disk, or
    |Phi(c) - w| exceeds the variation bound sqrt2*h*L(rho) of Phi over it
    (see `_variation_bound`).  If some level keeps no square, the count is
    0 by proof.  Otherwise Newton runs from the centres kept at the last two
    levels, and the two root sets must agree.  A harmonic polynomial
    F + conj(G) with n = max(deg F, deg G) has at most n^2 isolated
    solutions (Bezout; Wilmshurst 1998), so a larger root set raises
    DegenerateRoot, as does a root with |J| below 1e-8.  This is the
    independent oracle for `multiplicity_grid`.
    """
    if not 0.0 < r <= 1.0:
        raise RangeError(f"radius must lie in (0,1], got {r}")
    if not sym.is_finite_band:
        raise TailError("preimage counting needs an exact finite-band symbol")
    starts = _quadtree_starts(sym, r, w)
    if starts is None:
        return 0
    fa, _, ga, _ = sym._split
    cap = (max(fa.size, ga.size) - 1) ** 2
    coarse, roots = (_newton_roots(sym, r, w, z, cap) for z in starts)
    if not _match_roots(coarse, roots):
        raise NoConvergence(f"root sets at w = {w} differ between quadtree levels"
                            f" {_DEPTH - 1} and {_DEPTH}")
    total = 0
    for root in roots:
        jac = float(_jacobian(sym, root))
        if abs(jac) < _JTOL:
            raise DegenerateRoot(f"|J| = {abs(jac):g} below tolerance at root {root}")
        total += 1 if jac > 0 else -1
    return total
