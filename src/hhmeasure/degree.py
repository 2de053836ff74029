"""Winding numbers and signed multiplicity grids of symbol curves.

A `SampledCurve` is phi_r(e^{it}) of one symbol and radius at n uniform
angles; its `evaluate` samples the start curve, the chord refinement and the
bisection in `winding`.  Two independent routes lead to the same integers:

* `winding` accumulates argument increments along an adaptively refined
  curve (the classical argument principle), one query point at a time.
* `multiplicity_grid` rasterizes the winding number over a whole grid with
  `_coverage`, the accumulation rasterizer of font renderers: each edge is
  cut at the grid lines, its pieces deposit their signed heights into the
  cells they meet and the next ones along their rows, and a running sum
  over each row's touched cells gives every cell's exact average winding
  of the sampled polygon, constant from one touched cell to the next.  So
  the float work scales with the curve, not the grid, and the integers are
  filled in runs.  Cells within eps of a curve sample are masked by
  testing a fixed table of cell offsets around every sample; no edge
  enters any other cell, so there the average is the integer winding up
  to rounding, and the raster stores it rounded.  The masked cells keep
  their averages, which the moments and the total variation in `measure`
  read.
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
from functools import cached_property

import numpy as np

from .errors import (DegenerateRoot, NoConvergence, NonFiniteError, NonIntegerError,
                     RangeError, TailError, WindingUndefined)
from .symbols import (_MAX_BAND, FourierSymbol, _eval_extension, _horner, _jacobian,
                      _wirtinger)

_MAX_REFINE_PASSES = 48
_MAX_CURVE_POINTS = 2 * _MAX_BAND
_INT32 = np.iinfo(np.int32)
_MAX_MASK_OFFSETS = 1 << 16  # (row, column) offsets the proximity mask tests per sample
_START_POINTS = 1024  # samples of a start curve, before chord refinement


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
        if not (self.hx > 0 and self.hy > 0):
            raise RangeError("grid cells must have positive size")
        # finite bounds can still overflow their difference, and so hx and hy,
        # and finite cell sides their diagonal
        with np.errstate(over="ignore"):
            sizes = (self.x1 - self.x0, self.y1 - self.y0, self.cell_diag)
        if not np.all(np.isfinite(sizes)):
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

    def centers_x(self) -> np.ndarray:
        return self.x0 + (np.arange(self.nx) + 0.5) * self.hx

    def centers_y(self) -> np.ndarray:
        return self.y0 + (np.arange(self.ny) + 0.5) * self.hy

    def mesh(self) -> tuple:
        """(x, y) of every cell center, each of shape (ny, nx)."""
        return np.meshgrid(self.centers_x(), self.centers_y())

    def locate(self, w: complex):
        """(row, col) of the cell containing w, or None if outside the box.

        The cell coordinates are compared as floats before any conversion,
        so a far, infinite or NaN w lies outside instead of overflowing.
        """
        w = complex(w)
        u = (w.real - self.x0) / self.hx
        v = (w.imag - self.y0) / self.hy
        if 0 <= u < self.nx and 0 <= v < self.ny:
            return int(v), int(u)
        return None

    def to_dict(self) -> dict:
        return {"x0": self.x0, "x1": self.x1, "y0": self.y0, "y1": self.y1,
                "nx": self.nx, "ny": self.ny}


def default_grid(sym: FourierSymbol, n: int = 400) -> GridSpec:
    """Square box of half-width sum|c(k)| + tail + 0.5, covering sigma(T_phi)."""
    half = sym.one_norm() + sym.tail_bound + 0.5
    return GridSpec(-half, half, -half, half, n, n)


# -- sampled curves ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampledCurve:
    """The curve phi_r(e^{it}) of sym, sampled at the n uniform angles 2 pi k / n.

    The constructor is the one place that checks 0 < r <= 1 and, at r = 1,
    an exact finite-band symbol.  Points beyond the float range are rejected
    as non-finite, here and by `winding`, without a numpy warning.
    """

    sym: FourierSymbol
    r: float
    points: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.r <= 1.0:
            raise RangeError(f"curve radius must lie in (0,1], got {self.r}")
        if self.r == 1.0 and not self.sym.is_finite_band:
            raise TailError("r = 1 curves need an exact finite-band symbol")
        pts = np.ascontiguousarray(self.points, dtype=complex)
        if pts.ndim != 1 or pts.size < 3:
            raise RangeError("curve needs a 1-D point array with >= 3 samples")
        if not np.all(np.isfinite(pts.view(float))):
            raise RangeError("curve points must be finite")
        object.__setattr__(self, "points", pts)

    @cached_property
    def angles(self) -> np.ndarray:
        n = self.points.size
        return np.arange(n) * (2 * np.pi / n)

    def evaluate(self, thetas) -> np.ndarray:
        """phi_r(e^{i theta}) at each angle, computed alone; overflow gives inf or nan, unwarned."""
        with np.errstate(over="ignore", invalid="ignore"):
            return np.asarray(_eval_extension(self.sym, self.r * np.exp(1j * np.asarray(thetas))),
                              dtype=complex)

    @classmethod
    def from_symbol(cls, sym: FourierSymbol, r: float, n: int = _START_POINTS) -> "SampledCurve":
        """Sample the curve of phi_r at n uniform angles."""
        blank = cls(sym, r, np.zeros(n, dtype=complex))  # checks sym and r before sampling
        return cls(sym, r, blank.evaluate(blank.angles))

    def refine_to_chord(self, target: float) -> "SampledCurve":
        """Uniformly double the sampling until every chord is below target.

        Each doubling to n points evaluates only the odd angles k * 2 pi / n
        and keeps the current points as the even ones: the even angles
        2k * (2 pi / n) equal k * (2 pi / (n / 2)) exactly, since halving n
        halves 2 pi / n exactly, and `evaluate` works one angle at a time,
        so the result is bit-identical to sampling all n angles afresh.

        A doubling splits each chord into two of total length at least its
        own, so it at most halves the longest chord.  NonIntegerError is
        raised at once when the chord exceeds 2^d (1 + 1e-9) times the target,
        d the doublings left before _MAX_CURVE_POINTS (the margin covers the
        rounding of the lengths), and when the cap is reached.
        """
        curve = self
        while True:
            n = curve.points.size
            closed = np.append(curve.points, curve.points[0])
            chord = float(np.max(np.abs(np.diff(closed))))
            if chord <= target:
                return curve
            left = (-(-_MAX_CURVE_POINTS // n) - 1).bit_length()  # ceil(log2(cap / n))
            if left == 0 or chord > target * 2.0 ** left * (1 + 1e-9):
                raise NonIntegerError(
                    f"curve under-resolved: max chord {chord:g} above target {target:g}"
                    f" at {n} points")
            pts = np.empty(2 * n, dtype=complex)
            pts[0::2] = curve.points
            pts[1::2] = curve.evaluate(np.arange(1, 2 * n, 2) * (2 * np.pi / (2 * n)))
            curve = SampledCurve(curve.sym, curve.r, pts)


def winding(curve: SampledCurve, lam: complex, eps: float) -> int:
    """Winding number of the curve around lam by argument accumulation.

    Segments are bisected until every argument increment is below pi/2,
    at most up to _MAX_CURVE_POINTS samples; the accumulated total must
    land within 1e-6 of an integer.  If sampling comes within eps of lam the
    winding is declared undefined.

    When some |pts - lam| reaches 2^1020, the quotients of the increments
    could overflow, so the differences are taken again from pts and lam
    scaled by 1/16, which brings every difference below 2^1021 and, being a
    power of two, leaves the increments as they are.
    """
    if not eps > 0:
        raise RangeError("separation eps must be positive")
    ang = np.append(curve.angles, 2 * np.pi)
    pts = np.append(curve.points, curve.points[0])
    for _ in range(_MAX_REFINE_PASSES):
        scale = 1.0
        with np.errstate(over="ignore"):
            rel = pts - lam
            dist = np.abs(rel)
        if not np.max(dist) < 2.0 ** 1020:
            scale = 1.0 / 16
            # scaled as floats: a complex product by scale would flip signed zeros
            rel = ((pts.view(float) * scale).view(complex)
                   - complex(lam.real * scale, lam.imag * scale))
            dist = np.abs(rel)
        if np.min(dist) <= eps * scale:
            raise WindingUndefined(
                f"curve samples come within {eps:g} of lambda = {lam}")
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
        if pts.size > _MAX_CURVE_POINTS:
            raise NonIntegerError(f"curve under-resolved: bisection passed"
                                  f" {_MAX_CURVE_POINTS} points around lambda = {lam}")
        idx = np.flatnonzero(bad)
        mid = (ang[idx] + ang[idx + 1]) / 2
        vals = curve.evaluate(np.mod(mid, 2 * np.pi))
        if not np.all(np.isfinite(vals.view(float))):
            raise RangeError("curve points must be finite")
        ang = np.insert(ang, idx + 1, mid)
        pts = np.insert(pts, idx + 1, vals)
    raise NonIntegerError("bisection limit reached without resolving the curve")


# -- multiplicity grids --------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MultiplicityGrid:
    """Integer raster of the signed multiplicity over a rectangle.

    ``values[j, i]`` belongs to the cell center (centers_x[i], centers_y[j]);
    invalid cells (curve within eps of the center) carry no integer and are
    stored as 0 with the mask set.  ``masked_cover`` holds their exact
    average windings, one per invalid cell in row-major order.  ``curve`` is
    the refined curve the raster was made from; eps, twice the cell
    diagonal, and the curve's point count are derived from the grid and the
    curve.

    Values are stored as int32, which holds every winding of a sampled
    curve: |winding| is at most the edge count, and a curve has at most
    _MAX_CURVE_POINTS = 2^18 edges.  An int32 array is kept as is; other
    integer arrays are converted, and values outside the int32 range raise
    RangeError instead of wrapping.
    """

    grid: GridSpec
    values: np.ndarray
    invalid: np.ndarray
    masked_cover: np.ndarray
    curve: SampledCurve = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.dtype != np.int32:
            vals = np.asarray(vals, dtype=np.int64)
            if vals.size and not (_INT32.min <= vals.min() and vals.max() <= _INT32.max):
                raise RangeError("multiplicities must fit in int32")
            vals = vals.astype(np.int32)
        mask = np.asarray(self.invalid, dtype=bool)
        shape = (self.grid.ny, self.grid.nx)
        if vals.shape != shape or mask.shape != shape:
            raise RangeError(f"value/mask arrays must have shape {shape}")
        if np.any(vals[mask]):
            raise RangeError("invalid cells must store the value 0")
        cover = np.asarray(self.masked_cover, dtype=np.float64)
        if cover.shape != (np.count_nonzero(mask),):
            raise RangeError("masked_cover must hold one average per invalid cell")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "invalid", mask)
        object.__setattr__(self, "masked_cover", cover)

    @cached_property
    def eps(self) -> float:
        return 2.0 * self.grid.cell_diag

    @property
    def curve_points(self) -> int:
        return self.curve.points.size

    @property
    def masked_area_fraction(self) -> float:
        return float(np.mean(self.invalid))

    def value_at(self, w: complex):
        """Integer multiplicity of the cell containing w; None if invalid/outside."""
        loc = self.grid.locate(w)
        if loc is None or self.invalid[loc]:
            return None
        return int(self.values[loc])


def _coverage(pts: np.ndarray, grid: GridSpec) -> tuple:
    """Each cell's exact average of the winding number of the closed polygon pts, as row runs.

    The accumulation rasterizer of font renderers, in cell units: every edge
    is cut at the grid lines it crosses, and a piece of signed height dv and
    mean abscissa f within its cell adds -dv (1 - f) to that cell and -dv f to
    the next one of its row; a running sum along each row then gives -dv for
    every cell right of the piece.  Edges must span at most one cell each
    way, as the chords of at most a quarter cell of `multiplicity_grid` do,
    so an edge has at most three pieces; for the same reason clamping the
    vertices to one cell beyond the box moves only edges that lie wholly
    outside it.  Pieces left of the box count in its first column, and
    pieces right of it or outside its rows in none.

    Only pieces of nonzero height are kept, and only the cells they deposit
    into carry float work: each such cell's deposits are summed by
    `bincount` on a compact index, in piece order, and each row's running
    sum is taken over its touched cells alone, as one `cumsum` along the rows
    of a pad as wide as the most touched row (at worst the dense grid).
    Returns (starts, averages): row-major runs of the ny x (nx + 1) cell
    layout, where the run opening at flat index starts[i] holds averages[i]
    up to the next start.  Every row opens with a run of 0.0 at its first
    column, and a run at column nx lies right of the box.

    The averages are bit-identical to those of a dense buffer of every cell,
    filled by the same two `bincount`s and summed by one `cumsum` per row.
    Each touched cell sums the same deposits in the same order, and each row
    adds its touched cells in the same order.  What the dense buffer adds
    besides leaves every sum as it is: a piece of zero height deposits
    +-0.0 and an untouched cell +0.0, and no sum is -0.0, since each one
    starts at +0.0 and a round-to-nearest sum is -0.0 only when both its
    terms are.
    """
    with np.errstate(over="ignore"):  # far vertices are clamped
        u = np.clip((pts.real - grid.x0) / grid.hx, -1.0, grid.nx + 1.0)
        v = np.clip((pts.imag - grid.y0) / grid.hy, -1.0, grid.ny + 1.0)
    du, dv = np.roll(u, -1) - u, np.roll(v, -1) - v
    # the parameter of the one vertical and one horizontal grid line an edge may cross
    tx, ty = (np.clip((np.floor(np.maximum(a, a + d)) - a) / np.where(d != 0, d, 1.0), 0, 1)
              for a, d in ((u, du), (v, dv)))
    t = np.stack([np.zeros_like(u), np.minimum(tx, ty), np.maximum(tx, ty), np.ones_like(u)])
    mid = (t[1:] + t[:-1]) / 2
    um, vm = np.maximum(u + mid * du, 0.0), v + mid * dv
    col, row = np.floor(um), np.floor(vm)
    height = -((t[1:] - t[:-1]) * dv)
    keep = (height != 0) & (row >= 0) & (row < grid.ny) & (col < grid.nx)
    width = grid.nx + 1
    key = (row[keep] * width + col[keep]).astype(np.int64)
    f = (um - col)[keep]
    height = height[keep]
    touched = np.zeros(grid.ny * width, dtype=bool)
    touched[key] = touched[key + 1] = True
    cells = np.flatnonzero(touched)
    at = np.searchsorted(cells, key)  # key + 1 is the next touched cell
    # bincount of no pieces is int64
    acc = np.bincount(at, height * (1 - f), cells.size).astype(np.float64, copy=False)
    acc += np.bincount(at + 1, height * f, cells.size)
    rows = cells // width
    counts = np.bincount(rows, minlength=grid.ny)
    rank = np.arange(cells.size) - (np.cumsum(counts) - counts)[rows]  # within its row
    # one pad row per grid row, its touched cells in order; the trailing zeros are not read
    pad = np.zeros((grid.ny, counts.max()))
    pad[rows, rank] = acc
    np.cumsum(pad, axis=1, out=pad)
    # each row's opening run, then one run per touched cell
    opening = np.cumsum(counts + 1) - (counts + 1)
    run = opening[rows] + rank + 1
    starts = np.empty(grid.ny + cells.size, dtype=np.int64)
    averages = np.zeros(grid.ny + cells.size)
    starts[opening] = np.arange(grid.ny) * width
    starts[run] = cells
    averages[run] = pad[rows, rank]
    return starts, averages


def _rasterize(pts: np.ndarray, grid: GridSpec, invalid: np.ndarray) -> tuple:
    """(values, masked_cover) of the closed polygon pts on grid, from one `_coverage` pass.

    ``values`` holds every cell's average rounded to int32, with 0 on the
    invalid cells, filled run by run; ``masked_cover`` holds each invalid
    cell's average in row-major order, read from the run it lies in, the
    last one that opens at or left of it in its row.
    """
    starts, averages = _coverage(pts, grid)
    # a run at column c of row j opens at j * nx + c of the values; column nx closes row j
    lengths = np.diff(starts - starts // (grid.nx + 1), append=grid.ny * grid.nx)
    values = np.repeat(np.rint(averages).astype(np.int32), lengths)
    masked = np.flatnonzero(invalid)
    values[masked] = 0
    masked_cover = averages[np.searchsorted(starts, masked + masked // grid.nx, side="right") - 1]
    return values.reshape(grid.ny, grid.nx), masked_cover


def _mask_reach(eps: float, h: float, lo: float, hi: float) -> float:
    """min(floor(eps / h + d), ceil(eps / h)), d the rounding margin of `_proximity_mask`."""
    ratio = eps / h
    d = 1e-6 + 2.0 ** -48 * (abs(lo) + abs(hi)) / h
    return min(np.floor(ratio + d), np.ceil(ratio))


def _proximity_mask(pts: np.ndarray, grid: GridSpec, eps: float) -> np.ndarray:
    """Cells whose center lies within eps of some curve sample.

    Each sample tests a fixed table of (row, column) offsets from the cell
    center just below and left of it, column offsets -kx .. kx + 1 with
    kx = floor(eps / hx + d), and likewise for rows.  A sample lies a
    fraction f in [0, 1) of a cell right of that center, so a center at
    offset i is |i - f| cell widths from it: i < -eps / hx or i > 1 + eps / hx
    is beyond eps.  The margin d = 1e-6 + 2^-48 (|x0| + |x1|) / hx covers
    the rounding of the sample's cell coordinate and of the float centers,
    so no offset left out holds a center that the float test would count as
    within eps; kx never exceeds ceil(eps / hx).  The squared distances along
    x and along y are computed once per column and per row offset, and hits
    are written into a flat array padded by the table's reach, so no offset
    needs a bounds check; the padding is cropped at the end.

    Every squared distance tested is at most 2 * (eps + 2 * cell width)^2.
    Raises RangeError when twice that overflows, since inf <= inf would mask
    cells at any distance, and when the table would pass _MAX_MASK_OFFSETS
    offsets, as it does for cells thousands of times longer than wide.
    """
    reach = eps + 2.0 * max(grid.hx, grid.hy)
    if not np.isfinite(4.0 * reach * reach):
        raise RangeError(f"squared distances overflow: eps {eps:g} and cell size"
                         f" {max(grid.hx, grid.hy):g} are too large for the proximity mask")
    kx = _mask_reach(eps, grid.hx, grid.x0, grid.x1)
    ky = _mask_reach(eps, grid.hy, grid.y0, grid.y1)
    offsets = (2 * kx + 2) * (2 * ky + 2)
    if not offsets <= _MAX_MASK_OFFSETS:
        raise RangeError(f"cells of {grid.hx:g} x {grid.hy:g} need {offsets:g} offsets per sample"
                         f" for eps {eps:g}, above the {_MAX_MASK_OFFSETS} of the proximity mask")
    kx, ky = int(kx), int(ky)
    with np.errstate(over="ignore"):  # samples out of range are dropped by `near`
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


def multiplicity_grid(sym: FourierSymbol, r: float, grid: GridSpec) -> MultiplicityGrid:
    """Signed multiplicity m_{Phi_r} on every valid cell center.

    Valid cells carry the winding of the sampled curve of phi_r around the
    cell center; cells within eps = twice the cell diagonal of the curve are
    masked invalid rather than aborting the grid.  The curve starts from
    `SampledCurve.from_symbol` and is refined until every chord is below a
    quarter of the smaller cell side.

    One `_coverage` pass, filled out by `_rasterize`, gives the integers and
    the masked cells' averages: a valid cell's center lies more than eps from
    every sample, so no chord of at most a quarter cell enters the cell, and
    its exact average is its winding, which is stored rounded.  The mask runs
    first, since its RangeError guards the cell sizes that `_coverage`
    divides by.
    """
    curve = SampledCurve.from_symbol(sym, r).refine_to_chord(min(grid.hx, grid.hy) / 4.0)
    pts = curve.points
    invalid = _proximity_mask(pts, grid, 2.0 * grid.cell_diag)
    values, masked_cover = _rasterize(pts, grid, invalid)
    return MultiplicityGrid(grid, values, invalid, masked_cover, curve)


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
    lip = _horner(rho, np.abs(fd)) + _horner(rho, np.abs(gd))
    size = _horner(rho, np.abs(fa)) + _horner(rho, np.abs(ga))
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

    A bound or a Newton step past the float range proves nothing, so a
    non-finite w or coefficient of F, F', G, G' raises NonFiniteError, and
    so does every overflow or invalid operation, with no numpy warning.
    """
    if not 0.0 < r <= 1.0:
        raise RangeError(f"radius must lie in (0,1], got {r}")
    if not sym.is_finite_band:
        raise TailError("preimage counting needs an exact finite-band symbol")
    if not (np.isfinite(w) and all(np.isfinite(a).all() for a in sym._split)):
        raise NonFiniteError(f"w = {w} or a coefficient of Phi or Phi' is not finite")
    try:
        with np.errstate(over="raise", invalid="raise"):
            starts = _quadtree_starts(sym, r, w)
            if starts is None:
                return 0
            fa, _, ga, _ = sym._split
            cap = (max(fa.size, ga.size) - 1) ** 2
            coarse, roots = (_newton_roots(sym, r, w, z, cap) for z in starts)
            jacs = [float(_jacobian(sym, root)) for root in roots]
    except FloatingPointError as exc:
        raise NonFiniteError(f"Phi overflows the float range while counting w = {w}") from exc
    if not _match_roots(coarse, roots):
        raise NoConvergence(f"root sets at w = {w} differ between quadtree levels"
                            f" {_DEPTH - 1} and {_DEPTH}")
    total = 0
    for root, jac in zip(roots, jacs):
        if abs(jac) < _JTOL:
            raise DegenerateRoot(f"|J| = {abs(jac):g} below tolerance at root {root}")
        total += 1 if jac > 0 else -1
    return total
