"""Helton-Howe measure densities and the identities they satisfy.

The density of the measure of T_phi (phi smooth) is m_Phi / (2 pi i); this
module assembles it from the multiplicity grids of `degree` and verifies the
trace formula

    tr([p(X,Y), q(X,Y)]) = int J(p,q) dP,

the index identity at points off the symbol curve, Brown's total-variation
bound, and the r -> 1 moment convergence for truncated symbols.

This module owns the density `MeasureDensity`, one raster of one curve, and
every grid integral over it.  Both integrals read each cell's average
winding: the integer m on valid cells and the exact average `_coverage` of
the sampled polygon on masked ones.  A moment takes the midpoint rule of
J(p, q) weighted by those averages, an O(h^2) rule whose quad_err is the
measured gap to the sampled curve's exact moment.  The total variation sums
their moduli: exact for the polygon wherever m keeps one sign across a cell,
as it does for every analytic and co-analytic symbol, and a lower bound on
the few cells beside a self-crossing where m changes sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .degree import (_START_POINTS, GridSpec, MultiplicityGrid, SampledCurve, _coverage,
                     default_grid, multiplicity_grid, winding)
from .errors import NonFiniteError, RangeError, WindingUndefined
from .operators import _truncation, commutator_trace, schatten_norm, self_commutator
from .poly import BivariatePolynomial, jacobian_bracket
from .symbols import FourierSymbol

__all__ = [
    "BivariatePolynomial", "jacobian_bracket", "MeasureDensity",
    "TraceFormulaReport", "hh_density", "trace_formula_check",
    "total_variation", "brown_bound_check", "index_check",
    "smoothing_limit_probe",
]

_MAX_MOMENT_DEGREE = 2048  # deg p + deg q; the contour rule solves a ~(degree / 2)^2 eigenproblem


# -- the density -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MeasureDensity:
    """Complex raster of the measure density (1/2 pi i) * m over a box.

    ``values[j, i] = m[j, i] / (2 pi i)`` on valid cells of the grid and 0 on
    masked ones.  Moments and the total variation also weigh masked cells by
    their exact average winding, from the curve the grid was made of.
    """

    grid: MultiplicityGrid

    @cached_property
    def values(self) -> np.ndarray:
        return self.grid.values / (2j * np.pi)

    @property
    def masked_area_fraction(self) -> float:
        return self.grid.masked_area_fraction

    def moment(self, p: BivariatePolynomial, q: BivariatePolynomial) -> tuple:
        """(value, quad_err) of (1/2 pi i) int J(p, q) m dxdy on the grid.

        J(p, q) is taken at the cell centers and weighed by each cell's
        average winding (`_cell_windings`), so the error is O(h^2).
        quad_err is the gap to the exact moment of
        the rasterized polygon, (1/2 pi i) times its contour integral of
        p dq (Green's theorem), which also shows any part of the curve that
        lies outside the box.  A sum beyond the float range raises
        NonFiniteError, and deg p + deg q above _MAX_MOMENT_DEGREE RangeError.
        """
        if p.degree + q.degree > _MAX_MOMENT_DEGREE:
            raise RangeError(f"deg p + deg q = {p.degree + q.degree} exceeds the"
                             f" {_MAX_MOMENT_DEGREE} of the contour quadrature")
        mg = self.grid
        pts = mg.curve.points
        cells = _cell_windings(mg)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow shows below
            tot = float(np.sum(jacobian_bracket(p, q)(*mg.grid.mesh()) * cells))
            # p dq along each edge a + t d is a polynomial in t of degree
            # deg p + deg q - 1, which these Gauss-Legendre nodes integrate exactly
            t, w = np.polynomial.legendre.leggauss((p.degree + q.degree) // 2 + 1)
            d = np.roll(pts, -1) - pts
            z = pts[:, None] + d[:, None] * ((t + 1) / 2)
            dq = (q.partial_x()(z.real, z.imag) * d.real[:, None]
                  + q.partial_y()(z.real, z.imag) * d.imag[:, None])
            exact = float(np.sum((p(z.real, z.imag) * dq) @ w)) / 2
        if not np.isfinite(tot + exact):
            raise NonFiniteError(f"grid moment {tot} or contour {exact} is not finite")
        value = complex(tot * mg.grid.cell_area / (2j * np.pi))
        return value, abs(value - exact / (2j * np.pi))


def _cell_windings(mg: MultiplicityGrid) -> np.ndarray:
    """Each cell's average winding: m on valid cells, `_coverage` on masked ones.

    A fresh float64 array of the grid's shape on every call; it is not kept,
    so a density holds no more than its integer raster.
    """
    return np.where(mg.invalid, _coverage(mg.curve.points, mg.grid), mg.values)


def hh_density(sym: FourierSymbol, r: float, grid: GridSpec,
               refine: bool = True) -> MeasureDensity:
    """Density of the measure of T_{phi_r} (or T_phi when r = 1) on grid.

    One raster of one curve: `multiplicity_grid` masks within twice the cell
    diagonal and keeps the refined curve it was made from.  ``refine`` is
    accepted and ignored.
    """
    # refine is ignored: the benchmark's density jobs (perfbench/workloads.py) still pass it
    return MeasureDensity(multiplicity_grid(sym, r, grid))


# -- the trace formula ------------------------------------------------------------

@dataclass(frozen=True)
class TraceFormulaReport:
    """Both sides of the trace formula with an honest error budget."""

    lhs: complex
    rhs: complex
    quad_err_estimate: float
    n_used: int
    grid: GridSpec
    masked_area_fraction: float
    tail_bound: float

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs)

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
            "quad_err": self.quad_err_estimate,
            "N": self.n_used,
            "grid": self.grid.to_dict(),
            "masked_area_fraction": self.masked_area_fraction,
            "tail_bound": self.tail_bound,
        }


def trace_formula_check(sym: FourierSymbol, p: BivariatePolynomial,
                        q: BivariatePolynomial, grid: GridSpec | None = None,
                        r: float = 1.0,
                        n_override: int | None = None) -> TraceFormulaReport:
    """Compare tr([p(X,Y), q(X,Y)]) with the quadrature of J(p,q) * density.

    The operator side is the exact corner computation for the (smoothed)
    finite-band symbol; the quadrature side is `MeasureDensity.moment` on
    one grid, and its quad_err the gap to the sampled curve's exact moment.
    """
    if grid is None:
        grid = default_grid(sym)
    reach = sym.one_norm() + sym.tail_bound
    if min(-grid.x0, grid.x1, -grid.y0, grid.y1) < reach:
        raise RangeError(
            f"grid box must contain the closed disk of radius {reach:g}")
    sym_eff = sym.poisson_smooth(r) if r < 1.0 else sym
    lhs = commutator_trace(sym_eff, p, q, n_override)
    density = hh_density(sym, r, grid)
    rhs, quad_err = density.moment(p, q)
    return TraceFormulaReport(
        lhs=lhs, rhs=rhs, quad_err_estimate=quad_err,
        n_used=2 * _truncation(sym_eff, p, q, n_override), grid=grid,
        masked_area_fraction=density.masked_area_fraction, tail_bound=sym.tail_bound)


# -- total variation and the index identity ----------------------------------------

def total_variation(density: MeasureDensity) -> float:
    """Total variation int |m| dxdy / 2 pi of the density, on its one grid.

    Sums |average winding| * cell_area over every cell (`_cell_windings`).
    For the sampled polygon this is exact on each cell where m keeps one
    sign, which holds on every cell of an analytic or co-analytic symbol;
    on a cell beside a self-crossing where m changes sign, |average| is
    below the average of |m|, so the result is a lower bound there.
    """
    cells = _cell_windings(density.grid)
    return float(np.sum(np.abs(cells, out=cells))) * density.grid.grid.cell_area / (2 * np.pi)


def brown_bound_check(sym: FourierSymbol, r: float, grid: GridSpec | None = None):
    """Total variation against the trace-norm bound ||[T*, T]||_1 / 2.

    Returns (tv, bound, ok); both quantities refer to the same operator
    T_{phi_r} (or T_phi at r = 1).  tv is `total_variation`, exact for the
    sampled polygon except on cells where m changes sign, where it can only
    fall short; ok allows a fixed slack of 2e-3 for the polygon's chord error.
    """
    if grid is None:
        grid = default_grid(sym)
    sym_eff = sym.poisson_smooth(r) if r < 1.0 else sym
    tv = total_variation(hh_density(sym, r, grid))
    n = max(sym_eff.band, 1)
    bound = schatten_norm(self_commutator(sym_eff, n), 1) / 2.0
    ok = tv <= bound + 2e-3
    return tv, bound, ok


def index_check(sym: FourierSymbol, lam: complex, r: float,
                grid: GridSpec | None = None,
                density: MeasureDensity | None = None):
    """Spot check of the index identity at one point.

    ok holds iff the density cell containing lam equals wind / (2 pi i)
    with wind the adaptively computed winding of the phi_r curve around
    lam; masked cells raise WindingUndefined.

    The winding starts from the density's own curve, taken at every
    (curve_points / _START_POINTS)-th sample: chord refinement keeps the
    old points as the even ones, so these are bit for bit the start curve
    `SampledCurve.from_symbol(sym, r)`, and no query samples it again.  A
    density made from the curve of another symbol or radius raises RangeError.
    """
    if density is None:
        if grid is None:
            grid = default_grid(sym)
        density = hh_density(sym, r, grid)
    mg = density.grid
    if mg.curve.sym != sym or mg.curve.r != r:
        raise RangeError("the density must be made from the curve of this symbol and radius")
    cell_m = mg.value_at(lam)
    if cell_m is None:
        raise WindingUndefined(f"lambda = {lam} falls on a masked or outside cell")
    curve = SampledCurve(sym, r, mg.curve.points[::max(1, mg.curve_points // _START_POINTS)])
    wind = winding(curve, lam, mg.eps / 4.0)
    value = complex(cell_m / (2j * np.pi))
    return wind, value, (cell_m == wind)


# -- the r -> 1 probe ---------------------------------------------------------------

@dataclass(frozen=True)
class SmoothingLimitReport:
    """Moment table of the r -> 1 probe; Cauchy diagnostics, no limit claim."""

    r_values: tuple
    moments: np.ndarray           # (n_r,) grid moments
    quad_errs: np.ndarray         # (n_r,) gaps to each sampled curve's exact moment
    successive_diffs: np.ndarray  # (n_r - 1,) |moment_{i+1} - moment_i|
    masked_fractions: tuple
    lhs: complex
    tail_bound: float

    def to_dict(self) -> dict:
        rows = []
        for i, r in enumerate(self.r_values):
            row = {"r": r, "moment": self.moments[i], "quad_err": self.quad_errs[i],
                   "masked_fraction": self.masked_fractions[i]}
            if i > 0:
                row["diff_prev"] = float(self.successive_diffs[i - 1])
            rows.append(row)
        return {"lhs": self.lhs, "rows": rows, "tail_bound": self.tail_bound}


def smoothing_limit_probe(sym: FourierSymbol, p: BivariatePolynomial,
                          q: BivariatePolynomial, r_list,
                          grid: GridSpec | None = None) -> SmoothingLimitReport:
    """Moments (1/2 pi i) int J(p,q) m_{Phi_r} dxdy along r, against the trace.

    The radii must be nonempty, strictly increasing and below 1.  At each
    radius the moment and its quad_err are `MeasureDensity.moment` on one
    grid.  The moment sequence is reported with successive differences
    only; no limit value is claimed.
    The operator side is the exact trace for the stored truncation, and the
    tail bound is propagated in the report.
    """
    r_values = tuple(float(r) for r in r_list)
    if not r_values or any(b <= a for a, b in zip(r_values, r_values[1:])):
        raise RangeError("r_list must be nonempty and strictly increasing")
    if r_values[-1] >= 1.0:
        raise RangeError("probe radii must stay strictly below 1")
    if grid is None:
        grid = default_grid(sym)
    moments = np.zeros(len(r_values), dtype=complex)
    quad_errs = np.zeros(len(r_values))
    fractions = []
    for i, r in enumerate(r_values):
        density = hh_density(sym, r, grid)
        fractions.append(density.masked_area_fraction)
        moments[i], quad_errs[i] = density.moment(p, q)
    # operator side for the stored truncation; the discarded tail is noted
    lhs = commutator_trace(FourierSymbol(dict(sym.coeffs)), p, q)
    return SmoothingLimitReport(r_values, moments, quad_errs, np.abs(np.diff(moments)),
                                tuple(fractions), lhs, sym.tail_bound)
