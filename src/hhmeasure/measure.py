"""Helton-Howe measure densities and the identities they satisfy.

The density of the measure of T_phi (phi smooth) is m_Phi / (2 pi i); this
module assembles it from the multiplicity grids of `degree` and verifies the
trace formula

    tr([p(X,Y), q(X,Y)]) = int J(p,q) dP,

the index identity at points off the symbol curve, Brown's total-variation
bound, and the r -> 1 moment convergence for truncated symbols.

This module owns the coarse/fine density pair `MeasureDensity`, every grid
integral over it and the gate on its masked cells.  Grid integrals follow
the midpoint rule with masked cells contributing zero; every reported
integral is the Richardson combination of one grid halving, which removes
the O(h) bias of the curve-proximity mask, and the raw per-resolution sums
are kept alongside for auditability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .degree import (GridSpec, MultiplicityGrid, SampledCurve, default_grid,
                     multiplicity_grid, winding)
from .errors import MaskCoverageError, NonFiniteError, RangeError, WindingUndefined
from .operators import _truncation, commutator_trace, schatten_norm, self_commutator
from .poly import BivariatePolynomial, jacobian_bracket
from .symbols import FourierSymbol

__all__ = [
    "BivariatePolynomial", "jacobian_bracket", "MeasureDensity",
    "TraceFormulaReport", "hh_density", "trace_formula_check",
    "total_variation", "brown_bound_check", "index_check",
    "smoothing_limit_probe",
]

_ABS_SUM_CELLS = 1 << 16  # cells per block of `_abs_sum`


# -- the coarse/fine density pair -----------------------------------------------

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

    @cached_property
    def values(self) -> np.ndarray:
        return self.grid.values / (2j * np.pi)

    @property
    def masked_area_fraction(self) -> float:
        return self.grid.masked_area_fraction

    def _richardson(self, integral):
        coarse = integral(self.grid)
        if self.fine is None:
            return coarse, coarse, coarse
        fine = integral(self.fine)
        return 2 * fine - coarse, coarse, fine

    def moment(self, weight, coarse_weight: np.ndarray | None = None) -> tuple:
        """(extrapolated, coarse, fine) of (1/2 pi i) int weight(x, y) m dxdy.

        ``coarse_weight`` is weight already evaluated on the coarse mesh, for
        callers that need those values too.  A sum beyond the float range
        raises NonFiniteError.
        """
        def midpoint(mg: MultiplicityGrid) -> complex:
            if mg is self.grid and coarse_weight is not None:
                wvals = coarse_weight
            else:
                wvals = weight(*mg.grid.mesh())
            with np.errstate(over="ignore", invalid="ignore"):  # overflow shows below
                tot = float(np.sum(wvals * mg.values))
            if not np.isfinite(tot):
                raise NonFiniteError(f"grid moment is not finite: {tot}")
            return complex(tot * mg.grid.cell_area / (2j * np.pi))
        return self._richardson(midpoint)

    def tv(self) -> tuple:
        """(extrapolated, coarse, fine) of the total variation int |m| / 2 pi."""
        return self._richardson(lambda mg: _abs_sum(mg.values)
                                * mg.grid.cell_area / (2 * np.pi))


def _abs_sum(values: np.ndarray) -> float:
    """float(sum |values|) of an integer grid, taken over blocks of rows.

    Every block sum is an exact integer, so this equals the sum over the
    whole array without allocating a copy of it.
    """
    rows = max(1, _ABS_SUM_CELLS // values.shape[1])
    return float(sum(int(np.abs(values[i:i + rows]).sum())
                     for i in range(0, values.shape[0], rows)))


def hh_density(sym: FourierSymbol, r: float, grid: GridSpec,
               refine: bool = True) -> MeasureDensity:
    """Density of the measure of T_{phi_r} (or T_phi when r = 1) on grid.

    With refine, phi_r is also rasterized on the halving of grid, and every
    integral of the result is a Richardson pair.  Each grid masks within
    twice its own cell diagonal, so the fine mask is half as wide.  The fine
    grid refines the coarse grid's curve: its chord target is half the
    coarse one, and uniform doubling from the coarse level gives the same
    curve as doubling from the initial sampling.
    """
    coarse = multiplicity_grid(sym, r, grid)
    fine = multiplicity_grid(sym, r, grid.refined(), coarse.curve) if refine else None
    return MeasureDensity(coarse, fine)


def _check_masked_fraction(mg: MultiplicityGrid, where: str = "") -> None:
    """Reject a raster with more than 10% of its box masked; where ends the message."""
    if mg.masked_area_fraction > 0.10:
        raise MaskCoverageError(
            f"{100 * mg.masked_area_fraction:.1f}% of the box is masked{where}")


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
    rhs_coarse: complex
    rhs_fine: complex
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
    finite-band symbol; the quadrature side is the Richardson-corrected
    midpoint sum of `jacobian_bracket`(p, q) against the density.
    """
    if grid is None:
        grid = default_grid(sym)
    reach = sym.one_norm() + sym.tail_bound
    if min(-grid.x0, grid.x1, -grid.y0, grid.y1) < reach:
        raise RangeError(
            f"grid box must contain the closed disk of radius {reach:g}")
    sym_eff = sym.poisson_smooth(r) if r < 1.0 else sym
    lhs = commutator_trace(sym_eff, p, q, n_override)
    density = hh_density(sym, r, grid, refine=True)
    weight = jacobian_bracket(p, q)
    wvals = weight(*density.grid.grid.mesh())
    rhs, coarse, fine = density.moment(weight, wvals)
    quad_err = abs(fine - coarse)
    _check_mask_budget(density, wvals, rhs)
    return TraceFormulaReport(
        lhs=lhs, rhs=rhs, quad_err_estimate=quad_err,
        n_used=2 * _truncation(sym_eff, p, q, n_override), grid=grid,
        masked_area_fraction=density.masked_area_fraction,
        rhs_coarse=coarse, rhs_fine=fine, tail_bound=sym.tail_bound)


def _check_mask_budget(density: MeasureDensity, wvals: np.ndarray,
                       rhs: complex) -> None:
    """Reject reports whose masked band could swallow the signal.

    The Richardson combination removes the first-order mask bias, so the
    gate only fires when the mask is genuinely out of control: more than
    10% of the box masked, or a crude bound on the masked contribution
    exceeding half of the total absolute contribution.  ``wvals`` is the
    weight on the coarse cell centers.
    """
    mg = density.grid
    _check_masked_fraction(mg)
    wvals = np.abs(wvals)
    m_bound = float(np.max(np.abs(mg.values), initial=0.0))
    cell = mg.grid.cell_area / (2 * np.pi)
    masked_est = float(np.sum(wvals[mg.invalid])) * m_bound * cell
    total_est = float(np.sum(wvals * np.abs(mg.values))) * cell
    if masked_est > 2.0 * max(total_est, abs(rhs)) and masked_est > 0:
        raise MaskCoverageError(
            f"masked contribution estimate {masked_est:g} dominates the integral")


# -- total variation and the index identity ----------------------------------------

def total_variation(density: MeasureDensity) -> float:
    """Total variation: sum over valid cells of |value| * cell_area.

    Computed at the stored resolution and its halving, combined by
    Richardson; the masked-area fraction is available on the density.
    """
    return density.tv()[0]


def brown_bound_check(sym: FourierSymbol, r: float, grid: GridSpec | None = None):
    """Total variation against the trace-norm bound ||[T*, T]||_1 / 2.

    Returns (tv, bound, ok); both quantities refer to the same operator
    T_{phi_r} (or T_phi at r = 1).
    """
    if grid is None:
        grid = default_grid(sym)
    sym_eff = sym.poisson_smooth(r) if r < 1.0 else sym
    density = hh_density(sym, r, grid)
    tv, coarse, _ = density.tv()
    n = max(sym_eff.band, 1)
    bound = schatten_norm(self_commutator(sym_eff, n), 1) / 2.0
    ok = tv <= bound + (2e-3 + abs(coarse - tv))
    return tv, bound, ok


def index_check(sym: FourierSymbol, lam: complex, r: float,
                grid: GridSpec | None = None,
                density: MeasureDensity | None = None):
    """Spot check of the index identity at one point.

    ok holds iff the density cell containing lam equals wind / (2 pi i)
    with wind the adaptively computed winding of the phi_r curve around
    lam; masked cells raise WindingUndefined.
    """
    if density is None:
        if grid is None:
            grid = default_grid(sym)
        density = hh_density(sym, r, grid, refine=False)
    cell_m = density.grid.value_at(lam)
    if cell_m is None:
        raise WindingUndefined(f"lambda = {lam} falls on a masked or outside cell")
    curve = SampledCurve.from_symbol(sym, r)
    wind = winding(curve, lam, density.grid.eps / 4.0)
    value = complex(cell_m / (2j * np.pi))
    return wind, value, (cell_m == wind)


# -- the r -> 1 probe ---------------------------------------------------------------

@dataclass(frozen=True)
class SmoothingLimitReport:
    """Moment table of the r -> 1 probe; Cauchy diagnostics, no limit claim."""

    r_values: tuple
    moments: np.ndarray           # (n_r,) extrapolated values
    moments_raw: np.ndarray       # (n_r, 2) coarse/fine midpoint sums
    successive_diffs: np.ndarray  # (n_r - 1,) |moment_{i+1} - moment_i|
    masked_fractions: tuple
    lhs: complex
    tail_bound: float

    def to_dict(self) -> dict:
        rows = []
        for i, r in enumerate(self.r_values):
            row = {"r": r, "moment": self.moments[i],
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
    radius the moment is the Richardson pair of `hh_density`, and more than
    10% of the box masked raises MaskCoverageError.  The moment sequence is
    reported with successive differences only; no limit value is claimed.
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
    weight = jacobian_bracket(p, q)
    moments = np.zeros(len(r_values), dtype=complex)
    raw = np.zeros((len(r_values), 2), dtype=complex)
    fractions = []
    for i, r in enumerate(r_values):
        density = hh_density(sym, r, grid)
        _check_masked_fraction(density.grid, f" at r={r}")
        fractions.append(density.masked_area_fraction)
        moments[i], coarse, fine = density.moment(weight)
        raw[i] = coarse, fine
    # operator side for the stored truncation; the discarded tail is noted
    lhs = commutator_trace(FourierSymbol(dict(sym.coeffs)), p, q)
    return SmoothingLimitReport(r_values, moments, raw, np.abs(np.diff(moments)),
                                tuple(fractions), lhs, sym.tail_bound)
