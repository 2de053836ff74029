"""Helton-Howe measure densities and the identities they satisfy.

The density of the measure of T_phi (phi smooth) is m_Phi / (2 pi i); this
module assembles it from multiplicity grids and verifies the trace formula

    tr([p(X,Y), q(X,Y)]) = int J(p,q) dP,

the index identity at points off the symbol curve, Brown's total-variation
bound, and the r -> 1 moment convergence for truncated symbols.

Grid integrals follow the midpoint rule with masked cells contributing
zero; every reported integral is the Richardson combination of one grid
halving, which removes the O(h) bias of the curve-proximity mask, and the
raw per-resolution sums are kept alongside for auditability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degree import (GridSpec, MeasureDensity, MomentProbe, SampledCurve,
                     default_grid, multiplicity_limit_probe, winding)
from .errors import MaskCoverageError, RangeError, WindingUndefined
from .operators import commutator_trace, schatten_norm, self_commutator
from .poly import BivariatePolynomial, jacobian_bracket
from .symbols import FourierSymbol

__all__ = [
    "BivariatePolynomial", "jacobian_bracket", "MeasureDensity",
    "TraceFormulaReport", "hh_density", "trace_formula_check",
    "total_variation", "brown_bound_check", "index_check",
    "smoothing_limit_probe",
]


def hh_density(sym: FourierSymbol, r: float, grid: GridSpec,
               refine: bool = True) -> MeasureDensity:
    """Density grid of the measure of T_{phi_r} (or T_phi when r = 1)."""
    return MeasureDensity.build(sym, r, grid, refine)


@dataclass(frozen=True)
class TraceFormulaReport:
    """Both sides of the trace formula with an honest error budget."""

    lhs: complex
    rhs: complex
    abs_err: float
    quad_err_estimate: float
    n_used: int
    grid: GridSpec
    masked_area_fraction: float
    rhs_coarse: complex
    rhs_fine: complex
    tail_bound: float

    def __post_init__(self):
        recomputed = abs(self.lhs - self.rhs)
        if abs(recomputed - self.abs_err) > 1e-14 * max(1.0, recomputed):
            raise ValueError("abs_err inconsistent with |lhs - rhs|")

    def to_dict(self) -> dict:
        return {
            "lhs": {"re": self.lhs.real, "im": self.lhs.imag},
            "rhs": {"re": self.rhs.real, "im": self.rhs.imag},
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
    lhs, n_used = commutator_trace(sym_eff, p, q, n_override, _details=True)
    density = hh_density(sym, r, grid, refine=True)
    weight = jacobian_bracket(p, q)
    wvals = weight(*density.grid.grid.mesh())
    rhs, coarse, fine = density.moment(weight, wvals)
    quad_err = abs(fine - coarse)
    _check_mask_budget(density, wvals, rhs)
    return TraceFormulaReport(
        lhs=lhs, rhs=rhs, abs_err=abs(lhs - rhs), quad_err_estimate=quad_err,
        n_used=n_used, grid=grid,
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
    if mg.masked_area_fraction > 0.10:
        raise MaskCoverageError(
            f"{100 * mg.masked_area_fraction:.1f}% of the box is masked")
    wvals = np.abs(wvals)
    m_bound = float(np.max(np.abs(mg.values), initial=0.0))
    cell = mg.grid.cell_area / (2 * np.pi)
    masked_est = float(np.sum(wvals[mg.invalid])) * m_bound * cell
    total_est = float(np.sum(wvals * np.abs(mg.values))) * cell
    if masked_est > 2.0 * max(total_est, abs(rhs)) and masked_est > 0:
        raise MaskCoverageError(
            f"masked contribution estimate {masked_est:g} dominates the integral")


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


@dataclass(frozen=True)
class SmoothingLimitReport:
    """Moment table of the r -> 1 probe; Cauchy diagnostics, no limit claim."""

    probe: MomentProbe
    lhs: complex
    tail_bound: float

    def to_dict(self) -> dict:
        rows = []
        for i, r in enumerate(self.probe.r_values):
            row = {
                "r": r,
                "moment": {"re": self.probe.moments[i, 0].real,
                           "im": self.probe.moments[i, 0].imag},
                "masked_fraction": self.probe.masked_fractions[i],
            }
            if i > 0:
                row["diff_prev"] = float(self.probe.successive_diffs[i - 1, 0])
            rows.append(row)
        return {
            "lhs": {"re": self.lhs.real, "im": self.lhs.imag},
            "rows": rows,
            "tail_bound": self.tail_bound,
        }


def smoothing_limit_probe(sym: FourierSymbol, p: BivariatePolynomial,
                       q: BivariatePolynomial, r_list,
                       grid: GridSpec | None = None) -> SmoothingLimitReport:
    """Moments (1/2 pi i) int J(p,q) m_{Phi_r} along r, against the trace.

    The operator side is the exact trace for the stored truncation (the
    tail bound is propagated in the report); the moment sequence is
    reported with successive differences only.
    """
    if grid is None:
        grid = default_grid(sym)
    weight = jacobian_bracket(p, q)
    probe = multiplicity_limit_probe(sym, r_list, [weight], grid)
    # operator side for the stored truncation; the discarded tail is noted
    lhs = commutator_trace(FourierSymbol(dict(sym.coeffs)), p, q)
    return SmoothingLimitReport(probe, lhs, sym.tail_bound)
