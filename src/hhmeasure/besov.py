"""Besov-space diagnostics: weighted disk integrals of derivative powers.

Membership of an infinite series in a Besov class is undecidable from
finitely many coefficients, so every operation reports a *trend* of partial
integrals over increasing radii together with a deterministic verdict
(converging / diverging / inconclusive).  The verdict rules are fixed:

* needs at least three partial values, else inconclusive;
* converging  if the last increment is at most half the previous one;
* diverging   if the last increment is at least 90% of the previous one
  and significantly nonzero;
* inconclusive otherwise.

Radial quadrature uses Gauss panels refined geometrically toward |z| = 1,
where the weights (1 - |z|^2)^{p-2} concentrate for p < 2.  A radius's
rings are integrated in batches of at most 2^16 points with the bytes of one
call per ring: the same operations on each element, the 1-D sum along each
row, the same order of accumulation and scalar radial weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConjugateError, NonFiniteError, RangeError, TailError
from .operators import hankel_matrix, schatten_norm
from .symbols import FourierSymbol, _horner, _jacobian

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)
_N_PANELS = 24
_MAX_QUAD_BAND = 512  # largest band the disk quadrature takes; work per ring ~ band^2
_BATCH_POINTS = 2 ** 16  # points per integrand call: 1 MB of complex


def default_radii() -> tuple:
    """Radii 1 - 4^{-j}, j = 1..4; quadrupling the boundary approach makes saturating
    integrals shrink their increments well below the converging threshold."""
    return tuple(1.0 - 4.0 ** (-j) for j in range(1, 5))


@dataclass(frozen=True)
class BesovReport:
    """Trend of partial seminorm integrals with a deterministic verdict."""

    p: float
    seminorm_partial: float
    trend: tuple
    radii: tuple
    verdict: str

    def to_dict(self) -> dict:
        return {"p": self.p, "seminorm_partial": self.seminorm_partial,
                "trend": list(self.trend), "radii": list(self.radii),
                "verdict": self.verdict}


def _classify(trend) -> str:
    if len(trend) < 3:
        return "inconclusive"
    atol = 1e-13 * max(1.0, abs(trend[-1]))
    d_prev = trend[-2] - trend[-3]
    d_last = trend[-1] - trend[-2]
    if d_last <= d_prev / 2 + atol:
        return "converging"
    if d_last >= 0.9 * d_prev - atol and d_last > atol:
        return "diverging"
    return "inconclusive"


def _radial_panels(rho: float) -> np.ndarray:
    """Panel edges on [0, rho], geometrically refined toward |z| = 1."""
    gap = max(1.0 - rho, 1e-9)
    edges = 1.0 - np.geomspace(1.0, gap, _N_PANELS + 1)
    edges[0] = 0.0
    edges[-1] = rho
    return edges


def _disk_integral_partials(integrand, radii, band: int) -> list[float]:
    """Cumulative integrals of integrand(r, z) over growing disks.

    A radius's rings go in batches of at most _BATCH_POINTS points: r is a
    column of ring radii, z = r * e^{i theta} the (rings x angles) array.
    Elementwise integrands with scalar weights, 1-D row sums and the ring
    order kept give the bytes of one call per ring.

    Raises RangeError before integrating when band exceeds _MAX_QUAD_BAND,
    and NonFiniteError when a partial overflows the float range.
    """
    if band > _MAX_QUAD_BAND:
        raise RangeError(f"band {band} exceeds the {_MAX_QUAD_BAND} guard of the disk quadrature")
    n_theta = max(128, 8 * band + 16)
    d_theta = 2 * np.pi / n_theta
    circle = np.exp(1j * (np.arange(n_theta) * d_theta))
    rows = max(1, _BATCH_POINTS // n_theta)
    partials, total, prev = [], 0.0, 0.0
    for rho in radii:
        edges = _radial_panels(rho)
        lo = np.searchsorted(edges, prev)
        seg_edges = np.concatenate(([prev], edges[lo:][edges[lo:] > prev]))
        a, b = seg_edges[:-1, None], seg_edges[1:, None]
        nodes = ((b - a) / 2 * _GAUSS_NODES + (a + b) / 2).ravel()
        weights = (_GAUSS_WEIGHTS * (b - a) / 2).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, nodes.size, rows):
                r = nodes[i:i + rows, None]
                rings = np.sum(integrand(r, r * circle), axis=1) * d_theta * r[:, 0]
                for wgt, ring in zip(weights[i:i + rows], rings):
                    total += wgt * ring
        if not math.isfinite(total):
            raise NonFiniteError(f"disk integral up to radius {rho:g} is not finite: {total}")
        partials.append(total)
        prev = rho
    return partials


def _validate_radii(radii, p: float, finite_band: bool):
    radii = tuple(float(r) for r in (default_radii() if radii is None else radii))
    if not radii or any(b <= a for a, b in zip(radii, radii[1:])):
        raise RangeError("radii must be nonempty and strictly increasing")
    if not (radii[0] > 0 and radii[-1] <= 1.0 and np.all(np.isfinite(radii))):
        raise RangeError("radii must lie in (0, 1]")
    if radii[-1] == 1.0:
        if not finite_band:
            raise TailError("integrating to |z| = 1 needs an exact finite-band symbol")
        if 1.0 < p < 2.0:
            raise RangeError("the weight is singular at |z| = 1 for 1 < p < 2; use radii < 1")
    return radii


def analytic_besov_seminorm(f: FourierSymbol, p: float, radii=None) -> BesovReport:
    """Partial A_p seminorm integrals of an analytic symbol over growing disks.

    For p != 1 the integrand is (1 - |z|^2)^{p-2} |F'(z)|^p; for p = 1 it is
    |F''(z)|.  The verdict classifies the trend of the partials.  p must lie
    in [1, inf); NaN is rejected too.
    """
    if not 1.0 <= p < math.inf:
        raise RangeError(f"Besov exponent must lie in [1, inf), got {p}")
    if any(k < 0 for k in f.coeffs):
        raise RangeError("analytic seminorm needs an analytic symbol (no k < 0)")
    radii = _validate_radii(radii, p, f.is_finite_band)

    _, d1, _, _ = f._split
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite d2 fails the integral
        d2 = npoly.polyder(d1)
    if p == 1:
        def integrand(r, z):
            return np.abs(_horner(z, d2))
    else:
        def integrand(r, z):
            # numpy's scalar power, one per ring: the array power can differ in the last bit
            w = np.array([[(1.0 - x * x) ** (p - 2.0)] for x in r[:, 0]])
            return w * np.abs(_horner(z, d1)) ** p

    trend = _disk_integral_partials(integrand, radii, f.band)
    return BesovReport(p, trend[-1], tuple(trend), radii, _classify(trend))


def besov_membership(sym: FourierSymbol, p: float, radii=None):
    """Reports for both halves of the split: P_+(phi) and conj((1-P_+)(phi))."""
    return tuple(analytic_besov_seminorm(half, p, radii) for half in sym.analytic_split())


@dataclass(frozen=True)
class SufficiencyVerdict:
    verdict: str
    real_reports: tuple
    imag_reports: tuple

    def to_dict(self) -> dict:
        return {"verdict": self.verdict,
                "real_part": [rep.to_dict() for rep in self.real_reports],
                "imag_part": [rep.to_dict() for rep in self.imag_reports]}


def almost_normal_sufficient(sym: FourierSymbol, p: float, q: float,
                             radii=None) -> SufficiencyVerdict:
    """Check the sufficient condition Re(phi) in B_p, Im(phi) in B_q.

    p and q must be finite Holder conjugates, or (p, q) = (1, inf) for the
    (B_1, L^inf) variant where the imaginary part only needs boundedness;
    a NaN exponent fails the conjugacy test.
    The verdict is "met" when every half-report converges, "not met" when
    any diverges, else "inconclusive" -- a trend classification, never a
    theorem.
    """
    b1_variant = (p == 1.0 and q == math.inf)
    if not b1_variant:
        if math.isinf(p) or math.isinf(q) or not abs(1.0 / p + 1.0 / q - 1.0) <= 1e-12:
            raise ConjugateError(f"1/{p} + 1/{q} != 1")
    real_reports = besov_membership(sym.real_part(), p, radii)
    if b1_variant:
        # Im(phi) in L^inf holds for every stored table; report the halves
        # at a harmless exponent so the trend is still visible.
        imag_reports = besov_membership(sym.imag_part(), 2.0, radii)
        verdicts = [rep.verdict for rep in real_reports]
    else:
        imag_reports = besov_membership(sym.imag_part(), q, radii)
        verdicts = [rep.verdict for rep in real_reports + imag_reports]
    if all(v == "converging" for v in verdicts):
        verdict = "met"
    elif any(v == "diverging" for v in verdicts):
        verdict = "not met"
    else:
        verdict = "inconclusive"
    return SufficiencyVerdict(verdict, real_reports, imag_reports)


@dataclass(frozen=True)
class JacobianIntegrabilityReport:
    radii: tuple
    partials: tuple
    bound: float
    ok: bool

    def to_dict(self) -> dict:
        return {"radii": list(self.radii), "partials": list(self.partials),
                "bound": self.bound, "ok": self.ok}


def jacobian_integrability(sym: FourierSymbol, radii=None) -> JacobianIntegrabilityReport:
    """Partial integrals of |J(Phi)| against their bound over the full disk.

    With Phi = F + conj(G), |J| = ||F'|^2 - |G'|^2| <= |F'|^2 + |G'|^2, whose
    integral over the disk is exactly pi sum_k |k| |phi(k)|^2 by the monomial
    identity int |k z^{k-1}|^2 = pi |k|.  The bound holds for every symbol,
    analytic ones included, where it is attained at r = 1.
    """
    radii = _validate_radii(radii, 2.0, sym.is_finite_band)
    partials = _disk_integral_partials(lambda r, z: np.abs(_jacobian(sym, z)), radii, sym.band)
    bound = math.pi * sum(abs(k) * abs(c) ** 2 for k, c in sym.coeffs.items())
    ok = all(v <= bound + 1e-8 for v in partials)
    return JacobianIntegrabilityReport(radii, tuple(partials), bound, ok)


def hankel_schatten_probe(sym: FourierSymbol, p: float, n: int) -> float:
    """Schatten-p norm of the Hankel truncation on its exact block.

    Correlates with the Besov verdicts across symbol families: bounded in n
    exactly when the coanalytic part stays in B_p.
    """
    return schatten_norm(hankel_matrix(sym, n), p)
