"""Truncated Toeplitz, Hankel and commutator matrices on the Hardy space.

Finite-band symbols make the key infinite-dimensional objects exactly
computable on finite corners: Toeplitz truncations are entrywise exact,
Hankel matrices and self-commutators are finitely supported, and every
word in X = T_{Re phi}, Y = T_{Im phi} agrees with the infinite product on
a corner once the inner truncation is padded by (word length) x (band).
All operations are pure; results may be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, RangeError, StabilizationError, TailError
from .poly import BivariatePolynomial
from .symbols import FourierSymbol

_HERM_TOL = 1e-12
_MAX_BLOCK = 2048  # largest side of a dense commutator block; one block is 64 MiB


@dataclass(frozen=True)
class TruncatedMatrix:
    """N x N complex block; ``selfadjoint`` blocks are checked to be Hermitian."""

    dim: int
    entries: np.ndarray
    selfadjoint: bool = False

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(f"entries shape {entries.shape} != ({self.dim}, {self.dim})")
        if not np.all(np.isfinite(entries.view(float))):
            raise ValueError("matrix entries must be finite")
        if self.selfadjoint:
            scale = max(1.0, float(np.max(np.abs(entries))))
            if np.max(np.abs(entries - entries.conj().T)) > _HERM_TOL * scale:
                raise ValueError("matrix tagged self-adjoint is not Hermitian")
        object.__setattr__(self, "entries", entries)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


# -- matrix constructions -----------------------------------------------------

def toeplitz_matrix(sym: FourierSymbol, n: int) -> TruncatedMatrix:
    """T_phi truncation: entry(m, k) = c(m - k).  Entrywise exact.

    A coefficient that overflowed, as the real or imaginary part of a symbol
    near the float limit can, raises NonFiniteError.
    """
    if n < 1:
        raise RangeError("dimension must be >= 1")
    if not all(np.isfinite(c) for c in sym.coeffs.values()):
        raise NonFiniteError("Toeplitz matrix of a symbol with non-finite coefficients")
    idx = np.arange(n)
    diff = idx[:, None] - idx[None, :]
    ent = np.zeros((n, n), dtype=complex)
    for k, c in sym.coeffs.items():
        ent[diff == k] = c
    return TruncatedMatrix(n, ent, selfadjoint=sym.real_valued)


def hankel_matrix(sym: FourierSymbol, n: int) -> TruncatedMatrix:
    """H_phi truncation: entry(l-1, k) = c(-l-k), rows enumerating e_{-l}.

    For a band-K symbol all entries with (l-1) + k >= K vanish, so the
    truncation is exact once n >= K.
    """
    if n < 1:
        raise RangeError("dimension must be >= 1")
    idx = np.arange(n)
    total = idx[:, None] + idx[None, :]  # (l-1) + k
    ent = np.zeros((n, n), dtype=complex)
    for k, c in sym.coeffs.items():
        if k < 0:
            ent[total == (-k - 1)] = c
    return TruncatedMatrix(n, ent)


def self_commutator(sym: FourierSymbol, n: int) -> TruncatedMatrix:
    """[T_phi^*, T_phi] block via the coefficient formula.

    entry(m, k) = sum_{l>=1} f(m+l) conj(f(k+l)) - g(m+l) conj(g(k+l)),
    a finite sum for finite band; entries vanish once max(m, k) >= band.
    Entries beyond the float range raise NonFiniteError.
    """
    if n < 1:
        raise RangeError("dimension must be >= 1")
    fa, _, ga, _ = sym._split
    band = sym.band
    rows = min(n, band)
    idx = np.arange(rows)[:, None] + np.arange(1, band + 1)  # m + l
    af = np.zeros((n, max(band, 1)), dtype=complex)
    ag = np.zeros((n, max(band, 1)), dtype=complex)
    pad = np.zeros(2 * band, dtype=complex)
    af[:rows, :band] = np.concatenate((fa, pad))[idx]
    ag[:rows, :band] = np.concatenate((ga, pad))[idx]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows in the check below
        ent = af @ af.conj().T - ag @ ag.conj().T
    if not np.all(np.isfinite(ent.view(float))):
        raise NonFiniteError("self-commutator entries overflow the float range")
    return TruncatedMatrix(n, ent, selfadjoint=True)


# -- traces ------------------------------------------------------------------------

def _poly_in_xy(p: BivariatePolynomial, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """p(X, Y) with the fixed ordering x^i y^j -> X^i Y^j."""
    m = x.shape[0]
    xp = {0: np.eye(m, dtype=complex)}
    yp = {0: np.eye(m, dtype=complex)}
    out = np.zeros((m, m), dtype=complex)
    for (i, j), c in p.coeffs.items():
        if i not in xp:
            xp[i] = np.linalg.matrix_power(x, i)
        if j not in yp:
            yp[j] = np.linalg.matrix_power(y, j)
        out += c * (xp[i] @ yp[j])
    return out


def _commutator_block(sym: FourierSymbol, p: BivariatePolynomial,
                      q: BivariatePolynomial, n: int) -> np.ndarray:
    """Exact n x n block of [p(X,Y), q(X,Y)] via padded truncations."""
    k = max(sym.band, 1)
    pad = (p.degree + q.degree) * k
    m = n + pad
    x = toeplitz_matrix(sym.real_part(), m).entries
    y = toeplitz_matrix(sym.imag_part(), m).entries
    pm = _poly_in_xy(p, x, y)
    qm = _poly_in_xy(q, x, y)
    comm = pm @ qm - qm @ pm
    return comm[:n, :n]


def _truncation(sym: FourierSymbol, p: BivariatePolynomial, q: BivariatePolynomial,
                n_override: int | None = None) -> int:
    """Truncation N of `commutator_trace`: n_override, else (deg p + deg q + 2) * band."""
    n = n_override if n_override is not None else (p.degree + q.degree + 2) * max(sym.band, 1)
    if n < 1:
        raise RangeError("truncation override must be >= 1")
    return n


def commutator_trace(sym: FourierSymbol, p: BivariatePolynomial,
                     q: BivariatePolynomial, n_override: int | None = None) -> complex:
    """Trace of the trace-class commutator [p(X,Y), q(X,Y)].

    Every word of length L in band-K Toeplitz operators is Toeplitz plus a
    correction supported in an (L*K) x (L*K) corner, so the commutator is
    exactly supported in a ((deg p + deg q + 1) * K)^2 corner and its trace
    is a finite computation.  A stabilization check guards the support
    reasoning (and any caller-supplied override): one exact block of side
    2n, with n = `_truncation`, gives both t(2n) and, on its leading n x n
    corner, t(n).  The padded block side 2n + (deg p + deg q) * K may not
    exceed _MAX_BLOCK, and a trace that overflows raises NonFiniteError.
    """
    if not sym.is_finite_band:
        raise TailError("commutator traces need an exact finite-band symbol")
    k = max(sym.band, 1)
    n = _truncation(sym, p, q, n_override)
    side = 2 * n + (p.degree + q.degree) * k
    if side > _MAX_BLOCK:
        raise RangeError(
            f"dense block side {side} exceeds the {_MAX_BLOCK} guard (N = {n}, band {k})")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows in the check below
        block = _commutator_block(sym, p, q, 2 * n)
        t1 = complex(np.trace(block[:n, :n]))
        t2 = complex(np.trace(block))
    if not (np.isfinite(t1) and np.isfinite(t2)):
        raise NonFiniteError(f"commutator trace is not finite: {t1} at N={n}, {t2} at N={2 * n}")
    if abs(t1 - t2) > 1e-10:
        raise StabilizationError(
            f"trace changed from {t1} to {t2} between N={n} and N={2 * n}")
    return t2


def schatten_norm(mat: TruncatedMatrix, p: float) -> float:
    """Schatten p-norm (sum sigma_i^p)^(1/p) of the whole block.

    p must lie in [1, inf); NaN is rejected too.
    """
    if not 1.0 <= p < math.inf:
        raise RangeError(f"Schatten exponent must lie in [1, inf), got {p}")
    sv = np.linalg.svd(mat.entries, compute_uv=False)
    if p == 1:
        return float(np.sum(sv))
    if p == 2:
        return float(np.sqrt(np.sum(sv ** 2)))
    return float(np.sum(sv ** p) ** (1.0 / p))


# -- smoothing decomposition machinery ------------------------------------------

def smoothing_trace_identity(sym: FourierSymbol, corner, r: float):
    """Both sides of the trace decomposition that extracts the Poisson radius.

    Returns ``(lhs, rhs)`` with

        lhs = tr([T_{phi_r}^*, T_{phi_r}] X)
        rhs = r^2 tr([T_phi^*, T_phi] R X R)
              - sum_{l>=2} r^{2l-2} (1 - r^2) tr([T_phi^*, T_phi] (R X R)^{(l)})

    where R = diag(r^n) and (.)^{(l)} embeds a block shifted down-right by
    l - 1 positions.  The l-sum stops at l = band since the shifted corner
    then leaves the support of the commutator.  Every term is the trace of a
    product with one factor supported on a d x d window, so it is taken as
    the elementwise sum tr(A B) = sum(A * B.T) over the window of a single
    self-commutator block of side d + band - 1.
    """
    if not 0.0 < r < 1.0:
        raise RangeError(f"Poisson radius must lie in (0,1), got {r}")
    if not sym.is_finite_band:
        raise TailError("trace decomposition needs an exact finite-band symbol")
    x = corner.entries if isinstance(corner, TruncatedMatrix) else np.asarray(corner, dtype=complex)
    d = x.shape[0]
    band = sym.band

    lhs = complex(np.sum(self_commutator(sym.poisson_smooth(r), d).entries * x.T))

    rv = r ** np.arange(d)
    rxr_t = (x * rv[:, None] * rv).T
    c = self_commutator(sym, d + max(band - 1, 0)).entries
    rhs = r ** 2 * complex(np.sum(c[:d, :d] * rxr_t))
    for ell in range(2, band + 1):
        s = ell - 1
        rhs -= r ** (2 * ell - 2) * (1 - r ** 2) * complex(np.sum(c[s:s + d, s:s + d] * rxr_t))
    return lhs, rhs
