"""Truncated Toeplitz, Hankel and commutator matrices on the Hardy space.

Finite-band symbols make the key infinite-dimensional objects exactly
computable on finite corners: Toeplitz truncations are entrywise exact,
Hankel matrices and self-commutators are finitely supported, and every
word in X = T_{Re phi}, Y = T_{Im phi} agrees with the infinite product on
a corner once the inner truncation is padded by (word length) x (band).
Every block is a complex numpy array, gathered from one coefficient table.
All operations are pure; results may be shared freely across threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteError, RangeError, StabilizationError, TailError
from .poly import BivariatePolynomial
from .symbols import FourierSymbol

_MAX_BLOCK = 2048  # largest side of a dense commutator block; one block is 64 MiB


# -- matrix constructions -----------------------------------------------------

def _gather(a: np.ndarray, rows: int, cols: int, hankel: bool) -> np.ndarray:
    """rows x cols block of a, zero past its end: entry (i, j) is a[i + j + 1]
    (Hankel) or a[i - j + cols - 1] (Toeplitz, a lists the diagonals top right first)."""
    size = rows + cols
    table = np.zeros(size, dtype=complex)
    table[:min(len(a), size)] = a[:size]
    i, j = np.arange(rows)[:, None], np.arange(cols)
    return table[i + j + 1 if hankel else i - j + cols - 1]


def _check_block(sym: FourierSymbol, n: int, name: str) -> None:
    if n < 1:
        raise RangeError("dimension must be >= 1")
    if not all(np.isfinite(c) for c in sym.coeffs.values()):
        raise NonFiniteError(f"{name} matrix of a symbol with non-finite coefficients")


def _square(mat) -> np.ndarray:
    """A matrix from outside as a complex array; RangeError unless square and finite."""
    x = np.asarray(mat, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise RangeError(f"matrix must be square, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise RangeError("matrix entries must be finite")
    return x


def toeplitz_matrix(sym: FourierSymbol, n: int) -> np.ndarray:
    """T_phi truncation: entry(m, k) = c(m - k).  Entrywise exact.

    Hermitian for a real-valued symbol, whose c(-k) = conj c(k) the symbol
    checks.  A coefficient that overflowed, as the real or imaginary part of
    a symbol near the float limit can, raises NonFiniteError.
    """
    _check_block(sym, n, "Toeplitz")
    diagonals = np.zeros(2 * n - 1, dtype=complex)  # c(-(n-1)), ..., c(n-1)
    for k, c in sym.coeffs.items():
        if abs(k) < n:
            diagonals[k + n - 1] = c
    return _gather(diagonals, n, n, hankel=False)


def hankel_matrix(sym: FourierSymbol, n: int) -> np.ndarray:
    """H_phi truncation: entry(l-1, k) = c(-l-k), rows enumerating e_{-l}.

    For a band-K symbol all entries with (l-1) + k >= K vanish, so the
    truncation is exact once n >= K.  A non-finite coefficient raises
    NonFiniteError.
    """
    _check_block(sym, n, "Hankel")
    a = np.zeros(2 * n, dtype=complex)  # 0, c(-1), ..., c(-(2n-1))
    for k, c in sym.coeffs.items():
        if -2 * n < k < 0:
            a[-k] = c
    return _gather(a, n, n, hankel=True)


def self_commutator(sym: FourierSymbol, n: int) -> np.ndarray:
    """[T_phi^*, T_phi] block via the coefficient formula.

    entry(m, k) = sum_{l>=1} f(m+l) conj(f(k+l)) - g(m+l) conj(g(k+l)),
    a finite sum for finite band; entries vanish once max(m, k) >= band.
    Hermitian by construction, A A^* - B B^* with A and B the n x band
    Hankel blocks of f and g.  Entries beyond the float range raise
    NonFiniteError.
    """
    if n < 1:
        raise RangeError("dimension must be >= 1")
    fa, _, ga, _ = sym._split
    cols = max(sym.band, 1)
    af = _gather(fa, n, cols, hankel=True)
    ag = _gather(ga, n, cols, hankel=True)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows in the check below
        ent = af @ af.conj().T - ag @ ag.conj().T
    if not np.all(np.isfinite(ent.view(float))):
        raise NonFiniteError("self-commutator entries overflow the float range")
    return ent


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
    x = toeplitz_matrix(sym.real_part(), m)
    y = toeplitz_matrix(sym.imag_part(), m)
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


def schatten_norm(mat, p: float) -> float:
    """Schatten p-norm (sum sigma_i^p)^(1/p) of a square block.

    p must lie in [1, inf); NaN is rejected too.  A block that is not
    square or not finite raises RangeError.
    """
    if not 1.0 <= p < math.inf:
        raise RangeError(f"Schatten exponent must lie in [1, inf), got {p}")
    sv = np.linalg.svd(_square(mat), compute_uv=False)
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
    self-commutator block of side d + band - 1.  A corner that is not
    square or not finite raises RangeError.
    """
    if not 0.0 < r < 1.0:
        raise RangeError(f"Poisson radius must lie in (0,1), got {r}")
    if not sym.is_finite_band:
        raise TailError("trace decomposition needs an exact finite-band symbol")
    x = _square(corner)
    d = x.shape[0]
    band = sym.band

    lhs = complex(np.sum(self_commutator(sym.poisson_smooth(r), d) * x.T))

    rv = r ** np.arange(d)
    rxr_t = (x * rv[:, None] * rv).T
    c = self_commutator(sym, d + max(band - 1, 0))
    rhs = r ** 2 * complex(np.sum(c[:d, :d] * rxr_t))
    for ell in range(2, band + 1):
        s = ell - 1
        rhs -= r ** (2 * ell - 2) * (1 - r ** 2) * complex(np.sum(c[s:s + d, s:s + d] * rxr_t))
    return lhs, rhs
