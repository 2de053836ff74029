"""Truncated Toeplitz, Hankel and commutator matrices on the Hardy space.

Finite-band symbols make the key infinite-dimensional objects exactly
computable on finite corners: Toeplitz truncations are entrywise exact,
Hankel matrices and self-commutators are finitely supported, and every
word in X = T_{Re phi}, Y = T_{Im phi} agrees with the infinite product on
a corner once the inner truncation is padded by (word length) x (band).
All operations are pure; results may be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError, StabilizationError, TailError
from .poly import BivariatePolynomial
from .symbols import FourierSymbol

_HERM_TOL = 1e-12


@dataclass(frozen=True)
class NCWord:
    """Nonempty word over the alphabet {X, Y}."""

    letters: str

    def __post_init__(self):
        if not self.letters or set(self.letters) - {"X", "Y"}:
            raise ValueError(f"word must be a nonempty string over X/Y, got {self.letters!r}")

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


@dataclass(frozen=True)
class TruncatedMatrix:
    """N x N complex block with provenance and an exactness marker.

    ``exact_block = B`` means the top-left B x B block coincides with the
    corresponding block of the infinite operator.
    """

    dim: int
    entries: np.ndarray
    provenance: str = ""
    exact_block: int | None = None
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

    def to_csv(self) -> str:
        """Row-major dump of re,im pairs with a dim/provenance header."""
        lines = [f"# dim={self.dim} provenance={self.provenance}"]
        for row in self.entries:
            lines.append(",".join(f"{v.real:.17g},{v.imag:.17g}" for v in row))
        return "\n".join(lines) + "\n"


# -- matrix constructions -----------------------------------------------------

def toeplitz_matrix(sym: FourierSymbol, n: int) -> TruncatedMatrix:
    """T_phi truncation: entry(m, k) = c(m - k).  Entrywise exact."""
    if n < 1:
        raise RangeError("dimension must be >= 1")
    idx = np.arange(n)
    diff = idx[:, None] - idx[None, :]
    ent = np.zeros((n, n), dtype=complex)
    for k, c in sym.coeffs.items():
        ent[diff == k] = c
    return TruncatedMatrix(n, ent, f"T[{sym.describe()}]", exact_block=n,
                           selfadjoint=sym.real_valued)


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
    return TruncatedMatrix(n, ent, f"H[{sym.describe()}]", exact_block=n)


def self_commutator(sym: FourierSymbol, n: int) -> TruncatedMatrix:
    """[T_phi^*, T_phi] block via the coefficient formula.

    entry(m, k) = sum_{l>=1} f(m+l) conj(f(k+l)) - g(m+l) conj(g(k+l)),
    a finite sum for finite band; entries vanish once max(m, k) >= band.
    """
    if n < 1:
        raise RangeError("dimension must be >= 1")
    f, g = sym.analytic_split()
    band = sym.band
    af = np.zeros((n, max(band, 1)), dtype=complex)
    ag = np.zeros((n, max(band, 1)), dtype=complex)
    for m in range(min(n, band)):
        for li in range(1, band + 1):
            af[m, li - 1] = f.coeff(m + li)
            ag[m, li - 1] = g.coeff(m + li)
    ent = af @ af.conj().T - ag @ ag.conj().T
    return TruncatedMatrix(n, ent, f"[T*,T][{sym.describe()}]", exact_block=n,
                           selfadjoint=True)


def word_matrix(sym: FourierSymbol, word, n: int) -> TruncatedMatrix:
    """Exact top-left block of a word in X = T_{Re phi}, Y = T_{Im phi}.

    Each factor has bandwidth K = band(phi), so entries of the infinite
    product at indices < n only involve indices < n + len(word) * K; the
    product of truncations of that inner size is therefore exact on the
    requested block.
    """
    if not isinstance(word, NCWord):
        word = NCWord(str(word))
    if not sym.is_finite_band:
        raise TailError("word evaluation needs an exact finite-band symbol; truncate first")
    if n < 1:
        raise RangeError("dimension must be >= 1")
    k = sym.band
    m = n + len(word) * k
    x = toeplitz_matrix(sym.real_part(), m).entries
    y = toeplitz_matrix(sym.imag_part(), m).entries
    prod = np.eye(m, dtype=complex)
    for letter in word:
        prod = prod @ (x if letter == "X" else y)
    return TruncatedMatrix(n, prod[:n, :n],
                           f"word[{word.letters}]({sym.describe()})", exact_block=n)


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


def commutator_trace(sym: FourierSymbol, p: BivariatePolynomial,
                     q: BivariatePolynomial, n_override: int | None = None,
                     *, _details: bool = False):
    """Trace of the trace-class commutator [p(X,Y), q(X,Y)].

    Every word of length L in band-K Toeplitz operators is Toeplitz plus a
    correction supported in an (L*K) x (L*K) corner, so the commutator is
    exactly supported in a ((deg p + deg q + 1) * K)^2 corner and its trace
    is a finite computation.  A stabilization check at twice the truncation
    guards the support reasoning (and any caller-supplied override).
    """
    if not sym.is_finite_band:
        raise TailError("commutator traces need an exact finite-band symbol")
    k = max(sym.band, 1)
    n = n_override if n_override is not None else (p.degree + q.degree + 2) * k
    if n < 1:
        raise RangeError("truncation override must be >= 1")
    t1 = complex(np.trace(_commutator_block(sym, p, q, n)))
    t2 = complex(np.trace(_commutator_block(sym, p, q, 2 * n)))
    if abs(t1 - t2) > 1e-10:
        raise StabilizationError(
            f"trace changed from {t1} to {t2} between N={n} and N={2 * n}")
    if _details:
        return t2, 2 * n
    return t2


def schatten_norm(mat: TruncatedMatrix, p: float) -> float:
    """Schatten p-norm (sum sigma_i^p)^(1/p) over the exact block.

    When ``exact_block < dim`` only the exact part enters, making the value
    a certified lower bound for the infinite operator.
    """
    if p < 1:
        raise RangeError(f"Schatten exponent must be >= 1, got {p}")
    b = mat.exact_block if mat.exact_block is not None else mat.dim
    sv = np.linalg.svd(mat.entries[:b, :b], compute_uv=False)
    if p == 1:
        return float(np.sum(sv))
    if p == 2:
        return float(np.sqrt(np.sum(sv ** 2)))
    return float(np.sum(sv ** p) ** (1.0 / p))


# -- smoothing decomposition machinery ------------------------------------------

def power_diag(r: float, n: int) -> TruncatedMatrix:
    """diag(1, r, r^2, ..., r^{n-1})."""
    if not 0.0 < r < 1.0:
        raise RangeError(f"diagonal ratio must lie in (0,1), got {r}")
    if n < 1:
        raise RangeError("dimension must be >= 1")
    return TruncatedMatrix(n, np.diag(r ** np.arange(n, dtype=float)).astype(complex),
                           f"diag(r^n, r={r:g})", exact_block=n, selfadjoint=True)


def shift_conjugate(mat: TruncatedMatrix, ell: int) -> TruncatedMatrix:
    """Embed a corner block shifted down-right by ell - 1 positions.

    entry(m, k) of the result is entry(m-ell+1, k-ell+1) of the input when
    both indices are >= ell - 1, and 0 otherwise; the output dimension grows
    accordingly.  The shift amount ell - 1 is forced by the index arithmetic
    of the trace decomposition below (see smoothing_trace_identity).
    """
    if ell < 2:
        raise RangeError(f"shift index must be >= 2, got {ell}")
    s = ell - 1
    n = mat.dim + s
    ent = np.zeros((n, n), dtype=complex)
    ent[s:, s:] = mat.entries
    exact = n if mat.exact_block == mat.dim else None
    return TruncatedMatrix(n, ent, mat.provenance + f"|shift({ell})", exact,
                           mat.selfadjoint)


def smoothing_trace_identity(sym: FourierSymbol, corner, r: float):
    """Both sides of the trace decomposition that extracts the Poisson radius.

    Returns ``(lhs, rhs)`` with

        lhs = tr([T_{phi_r}^*, T_{phi_r}] X)
        rhs = r^2 tr([T_phi^*, T_phi] R X R)
              - sum_{l>=2} r^{2l-2} (1 - r^2) tr([T_phi^*, T_phi] (R X R)^{(l)})

    where R = diag(r^n) and (.)^{(l)} is `shift_conjugate`.  The l-sum stops
    at l = band since the shifted corner then leaves the support of the
    commutator.
    """
    if not 0.0 < r < 1.0:
        raise RangeError(f"Poisson radius must lie in (0,1), got {r}")
    if not sym.is_finite_band:
        raise TailError("trace decomposition needs an exact finite-band symbol")
    x = corner.entries if isinstance(corner, TruncatedMatrix) else np.asarray(corner, dtype=complex)
    d = x.shape[0]
    band = sym.band

    c_small = self_commutator(sym.poisson_smooth(r), d).entries
    lhs = complex(np.trace(c_small @ x))

    diag = power_diag(r, d).entries
    rxr = TruncatedMatrix(d, diag @ x @ diag)
    c = self_commutator(sym, d).entries
    rhs = r ** 2 * complex(np.trace(c @ rxr.entries))
    for ell in range(2, band + 1):
        shifted = shift_conjugate(rxr, ell)
        c_big = self_commutator(sym, shifted.dim).entries
        rhs -= r ** (2 * ell - 2) * (1 - r ** 2) * complex(np.trace(c_big @ shifted.entries))
    return lhs, rhs
