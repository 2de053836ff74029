"""Fourier symbols on the unit circle and their harmonic extensions.

A symbol phi in L^inf(T) is represented by its table of Fourier coefficients
``c(k)``.  Exact finite-band symbols carry ``tail_bound == 0``; truncations of
infinite series carry a reported bound on the discarded coefficient mass.
The harmonic extension Phi on the unit disc,

    Phi(r e^{i theta}) = sum_{k>=0} c(k) r^k e^{ik theta}
                       + sum_{k>0}  c(-k) r^k e^{-ik theta},

is evaluated through the analytic/coanalytic split phi = f + conj(g), so
Phi(z) = F(z) + conj(G(z)) with F, G polynomials (power series) in z.  The
coefficient arrays of F, G and their derivatives are built once per symbol,
on first evaluation, and every evaluation, derivative and Jacobian reads them.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (DomainError, NonFiniteError, RangeError, SampleCountError, SchemaError,
                     TailError)

_SYM_TOL = 1e-12  # tolerance for the real-valuedness check c(-k) == conj(c(k))
# largest |k| a symbol file may hold: no curve of a larger band can be sampled
# within degree._MAX_CURVE_POINTS = 2 * _MAX_BAND points
_MAX_BAND = 1 << 17


@dataclass(frozen=True, eq=True)
class FourierSymbol:
    """Finitely supported Fourier coefficient table with a tail bound.

    Parameters
    ----------
    coeffs : dict
        Map from integer frequency k to the complex coefficient c(k).
        Zero coefficients are dropped on construction.
    tail_bound : float
        Reported bound on ``sum_{|k|>band} |c(k)|`` when the symbol was
        truncated from an infinite series.  0 for exact finite-band symbols.
    real_valued : bool
        If set, ``c(-k) == conj(c(k))`` is verified on construction.
    """

    coeffs: dict = field(default_factory=dict)
    tail_bound: float = 0.0
    real_valued: bool = False

    def __post_init__(self):
        clean = {}
        for k, c in self.coeffs.items():
            c = complex(c)
            if c != 0:
                clean[int(k)] = c
        object.__setattr__(self, "coeffs", clean)
        if self.tail_bound < 0:
            raise RangeError("tail_bound must be nonnegative")
        if self.real_valued:
            scale = max(1.0, max((abs(c) for c in clean.values()), default=0.0))
            for k, c in clean.items():
                if abs(c - np.conj(clean.get(-k, 0.0))) > _SYM_TOL * scale:
                    raise RangeError(
                        f"real_valued symbol violates c(-k)=conj(c(k)) at k={k}"
                    )

    # -- construction --------------------------------------------------------

    @classmethod
    def from_samples(cls, values) -> "FourierSymbol":
        """Recover coefficients from 2^m equispaced boundary samples.

        The samples are phi(e^{i t_j}) at t_j = 2 pi j / n.  The discrete
        transform assigns the Nyquist frequency to +n/2, so the band is at
        most n/2 and re-evaluation at the sample angles reproduces the
        inputs to machine accuracy.  Samples so large that their transform
        overflows raise NonFiniteError.
        """
        values = np.asarray(values, dtype=complex)
        n = values.size
        if values.ndim != 1 or n < 4 or (n & (n - 1)) != 0:
            raise SampleCountError(
                f"need a 1-D power-of-two sample array with >= 4 points, got shape {values.shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # overflow shows in the check below
            spectrum = np.fft.fft(values) / n
            size = float(np.max(np.abs(values)))
        if not (np.isfinite(size) and np.all(np.isfinite(spectrum.view(float)))):
            raise NonFiniteError("the transform of the samples overflows the float range")
        tol = 1e-13 * max(1.0, size)
        coeffs = {}
        for j in range(n):
            k = j if j <= n // 2 else j - n
            if abs(spectrum[j]) > tol:
                coeffs[k] = complex(spectrum[j])
        real = bool(np.max(np.abs(values.imag), initial=0.0) <= tol)
        return cls(coeffs, 0.0, real)

    # -- basic queries ---------------------------------------------------------

    @property
    def band(self) -> int:
        """Smallest K with c(k) = 0 for |k| > K."""
        if not self.coeffs:
            return 0
        return max(abs(k) for k in self.coeffs)

    @property
    def is_finite_band(self) -> bool:
        return self.tail_bound == 0.0

    def coeff(self, k: int) -> complex:
        return self.coeffs.get(k, 0j)

    def one_norm(self) -> float:
        """Coefficient l^1 norm, a sup-norm proxy (excludes the tail bound); inf on overflow."""
        try:
            return float(sum(abs(c) for c in self.coeffs.values()))
        except OverflowError:  # a modulus beyond the float range
            return math.inf

    # -- derived symbols -------------------------------------------------------

    def poisson_smooth(self, r: float) -> "FourierSymbol":
        """Convolve with the Poisson kernel: c(k) -> r^{|k|} c(k)."""
        if not 0.0 < r < 1.0:
            raise RangeError(f"Poisson radius must lie in (0,1), got {r}")
        coeffs = {k: c * r ** abs(k) for k, c in self.coeffs.items()}
        tail = self.tail_bound * r ** (self.band + 1)
        return FourierSymbol(coeffs, tail, self.real_valued)

    def analytic_split(self) -> tuple["FourierSymbol", "FourierSymbol"]:
        """Split phi = f + conj(g) with f analytic and g(0) = 0.

        The constant term lives entirely in f, which makes the split unique.
        """
        fa, _, ga, _ = self._split
        return (FourierSymbol(dict(enumerate(fa)), self.tail_bound),
                FourierSymbol(dict(enumerate(ga)), self.tail_bound))

    def conjugate(self) -> "FourierSymbol":
        """Symbol of conj(phi): c'(k) = conj(c(-k))."""
        return FourierSymbol({-k: np.conj(c) for k, c in self.coeffs.items()},
                             self.tail_bound, self.real_valued)

    def real_part(self) -> "FourierSymbol":
        coeffs = {}
        for k in set(self.coeffs) | {-k for k in self.coeffs}:
            c = (self.coeff(k) + np.conj(self.coeff(-k))) / 2
            if c != 0:
                coeffs[k] = c
        return FourierSymbol(coeffs, self.tail_bound, real_valued=True)

    def imag_part(self) -> "FourierSymbol":
        coeffs = {}
        for k in set(self.coeffs) | {-k for k in self.coeffs}:
            c = (self.coeff(k) - np.conj(self.coeff(-k))) / 2j
            if c != 0:
                coeffs[k] = c
        return FourierSymbol(coeffs, self.tail_bound, real_valued=True)

    # -- series arrays ---------------------------------------------------------

    @cached_property
    def _split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Ascending arrays (F, F', G, G') of the split Phi = F + conj(G).

        F = [c(0), ..., c(K)] holds the analytic half and G = [0, g(1), ...,
        g(K)] with g(k) = conj(c(-k)) the coanalytic one; this is the only
        place that assigns a coefficient to a half.  Built on first use and
        kept, which is sound because ``coeffs`` never changes after
        construction; the arrays are shared by every caller, so they are
        read-only.  A derivative coefficient k c(k) beyond the float range is
        stored as it overflows, without a warning; the integrals that read
        the derivatives check that their results are finite.
        """
        fa = np.zeros(max((k for k in self.coeffs if k >= 0), default=0) + 1, dtype=complex)
        ga = np.zeros(max((-k for k in self.coeffs if k < 0), default=0) + 1, dtype=complex)
        for k, c in self.coeffs.items():
            if k >= 0:
                fa[k] = c
            else:
                ga[-k] = np.conj(c)
        with np.errstate(over="ignore", invalid="ignore"):
            arrays = (fa, npoly.polyder(fa), ga, npoly.polyder(ga))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    # -- evaluation --------------------------------------------------------------

    def harmonic_eval(self, z):
        """Evaluate the harmonic extension Phi at z (scalar or array).

        Interior points are always allowed; |z| = 1 requires an exact
        finite-band symbol (absolute convergence is then trivial).  A value
        beyond the float range raises NonFiniteError.
        """
        zv = np.asarray(z, dtype=complex)
        a = np.abs(zv)
        if np.any(a > 1.0 + 1e-12):
            raise DomainError("harmonic extension is only defined on the closed disc")
        if not self.is_finite_band and np.any(a >= 1.0):
            raise TailError("boundary evaluation needs an exact finite-band symbol")
        with np.errstate(over="ignore", invalid="ignore"):
            out = _eval_extension(self, zv)
        if not np.all(np.isfinite(out)):
            raise NonFiniteError("the harmonic extension overflows the float range")
        if np.isscalar(z):
            return complex(out)
        return out

    def wirtinger(self, z) -> tuple[complex, complex]:
        """(dPhi/dz, dPhi/dzbar) at an interior point; NonFiniteError beyond the float range."""
        if np.any(np.abs(np.asarray(z)) >= 1.0):
            raise DomainError("Wirtinger derivatives require |z| < 1")
        with np.errstate(over="ignore", invalid="ignore"):
            dz, dzbar = _wirtinger(self, z)
        if not (np.all(np.isfinite(dz)) and np.all(np.isfinite(dzbar))):
            raise NonFiniteError("the Wirtinger derivatives overflow the float range")
        if np.isscalar(z):
            return complex(dz), complex(dzbar)
        return dz, dzbar

    def jacobian(self, z) -> float:
        """J(Phi)(z) = |dPhi/dz|^2 - |dPhi/dzbar|^2; NonFiniteError beyond the float range."""
        dz, dzbar = self.wirtinger(z)
        with np.errstate(over="ignore", invalid="ignore"):
            jac = float(np.abs(dz) ** 2 - np.abs(dzbar) ** 2)
        if not np.isfinite(jac):
            raise NonFiniteError("the Jacobian overflows the float range")
        return jac


# -- unchecked evaluation helpers (used by root iterations) --------------------

def _horner(z, c):
    """sum_k c[k] z^k by Horner's rule, updating one result array in place.

    The same operations in the same order as ``npoly.polyval(z, c)``, so
    the result is bit-identical, without a temporary per coefficient; c is a
    non-empty float or complex array, z a scalar or an array.
    """
    out = c[-1] + z * 0
    for a in c[-2::-1]:
        out *= z
        out += a
    return out


def _eval_extension(sym: FourierSymbol, z):
    """F(z) + conj(G(z)); valid for any z since both halves are polynomials."""
    fa, _, gb, _ = sym._split
    out = _horner(z, fa)
    if gb.size > 1:
        out += np.conj(_horner(z, gb))
    return out


def _wirtinger(sym: FourierSymbol, z):
    """(dPhi/dz, dPhi/dzbar) without domain checks."""
    fa, fd, gb, gd = sym._split
    dz = _horner(z, fd) if fa.size > 1 else np.zeros_like(np.asarray(z))
    if gb.size > 1:
        dzbar = np.conj(_horner(z, gd))
    else:
        dzbar = np.zeros_like(np.asarray(z))
    return dz, dzbar


def _jacobian(sym: FourierSymbol, z):
    dz, dzbar = _wirtinger(sym, z)
    return np.abs(dz) ** 2 - np.abs(dzbar) ** 2


# -- symbol-spec files ------------------------------------------------------------

def _finite_number(value) -> bool:
    """A JSON number (not a bool) within the finite float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def load_symbol_spec(source) -> FourierSymbol:
    """Load a symbol from the JSON symbol-spec format.

    Accepted shapes::

        {"type": "finite_band", "coeffs": [{"k": 1, "re": 1.0, "im": 0.0}, ...]}
        {"type": "samples", "values": [[re, im], ...]}   # power-of-two length

    Unknown fields, non-finite numbers (NaN, +-Infinity), frequencies
    with |k| > _MAX_BAND and more than 2 * _MAX_BAND samples are rejected.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot parse symbol file: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise SchemaError("symbol spec must be a JSON object")
    kind = doc.get("type")
    if kind == "finite_band":
        extra = set(doc) - {"type", "coeffs"}
        if extra:
            raise SchemaError(f"unknown fields in symbol spec: {sorted(extra)}")
        entries = doc.get("coeffs")
        if not isinstance(entries, list):
            raise SchemaError("'coeffs' must be a list")
        coeffs = {}
        for item in entries:
            if not isinstance(item, dict) or set(item) != {"k", "re", "im"}:
                raise SchemaError(f"coefficient entries need exactly k/re/im, got {item!r}")
            k, re, im = item["k"], item["re"], item["im"]
            if not isinstance(k, int) or isinstance(k, bool):
                raise SchemaError(f"'k' must be an integer, got {k!r}")
            if abs(k) > _MAX_BAND:
                raise SchemaError(f"|k| must be at most {_MAX_BAND}, got {k}")
            if not (_finite_number(re) and _finite_number(im)):
                raise SchemaError(f"'re'/'im' must be finite numbers, got {item!r}")
            coeffs[k] = coeffs.get(k, 0j) + complex(re, im)
        return FourierSymbol(coeffs)
    if kind == "samples":
        extra = set(doc) - {"type", "values"}
        if extra:
            raise SchemaError(f"unknown fields in symbol spec: {sorted(extra)}")
        values = doc.get("values")
        if not isinstance(values, list):
            raise SchemaError("'values' must be a list")
        if len(values) > 2 * _MAX_BAND:  # n samples carry frequencies up to n / 2
            raise SchemaError(f"at most {2 * _MAX_BAND} samples, got {len(values)}")
        samples = []
        for pair in values:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(_finite_number(v) for v in pair)):
                raise SchemaError(
                    f"sample entries must be [re, im] pairs of finite numbers, got {pair!r}")
            samples.append(complex(pair[0], pair[1]))
        return FourierSymbol.from_samples(samples)
    raise SchemaError(f"unknown symbol spec type {kind!r}")
