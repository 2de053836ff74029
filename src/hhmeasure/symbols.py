"""Fourier symbols on the unit circle and their harmonic extensions.

A symbol phi in L^inf(T) is represented by its table of Fourier coefficients
``c(k)``.  Exact finite-band symbols carry ``tail_bound == 0``; truncations of
infinite series carry a reported bound on the discarded coefficient mass.
The harmonic extension Phi on the unit disc,

    Phi(r e^{i theta}) = sum_{k>=0} c(k) r^k e^{ik theta}
                       + sum_{k>0}  c(-k) r^k e^{-ik theta},

is evaluated through the analytic/coanalytic split phi = f + conj(g), so
Phi(z) = F(z) + conj(G(z)) with F, G polynomials (power series) in z.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, RangeError, SampleCountError, SchemaError, TailError

_SYM_TOL = 1e-12  # tolerance for the real-valuedness check c(-k) == conj(c(k))


@dataclass(frozen=True)
class DiskPoint:
    """A point of the closed unit disc; construction rejects |z| > 1."""

    z: complex

    def __post_init__(self):
        if abs(self.z) > 1.0 + 1e-12:
            raise DomainError(f"|z| = {abs(self.z)} exceeds 1")

    @property
    def interior(self) -> bool:
        return abs(self.z) < 1.0


def _as_complex(z):
    """Unwrap DiskPoint, pass through scalars and arrays."""
    if isinstance(z, DiskPoint):
        return z.z
    return z


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
        inputs to machine accuracy.
        """
        values = np.asarray(values, dtype=complex)
        n = values.size
        if values.ndim != 1 or n < 4 or (n & (n - 1)) != 0:
            raise SampleCountError(
                f"need a 1-D power-of-two sample array with >= 4 points, got shape {values.shape}"
            )
        spectrum = np.fft.fft(values) / n
        tol = 1e-13 * max(1.0, float(np.max(np.abs(values))))
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
        """Coefficient l^1 norm, a sup-norm proxy (excludes the tail bound)."""
        return float(sum(abs(c) for c in self.coeffs.values()))

    def describe(self) -> str:
        return f"symbol(band={self.band}, nnz={len(self.coeffs)}, tail={self.tail_bound:g})"

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
        f = {k: c for k, c in self.coeffs.items() if k >= 0}
        g = {-k: np.conj(c) for k, c in self.coeffs.items() if k < 0}
        return (FourierSymbol(f, self.tail_bound),
                FourierSymbol(g, self.tail_bound))

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

    def _analytic_coeffs(self) -> np.ndarray:
        """Ascending array [f(0), ..., f(K)] of the analytic half."""
        k_max = max((k for k in self.coeffs if k >= 0), default=0)
        arr = np.zeros(k_max + 1, dtype=complex)
        for k, c in self.coeffs.items():
            if k >= 0:
                arr[k] = c
        return arr

    def _coanalytic_coeffs(self) -> np.ndarray:
        """Ascending array [0, g(1), ..., g(K)] with g(k) = conj(c(-k))."""
        k_max = max((-k for k in self.coeffs if k < 0), default=0)
        arr = np.zeros(k_max + 1, dtype=complex)
        for k, c in self.coeffs.items():
            if k < 0:
                arr[-k] = np.conj(c)
        return arr

    # -- evaluation --------------------------------------------------------------

    def harmonic_eval(self, z):
        """Evaluate the harmonic extension Phi at z (scalar or array).

        Interior points are always allowed; |z| = 1 requires an exact
        finite-band symbol (absolute convergence is then trivial).
        """
        zv = np.asarray(_as_complex(z), dtype=complex)
        a = np.abs(zv)
        if np.any(a > 1.0 + 1e-12):
            raise DomainError("harmonic extension is only defined on the closed disc")
        if not self.is_finite_band and np.any(a >= 1.0):
            raise TailError("boundary evaluation needs an exact finite-band symbol")
        out = _eval_extension(self, zv)
        if np.isscalar(z) or isinstance(z, (complex, float, int, DiskPoint)):
            return complex(out)
        return out

    def boundary_values(self, thetas) -> np.ndarray:
        """phi(e^{i theta}) for an array of angles (finite band only)."""
        if not self.is_finite_band:
            raise TailError("boundary values need an exact finite-band symbol")
        thetas = np.asarray(thetas, dtype=float)
        return _eval_extension(self, np.exp(1j * thetas))

    def wirtinger(self, z) -> tuple[complex, complex]:
        """Wirtinger derivatives (dPhi/dz, dPhi/dzbar) at an interior point."""
        zv = _as_complex(z)
        if np.any(np.abs(np.asarray(zv)) >= 1.0):
            raise DomainError("Wirtinger derivatives require |z| < 1")
        dz, dzbar = _wirtinger(self, zv)
        if np.isscalar(zv) or isinstance(zv, complex):
            return complex(dz), complex(dzbar)
        return dz, dzbar

    def jacobian(self, z) -> float:
        """J(Phi)(z) = |dPhi/dz|^2 - |dPhi/dzbar|^2."""
        dz, dzbar = self.wirtinger(z)
        return float(abs(dz) ** 2 - abs(dzbar) ** 2)


# -- unchecked evaluation helpers (used by root iterations) --------------------

def _eval_extension(sym: FourierSymbol, z):
    """F(z) + conj(G(z)); valid for any z since both halves are polynomials."""
    fa = sym._analytic_coeffs()
    gb = sym._coanalytic_coeffs()
    out = npoly.polyval(z, fa)
    if gb.size > 1:
        out = out + np.conj(npoly.polyval(z, gb))
    return out


def _wirtinger(sym: FourierSymbol, z):
    """(dPhi/dz, dPhi/dzbar) without domain checks."""
    fa = sym._analytic_coeffs()
    gb = sym._coanalytic_coeffs()
    dz = npoly.polyval(z, npoly.polyder(fa)) if fa.size > 1 else np.zeros_like(np.asarray(z))
    if gb.size > 1:
        dzbar = np.conj(npoly.polyval(z, npoly.polyder(gb)))
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

    Unknown fields and non-finite numbers (NaN, +-Infinity) are rejected.
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
        samples = []
        for pair in values:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(_finite_number(v) for v in pair)):
                raise SchemaError(
                    f"sample entries must be [re, im] pairs of finite numbers, got {pair!r}")
            samples.append(complex(pair[0], pair[1]))
        return FourierSymbol.from_samples(samples)
    raise SchemaError(f"unknown symbol spec type {kind!r}")
