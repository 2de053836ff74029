"""Real bivariate polynomials p(x, y) with exact coefficient arithmetic."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class BivariatePolynomial:
    """Polynomial sum_{i,j} c[i,j] x^i y^j with finitely many real coefficients."""

    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (i, j), c in self.coeffs.items():
            c = float(c)
            if c != 0.0:
                clean[(int(i), int(j))] = c
        object.__setattr__(self, "coeffs", clean)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "BivariatePolynomial":
        return cls({(0, 0): c})

    @classmethod
    def x(cls) -> "BivariatePolynomial":
        return cls({(1, 0): 1.0})

    @classmethod
    def y(cls) -> "BivariatePolynomial":
        return cls({(0, 1): 1.0})

    @classmethod
    def monomial(cls, i: int, j: int, c: float = 1.0) -> "BivariatePolynomial":
        return cls({(i, j): c})

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.coeffs)
        for ij, c in other.coeffs.items():
            out[ij] = out.get(ij, 0.0) + c
        return BivariatePolynomial(out)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __neg__(self):
        return BivariatePolynomial({ij: -c for ij, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return BivariatePolynomial({ij: c * other for ij, c in self.coeffs.items()})
        other = _coerce(other)
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                ij = (i1 + i2, j1 + j2)
                out[ij] = out.get(ij, 0.0) + c1 * c2
        return BivariatePolynomial(out)

    __rmul__ = __mul__

    # -- calculus ------------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree max(i + j); 0 for the zero polynomial."""
        if not self.coeffs:
            return 0
        return max(i + j for i, j in self.coeffs)

    def partial_x(self) -> "BivariatePolynomial":
        return BivariatePolynomial(
            {(i - 1, j): i * c for (i, j), c in self.coeffs.items() if i > 0})

    def partial_y(self) -> "BivariatePolynomial":
        return BivariatePolynomial(
            {(i, j - 1): j * c for (i, j), c in self.coeffs.items() if j > 0})

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape, dtype=float)
        for (i, j), c in self.coeffs.items():
            out = out + c * x ** i * y ** j
        if out.ndim == 0:
            return float(out)
        return out

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j) in sorted(self.coeffs):
            c = self.coeffs[(i, j)]
            factors = [f"{c:g}"]
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            parts.append("*".join(factors))
        return "+".join(parts).replace("+-", "-")


def _coerce(value) -> BivariatePolynomial:
    if isinstance(value, BivariatePolynomial):
        return value
    if isinstance(value, (int, float)):
        return BivariatePolynomial.constant(value)
    raise TypeError(f"cannot coerce {value!r} to a polynomial")


def jacobian_bracket(p: BivariatePolynomial, q: BivariatePolynomial) -> BivariatePolynomial:
    """J(p, q) = p_x q_y - q_x p_y, computed exactly on coefficients."""
    return p.partial_x() * q.partial_y() - q.partial_x() * p.partial_y()


def parse_polynomial(text: str) -> BivariatePolynomial:
    """Parse the explicit monomial syntax, e.g. ``x^2*y + 3*x - 0.5``.

    Terms are joined by + or -; each term is an optional finite coefficient
    (decimal or scientific, e.g. ``1e-3``) times optional powers of x and y.
    An optional ``poly:`` prefix is stripped.
    """
    s = text.strip()
    if s.startswith("poly:"):
        s = s[len("poly:"):]
    s = s.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    terms = re.split(r"(?<![eE])(?=[+-])", s)   # a sign after e/E is an exponent's
    if not terms[0]:
        terms = terms[1:]
    coeffs = {}
    for term in terms:
        sign = -1.0 if term[0] == "-" else 1.0
        if term[0] in "+-":
            term = term[1:]
        if not term:
            raise ValueError(f"malformed polynomial {text!r}")
        coef = sign
        i = j = 0
        for factor in term.split("*"):
            m = re.fullmatch(r"(x|y)(?:\^(\d+))?", factor)
            if m:
                power = int(m.group(2) or 1)
                if m.group(1) == "x":
                    i += power
                else:
                    j += power
                continue
            try:
                coef *= float(factor)
            except ValueError:
                raise ValueError(f"bad factor {factor!r} in polynomial {text!r}") from None
        if not math.isfinite(coef):
            raise ValueError(f"non-finite coefficient in polynomial {text!r}")
        coeffs[(i, j)] = coeffs.get((i, j), 0.0) + coef
    return BivariatePolynomial(coeffs)
