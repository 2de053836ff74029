"""Non-Toeplitz worked examples: bilateral weighted shifts and the Cesaro operator.

Bilateral shifts are windowed to a finite weight table with constant limits
outside; their self-commutators are diagonal and vanish where the weights
are constant, so every reported quantity is exactly window-supported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderError, RangeError, WindowError
from .operators import schatten_norm


@dataclass(frozen=True)
class WeightedShiftSpec:
    """Weights alpha_n of a bilateral shift W e_n = alpha_n e_{n+1}.

    ``weights[i]`` is alpha_{i - window} for i = 0..2*window; outside the
    window the weights equal alpha_minus (n < -window) and alpha_plus
    (n > window).
    """

    weights: tuple
    window: int
    alpha_minus: float
    alpha_plus: float

    def __post_init__(self):
        w = tuple(float(a) for a in self.weights)
        if len(w) != 2 * self.window + 1:
            raise RangeError(f"need {2 * self.window + 1} weights for window {self.window}")
        if any(a < 0 for a in w) or self.alpha_minus < 0 or self.alpha_plus < 0:
            raise RangeError("weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_table(cls, table: dict, alpha_minus: float, alpha_plus: float) -> "WeightedShiftSpec":
        window = max((abs(n) for n in table), default=0)
        weights = [table.get(n, alpha_minus if n < 0 else alpha_plus)
                   for n in range(-window, window + 1)]
        return cls(tuple(weights), window, alpha_minus, alpha_plus)

    def weight(self, n: int) -> float:
        if n < -self.window:
            return self.alpha_minus
        if n > self.window:
            return self.alpha_plus
        return self.weights[n + self.window]


def shift_almost_normality(spec: WeightedShiftSpec) -> float:
    """sum_n |alpha_n^2 - alpha_{n+1}^2|; finite by the window convention.

    Only n in [-window-1, window] can contribute, so the sum is exact.
    """
    return float(sum(abs(spec.weight(n) ** 2 - spec.weight(n + 1) ** 2)
                     for n in range(-spec.window - 1, spec.window + 1)))


def shift_hh_total_variation(spec: WeightedShiftSpec) -> float:
    """(alpha_plus^2 - alpha_minus^2) / 2, the annulus-area formula."""
    if spec.alpha_minus > spec.alpha_plus:
        raise OrderError("only alpha_minus <= alpha_plus is treated")
    return (spec.alpha_plus ** 2 - spec.alpha_minus ** 2) / 2.0


def _beta_weight(spec: WeightedShiftSpec, k: int, n: int) -> float:
    if 0 <= n <= k:
        return spec.alpha_plus
    if -k <= n < 0:
        return spec.alpha_minus
    return spec.weight(n)


def perturbation_family_norm(spec: WeightedShiftSpec, k: int):
    """Trace norm of the commutator of the rank-perturbed shift, two ways.

    The perturbed weights equal alpha_plus on [0, k], alpha_minus on
    [-k, 0) and the original weights elsewhere.  Returns
    ``(closed_form, matrix_value)``: the jump-sum formula (splice terms at
    +-(k+1) plus the untouched tails, all evaluated under the window
    convention) and the trace norm of the windowed matrix commutator.
    Both vanish onto alpha_plus^2 - alpha_minus^2 for k >= window.
    """
    if k < spec.window:
        raise WindowError(f"need k >= window = {spec.window}, got {k}")
    a_p, a_m = spec.alpha_plus, spec.alpha_minus
    closed = abs(a_p ** 2 - a_m ** 2)
    closed += abs(a_p ** 2 - spec.weight(k + 1) ** 2)
    closed += abs(a_m ** 2 - spec.weight(-k - 1) ** 2)
    # untouched tails: jumps strictly beyond the splices
    closed += sum(abs(spec.weight(n) ** 2 - spec.weight(n + 1) ** 2)
                  for n in range(k + 1, spec.window + 1))
    closed += sum(abs(spec.weight(n) ** 2 - spec.weight(n + 1) ** 2)
                  for n in range(-spec.window - 2, -k - 1))

    # windowed matrix computation on indices [-k-2, k+2]
    lo, hi = -k - 2, k + 2
    dim = hi - lo + 1
    shift = np.zeros((dim, dim))
    for n in range(lo, hi):
        shift[n - lo + 1, n - lo] = _beta_weight(spec, k, n)
    comm = shift.T @ shift - shift @ shift.T
    inner = comm[1:-1, 1:-1]  # edge rows/columns carry truncation artifacts
    matrix_value = float(np.sum(np.abs(np.linalg.eigvalsh(inner))))
    return closed, matrix_value


# -- Cesaro operator ---------------------------------------------------------------

# B_2, B_4, ..., B_14: the Bernoulli numbers of the asymptotic trigamma series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _trigamma(x):
    """psi_1(x) = sum_{k>=0} 1/(x+k)^2 for x > 0, scalar or array.

    The recurrence psi_1(x) = 1/x^2 + psi_1(x+1) lifts x to z >= 16, its
    terms summed smallest first; at z the asymptotic series
    1/z + 1/(2z^2) + sum_k B_2k / z^(2k+1) is accurate to rounding.
    """
    x = np.asarray(x, dtype=float)
    steps = np.maximum(np.ceil(16.0 - x), 0.0)
    total = np.zeros_like(x)
    for k in range(int(np.max(steps, initial=0.0)) - 1, -1, -1):
        total += np.where(k < steps, 1.0 / (x + k) ** 2, 0.0)
    z = x + steps
    series = np.polyval(_BERNOULLI[::-1], 1.0 / (z * z))
    return total + (1.0 + (0.5 + series / z) / z) / z


def cesaro_matrix(n: int) -> np.ndarray:
    """n x n truncation of the averaging operator: row m holds 1/(m+1) up to m."""
    ent = np.tril(np.ones((n, n))) / np.arange(1, n + 1)[:, None]
    return ent


def cesaro_commutator(n: int):
    """Partial trace and PSD check of [C0*, C0] on the inner (n/2) block.

    The size-n truncation of C0* C0 misses the uniform tail
    sum_{l >= n} 1/(l+1)^2, a rank-one deficit of norm ~ n/(2n) that would
    wreck positivity; the trigamma value of the tail is added back so the
    inner block is exact.  C0 C0* truncates exactly.
    """
    if n < 4:
        raise RangeError("need n >= 4")
    c = cesaro_matrix(n)
    tail = float(_trigamma(n + 1))
    gram = c.T @ c + tail
    co = c @ c.T
    inner = (gram - co)[: n // 2, : n // 2]
    trace_partial = float(np.trace(inner))
    min_eig = float(np.min(np.linalg.eigvalsh(inner)))
    return trace_partial, min_eig >= -1e-10


def cesaro_inner_block_exact(m: int) -> np.ndarray:
    """Closed-form m x m block of [C0*, C0] via trigamma, for cross-checks."""
    idx = np.arange(m)
    mx = np.maximum(idx[:, None], idx[None, :])
    mn = np.minimum(idx[:, None], idx[None, :])
    gram = _trigamma(mx + 1)
    co = (mn + 1) / ((idx[:, None] + 1.0) * (idx[None, :] + 1.0))
    return np.asarray(gram - co, dtype=float)


# -- Hilbert-Schmidt cutoff example -----------------------------------------------

def hs_cutoff_commutator_norms(t: np.ndarray) -> list[float]:
    """Trace norms of [(T(1-P_n))*, T(1-P_n)] for n = 0..dim.

    P_n projects onto the first n basis vectors, so the final entry is
    exactly zero; for finite matrices the vanishing limit is exact.
    """
    t = np.asarray(t, dtype=complex)
    dim = t.shape[0]
    norms = []
    for n in range(dim + 1):
        cut = t.copy()
        cut[:, :n] = 0.0
        norms.append(schatten_norm(cut.conj().T @ cut - cut @ cut.conj().T, 1))
    return norms


def summary_table() -> list[dict]:
    """Fixed computed-vs-closed-form table of the worked examples."""
    rows = []

    spec = WeightedShiftSpec.from_table({0: 1.0}, alpha_minus=0.0, alpha_plus=1.0)
    rows.append({"case": "weighted_shift", "quantity": "almost_normality_sum",
                 "computed": shift_almost_normality(spec), "closed_form": 1.0})
    rows.append({"case": "weighted_shift", "quantity": "hh_total_variation",
                 "computed": shift_hh_total_variation(spec), "closed_form": 0.5})
    closed, matrix_value = perturbation_family_norm(spec, k=2)
    rows.append({"case": "weighted_shift", "quantity": "perturbation_norm_k2",
                 "computed": matrix_value, "closed_form": closed})

    for n in (64, 128):
        tr, psd = cesaro_commutator(n)
        rows.append({"case": "cesaro", "quantity": f"partial_trace_N{n}",
                     "computed": tr, "closed_form": None})
        rows.append({"case": "cesaro", "quantity": f"psd_check_N{n}",
                     "computed": bool(psd), "closed_form": True})

    rng = np.random.default_rng(7)
    t = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    norms = hs_cutoff_commutator_norms(t)
    rows.append({"case": "hilbert_schmidt", "quantity": "cutoff_commutator_final",
                 "computed": norms[-1], "closed_form": 0.0})
    return rows
