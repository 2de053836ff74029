import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from conftest import load_perfbench, ring_by_ring_partials
from hhmeasure import FourierSymbol, besov
from hhmeasure.besov import (almost_normal_sufficient, analytic_besov_seminorm,
                             besov_membership, default_radii, hankel_schatten_probe,
                             jacobian_integrability)
from hhmeasure.errors import ConjugateError, RangeError, TailError
from hhmeasure.symbols import _horner, _jacobian

DIVERGENT_RADII = (0.75, 0.9375, 0.984375)  # stop before band-40 saturation


class TestAnalyticSeminorm:
    @pytest.mark.parametrize("k", range(1, 11))
    def test_monomial_identity(self, k):
        # polar closed form: int_D |k z^{k-1}|^2 = pi k
        rep = analytic_besov_seminorm(FourierSymbol({k: 1.0}), 2.0, radii=[0.5, 1.0])
        assert rep.seminorm_partial == pytest.approx(math.pi * k, abs=1e-6)

    def test_constant_zero(self):
        rep = analytic_besov_seminorm(FourierSymbol({0: 3.0}), 2.0)
        assert rep.seminorm_partial == 0.0
        assert rep.verdict == "converging"

    def test_harmonic_tail_divergence(self):
        f = FourierSymbol({k: 1.0 / k for k in range(1, 41)})
        rep = analytic_besov_seminorm(f, 2.0, radii=DIVERGENT_RADII)
        assert rep.verdict == "diverging"
        # partials head toward pi * H_40
        h40 = sum(1.0 / k for k in range(1, 41))
        assert rep.trend[-1] < math.pi * h40

    def test_termwise_identity_on_random_polys(self, rng):
        for _ in range(5):
            coeffs = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for k in range(int(rng.integers(1, 8)))}
            f = FourierSymbol(coeffs)
            rep = analytic_besov_seminorm(f, 2.0, radii=[0.5, 1.0])
            exact = math.pi * sum(k * abs(c) ** 2 for k, c in coeffs.items())
            assert rep.seminorm_partial == pytest.approx(exact, abs=1e-9)

    def test_p1_second_derivative_form(self):
        # int_D |F''| with F = z^2: |F''| = 2, integral = 2 pi
        rep = analytic_besov_seminorm(FourierSymbol({2: 1.0}), 1.0, radii=[0.5, 1.0])
        assert rep.seminorm_partial == pytest.approx(2 * math.pi, abs=1e-8)

    def test_rejects_bad_exponent(self):
        for p in (0.5, math.inf, -math.inf, math.nan):
            with pytest.raises(RangeError):
                analytic_besov_seminorm(FourierSymbol({1: 1.0}), p)

    @pytest.mark.parametrize("radii", [[0.5, math.nan], [math.nan, 0.9], [0.5, math.inf]])
    def test_rejects_non_finite_radii(self, radii):
        with pytest.raises(RangeError, match="radii"):
            analytic_besov_seminorm(FourierSymbol({1: 1.0}), 2.0, radii)

    def test_rejects_coanalytic(self):
        with pytest.raises(RangeError):
            analytic_besov_seminorm(FourierSymbol({-1: 1.0}), 2.0)

    def test_rejects_singular_weight_at_one(self):
        with pytest.raises(RangeError):
            analytic_besov_seminorm(FourierSymbol({1: 1.0}), 1.5, radii=[0.5, 1.0])

    def test_rejects_truncation_at_one(self):
        f = FourierSymbol({1: 1.0}, tail_bound=0.1)
        with pytest.raises(TailError):
            analytic_besov_seminorm(f, 2.0, radii=[0.5, 1.0])

    def test_monotone_in_added_coefficients(self):
        # Parseval route: at p = 2 adding a coefficient only adds energy
        base = FourierSymbol({1: 1.0})
        bigger = FourierSymbol({1: 1.0, 3: 0.5})
        r1 = analytic_besov_seminorm(base, 2.0, radii=default_radii())
        r2 = analytic_besov_seminorm(bigger, 2.0, radii=default_radii())
        assert all(b >= a - 1e-12 for a, b in zip(r1.trend, r2.trend))

    def test_trend_nondecreasing(self):
        rep = analytic_besov_seminorm(FourierSymbol({2: 1.0, 5: 0.3}), 2.0)
        assert all(b >= a for a, b in zip(rep.trend, rep.trend[1:]))


class TestMembership:
    def test_analytic_symbol_trivial_half(self):
        f_rep, g_rep = besov_membership(FourierSymbol({1: 1.0, 2: 0.5}), 2.0)
        assert g_rep.seminorm_partial == 0.0

    def test_cosine_both_halves(self):
        f_rep, g_rep = besov_membership(FourierSymbol({1: 1.0, -1: 1.0}), 2.0,
                                        radii=[0.5, 0.9, 1.0])
        assert f_rep.seminorm_partial == pytest.approx(math.pi, abs=1e-8)
        assert g_rep.seminorm_partial == pytest.approx(math.pi, abs=1e-8)

    def test_constant(self):
        f_rep, g_rep = besov_membership(FourierSymbol({0: 4.0}), 3.0)
        assert f_rep.seminorm_partial == 0.0 and g_rep.seminorm_partial == 0.0


class TestSufficientCondition:
    def test_finite_band_met(self):
        sym = FourierSymbol({1: 1.0, -2: 0.3j, 0: 0.5})
        verdict = almost_normal_sufficient(sym, 2.0, 2.0)
        assert verdict.verdict == "met"

    def test_divergent_real_part(self):
        coeffs = {}
        for k in range(1, 41):
            coeffs[k] = 0.5 / k
            coeffs[-k] = 0.5 / k  # real-valued 1/k cosine series
        sym = FourierSymbol(coeffs, real_valued=True)
        verdict = almost_normal_sufficient(sym, 2.0, 2.0, radii=DIVERGENT_RADII)
        assert verdict.verdict == "not met"

    def test_conjugate_error(self):
        for p, q in ((3.0, 1.4), (2.0, math.nan), (1.0, math.nan), (math.nan, 2.0),
                     (2.0, math.inf)):
            with pytest.raises(ConjugateError):
                almost_normal_sufficient(FourierSymbol({1: 1.0}), p, q)

    def test_b1_linf_variant(self):
        sym = FourierSymbol({1: 1.0, -1: 0.5j})
        verdict = almost_normal_sufficient(sym, 1.0, math.inf)
        assert verdict.verdict == "met"

    def test_negative_infinity_is_no_b1_variant(self):
        # (1, -inf) is no conjugate pair: only q = +inf gives the (B_1, L^inf) variant
        with pytest.raises(ConjugateError):
            almost_normal_sufficient(FourierSymbol({1: 1.0, -1: 0.5j}), 1.0, -math.inf)


class TestJacobianIntegrability:
    def test_safe_example(self):
        # int |J| = 0.75 pi over the disk; bound = pi (1 + 0.25) = 1.25 pi
        sym = FourierSymbol({1: 1.0, -1: 0.5})
        rep = jacobian_integrability(sym, radii=[0.5, 1.0])
        assert rep.partials[-1] == pytest.approx(0.75 * math.pi, abs=1e-8)
        assert rep.bound == pytest.approx(1.25 * math.pi)
        assert rep.ok

    @pytest.mark.parametrize("coeffs", [{1: 1, 2: 0.4, -1: 0.2}, {1: 1, -2: 0.1}])
    def test_bound_holds_where_both_halves_are_uneven(self, coeffs):
        # the product of the halves' energies bounds neither: 3.98 > 1.44, 3.06 > 0.89
        rep = jacobian_integrability(FourierSymbol(coeffs))
        assert rep.bound == pytest.approx(math.pi * sum(abs(k) * c ** 2 for k, c in coeffs.items()))
        assert rep.ok is True
        assert all(v <= rep.bound for v in rep.partials)

    def test_rejects_non_finite_radii(self):
        with pytest.raises(RangeError, match="radii"):
            jacobian_integrability(FourierSymbol({1: 1, -1: 0.5}), [0.5, math.nan, 0.9])

    def test_analytic_bound_attained_at_the_boundary(self):
        # |J| = |F'|^2 when G = 0, so the bound is the integral over the whole disk
        rep = jacobian_integrability(FourierSymbol({1: 1.0}), radii=[0.5, 1.0])
        assert rep.bound == pytest.approx(math.pi)
        assert rep.partials[-1] == pytest.approx(rep.bound, abs=1e-8)
        assert rep.ok is True

    def test_constant_zero(self):
        rep = jacobian_integrability(FourierSymbol({0: 1.0}), radii=[0.5, 0.9])
        assert rep.partials == (0.0, 0.0)

    def test_reim_identity_matches_split_jacobian(self, rng):
        # |J| = 4 |Im(R_z conj(I_z))| with R, I the Re/Im harmonic extensions
        from hhmeasure.symbols import _wirtinger
        sym = FourierSymbol({1: 0.8 + 0.1j, -1: 0.4j, 2: 0.2})
        re_sym, im_sym = sym.real_part(), sym.imag_part()
        z = 0.3 + 0.4j
        rz = _wirtinger(re_sym, z)[0]
        iz = _wirtinger(im_sym, z)[0]
        assert 4 * (rz * np.conj(iz)).imag == pytest.approx(sym.jacobian(z), abs=1e-13)


def ring_by_ring_seminorm(f, p, radii):
    """`analytic_besov_seminorm`'s trend with one integrand call per ring and scalar weights."""
    _, d1, _, _ = f._split
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = npoly.polyder(d1)
    if p == 1:
        def integrand(r, thetas):
            return np.abs(_horner(r * np.exp(1j * thetas), d2))
    else:
        def integrand(r, thetas):
            w = (1.0 - r * r) ** (p - 2.0)
            return w * np.abs(_horner(r * np.exp(1j * thetas), d1)) ** p
    return ring_by_ring_partials(integrand, radii, f.band)


def phase_coeffs(rng, lo, hi):
    return {k: 0.5 * np.exp(2j * np.pi * rng.uniform()) for k in range(lo, hi + 1) if k}


@pytest.fixture(scope="module")
def quadrature_symbols(tmp_path_factory):
    """label -> (symbol, radii at integer p, radii at the other p)."""
    workloads = load_perfbench("workloads")
    drawn = {}
    real_job = workloads._besov_job
    workloads._besov_job = lambda name, sym: drawn.setdefault(name, sym)
    try:
        workloads.operator_jobs(3, tmp_path_factory.mktemp("jobs"))
    finally:
        workloads._besov_job = real_job
    rng = np.random.default_rng(64)
    full, inner = (0.5, 0.9, 1.0), (0.5, 0.9, 0.99)
    return {
        "seed3-band4": (drawn["besov-band4"], full, inner),
        "seed3-band12": (drawn["besov-band12"], full, inner),
        "k3": (workloads.K3, full, inner),
        "band64": (workloads.phase_symbol(rng, 64), full, inner),
        # 384 rings of 4112 angles: 26 batches of 15 rings, the last one short
        "band512": (FourierSymbol(phase_coeffs(rng, -2, 512)), (0.9,), (0.9,)),
    }


QUADRATURE_LABELS = ("seed3-band4", "seed3-band12", "k3", "band64", "band512")


class TestBatchedRings:
    """The batched quadrature gives the bytes of one integrand call per ring."""

    @pytest.mark.parametrize("p", [1, 1.5, 2, 2.5, 3])
    @pytest.mark.parametrize("label", QUADRATURE_LABELS)
    def test_seminorm_trend_bytes(self, quadrature_symbols, label, p):
        sym, full, inner = quadrature_symbols[label]
        radii = full if float(p).is_integer() else inner
        # the coanalytic half of the band 512 symbol is short; its analytic one has the rings
        halves = sym.analytic_split()[:1] if label == "band512" else sym.analytic_split()
        for half in halves:
            trend = analytic_besov_seminorm(half, p, radii).trend
            assert list(trend) == ring_by_ring_seminorm(half, p, radii)

    @pytest.mark.parametrize("label", QUADRATURE_LABELS)
    def test_jacobian_partials_bytes(self, quadrature_symbols, label):
        sym, full, _ = quadrature_symbols[label]
        partials = jacobian_integrability(sym, full).partials
        assert list(partials) == ring_by_ring_partials(
            lambda r, thetas: np.abs(_jacobian(sym, r * np.exp(1j * thetas))), full, sym.band)

    def test_one_integrand_call_per_radius(self, monkeypatch):
        # 1008 rings, which took one call each
        calls = []
        batched = besov._disk_integral_partials

        def counting(integrand, radii, band):
            def counted(r, z):
                calls.append(r.size)
                return integrand(r, z)
            return batched(counted, radii, band)
        monkeypatch.setattr(besov, "_disk_integral_partials", counting)
        f = FourierSymbol(phase_coeffs(np.random.default_rng(4), 1, 4))
        analytic_besov_seminorm(f, 2.0, (0.5, 0.9, 1.0))
        assert len(calls) == 3 and sum(calls) == 1008

    def test_peak_memory_at_the_band_guard(self):
        # batches of 2^16 points peak near 3 MB, all of a radius's rings in one batch at 72 MB
        f = FourierSymbol(phase_coeffs(np.random.default_rng(512), 1, besov._MAX_QUAD_BAND))
        tracemalloc.start()
        try:
            analytic_besov_seminorm(f, 2.0, (0.9,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20


class TestHankelProbe:
    def test_analytic_zero(self):
        assert hankel_schatten_probe(FourierSymbol({1: 1.0}), 2.0, 8) == 0.0

    def test_rank_one(self):
        for p in (1.0, 2.0, 3.5):
            assert hankel_schatten_probe(FourierSymbol({-1: 1.0}), p, 6) == pytest.approx(1.0)

    def test_hilbert_schmidt_identity(self, rng):
        # ||H||_2^2 = sum_{k>=1} k |c(-k)|^2 on exact blocks
        for _ in range(5):
            band = int(rng.integers(1, 7))
            coeffs = {-k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for k in range(1, band + 1)}
            sym = FourierSymbol(coeffs)
            hs = hankel_schatten_probe(sym, 2.0, band + 3)
            exact = math.sqrt(sum(k * abs(coeffs[-k]) ** 2
                                  for k in range(1, band + 1)))
            assert hs == pytest.approx(exact, abs=1e-12)

    def test_growth_vs_decay_families(self):
        # s = 0.6 diverges in n, s = 1.5 stays bounded
        norms = {}
        for s in (0.6, 1.5):
            vals = []
            for n in (8, 16, 32, 64):
                sym = FourierSymbol({-k: k ** -s for k in range(1, n + 1)})
                vals.append(hankel_schatten_probe(sym, 2.0, n + 1))
            norms[s] = vals
        growth_06 = norms[0.6][-1] - norms[0.6][0]
        growth_15 = norms[1.5][-1] - norms[1.5][0]
        assert growth_06 > 0.5
        assert growth_15 < 0.05
        assert all(b > a for a, b in zip(norms[0.6], norms[0.6][1:]))
