import numpy as np
import pytest

from hhmeasure import FourierSymbol, operators
from hhmeasure.errors import NonFiniteError, RangeError, StabilizationError, TailError
from hhmeasure.operators import (commutator_trace, hankel_matrix, schatten_norm,
                                 self_commutator, smoothing_trace_identity, toeplitz_matrix,
                                 _commutator_block, _poly_in_xy, _truncation)
from hhmeasure.poly import BivariatePolynomial as P, parse_polynomial

from conftest import mask_hankel, mask_toeplitz, padded_self_commutator, random_symbol

SHIFT = FourierSymbol({1: 1.0})


def dense_self_commutator(sym, n, pad=12):
    """Oracle: H_{conj phi}^* H_{conj phi} - H_phi^* H_phi from oversized blocks."""
    m = n + sym.band + pad
    hbar = hankel_matrix(sym.conjugate(), m)
    h = hankel_matrix(sym, m)
    full = hbar.conj().T @ hbar - h.conj().T @ h
    return full[:n, :n]


class TestToeplitz:
    def test_shift(self):
        t = toeplitz_matrix(SHIFT, 3)
        assert np.array_equal(t, np.diag([1.0, 1.0], -1).astype(complex))

    def test_constant(self):
        t = toeplitz_matrix(FourierSymbol({0: 2.0}), 4)
        assert np.array_equal(t, 2.0 * np.eye(4))

    def test_cosine_tridiagonal(self):
        t = toeplitz_matrix(FourierSymbol({1: 1.0, -1: 1.0}, real_valued=True), 3)
        expect = np.diag([1.0, 1.0], -1) + np.diag([1.0, 1.0], 1)
        assert np.array_equal(t, expect.astype(complex))
        assert np.array_equal(t, t.conj().T)


class TestHankel:
    def test_analytic_is_zero(self):
        h = hankel_matrix(FourierSymbol({1: 1.0, 3: 0.5}), 4)
        assert not h.any()

    def test_single_negative(self):
        h = hankel_matrix(FourierSymbol({-1: 1.0}), 2)
        assert h[0, 0] == 1.0
        assert np.count_nonzero(h) == 1

    def test_antidiagonal_rule(self):
        h = hankel_matrix(FourierSymbol({-2: 1.0}), 3)
        assert h[0, 1] == 1.0 and h[1, 0] == 1.0
        assert np.count_nonzero(h) == 2

    @pytest.mark.parametrize("build", [hankel_matrix, toeplitz_matrix])
    @pytest.mark.parametrize("c", [np.inf, complex(0.0, -np.inf), np.nan])
    def test_non_finite_coefficient(self, build, c):
        with pytest.raises(NonFiniteError):
            build(FourierSymbol({-1: c, 1: 1.0}), 2)


class TestSelfCommutator:
    def test_shift_rank_one(self):
        c = self_commutator(SHIFT, 5)
        s = toeplitz_matrix(SHIFT, 20)
        oracle = (s.conj().T @ s - s @ s.conj().T)[:5, :5]
        assert np.allclose(c, oracle, atol=1e-14)
        assert c[0, 0] == pytest.approx(1.0)

    def test_real_symbol_normal(self, rng):
        sym = random_symbol(rng, 3, real=True)
        assert not self_commutator(sym, 6).any()

    def test_shift_plus_half_conj(self):
        sym = FourierSymbol({1: 1.0, -1: 0.5})
        c = self_commutator(sym, 4)
        assert np.allclose(c, np.diag([0.75, 0, 0, 0]).astype(complex), atol=1e-14)
        assert np.allclose(c, dense_self_commutator(sym, 4), atol=1e-13)

    def test_matches_hankel_oracle(self, rng):
        # coefficient formula vs dense Hankel-product oracle, band <= 5
        for _ in range(6):
            sym = random_symbol(rng, int(rng.integers(1, 6)))
            n = int(rng.integers(2, 33))
            c = self_commutator(sym, n)
            assert np.max(np.abs(c - dense_self_commutator(sym, n))) < 1e-12

    def test_corner_support(self, rng):
        sym = random_symbol(rng, 3)
        c = self_commutator(sym, 10)
        assert not c[3:, :].any()
        assert not c[:, 3:].any()


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGatheredBlocks:
    """The gathered blocks equal, byte for byte, the one-mask-per-coefficient
    loops and the padded index arrays that built them before (conftest)."""

    @pytest.mark.parametrize("real", [False, True])
    def test_match_references(self, rng, real):
        for band in (0, 1, 2, 3, 5, 8):
            for _ in range(4):
                sym = random_symbol(rng, band, real=real)
                # n < band, n = band and n > 2 band
                for n in sorted({1, 2, max(band - 1, 1), max(band, 1), band + 1, 2 * band + 3}):
                    assert same_bytes(toeplitz_matrix(sym, n), mask_toeplitz(sym, n))
                    assert same_bytes(hankel_matrix(sym, n), mask_hankel(sym, n))
                    assert same_bytes(self_commutator(sym, n), padded_self_commutator(sym, n))

    @pytest.mark.parametrize("coeffs", [{}, {0: 0.3 - 0.2j}, {-3: 0.5}, {7: -0.0 + 1j}])
    def test_sparse_and_constant_symbols(self, coeffs):
        sym = FourierSymbol(coeffs)
        for n in (1, 2, 4, 9):
            assert same_bytes(toeplitz_matrix(sym, n), mask_toeplitz(sym, n))
            assert same_bytes(hankel_matrix(sym, n), mask_hankel(sym, n))
            assert same_bytes(self_commutator(sym, n), padded_self_commutator(sym, n))


class TestPaddedProduct:
    def test_block_equals_oversized_product(self, rng):
        """The padded-product rule: padding the inner truncation by
        (deg p + deg q) * band makes the n x n corner of [p(X,Y), q(X,Y)]
        exact, so it equals the corner of a product of much larger
        truncations, multiplied out letter by letter."""
        p, q = parse_polynomial("x^2*y"), parse_polynomial("y*x")
        for sym in [SHIFT] + [random_symbol(rng, band) for band in (1, 2, 3)]:
            for n in (1, 4, 9):
                m = n + 40
                x = toeplitz_matrix(sym.real_part(), m)
                y = toeplitz_matrix(sym.imag_part(), m)
                pm, qm = x @ x @ y, x @ y  # x^i y^j -> X^i Y^j
                oracle = (pm @ qm - qm @ pm)[:n, :n]
                block = _commutator_block(sym, p, q, n)
                assert np.max(np.abs(block - oracle)) < 1e-12


class TestCommutatorTrace:
    def test_shift_xy(self):
        t = commutator_trace(SHIFT, P.x(), P.y())
        # oracle: trace of the supported corner of the dense dim-30 commutator
        x = toeplitz_matrix(SHIFT.real_part(), 30)
        y = toeplitz_matrix(SHIFT.imag_part(), 30)
        oracle = complex(np.trace((x @ y - y @ x)[:10, :10]))
        assert abs(t - oracle) < 1e-12
        assert abs(t - (-0.5j)) < 1e-12

    def test_p_equals_q(self, rng):
        sym = random_symbol(rng, 2)
        p = P.monomial(1, 1, 0.5) + P.x()
        assert commutator_trace(sym, p, p) == 0

    def test_real_symbol_commutes(self, rng):
        sym = random_symbol(rng, 3, real=True)
        assert abs(commutator_trace(sym, P.monomial(2, 0), P.y())) < 1e-12
        assert abs(commutator_trace(sym, P.x(), P.monomial(1, 1))) < 1e-12

    def test_trace_matches_dense_oracle(self, rng):
        sym = FourierSymbol({1: 1.0, 2: 0.4, -1: 0.2})
        x = toeplitz_matrix(sym.real_part(), 200)
        y = toeplitz_matrix(sym.imag_part(), 200)
        for p, q in [(P.x(), P.y()), (P.monomial(2, 0), P.y()), (P.x(), P.monomial(0, 2))]:
            pm, qm = _poly_in_xy(p, x, y), _poly_in_xy(q, x, y)
            oracle = complex(np.trace((pm @ qm - qm @ pm)[:40, :40]))
            assert abs(commutator_trace(sym, p, q) - oracle) < 1e-10

    def test_undersized_override_trips_stabilization(self, monkeypatch):
        monkeypatch.setattr(operators, "_truncation", lambda sym, p, q: 2)
        sym = FourierSymbol({1: 1.0, 3: 0.7, -2: 0.4})
        with pytest.raises(StabilizationError):
            commutator_trace(sym, P.monomial(2, 0), P.y())

    def test_one_dense_block_per_trace(self, monkeypatch):
        sizes = []
        block = operators._commutator_block

        def recorded(sym, p, q, n):
            sizes.append(n)
            return block(sym, p, q, n)

        monkeypatch.setattr(operators, "_commutator_block", recorded)
        sym = FourierSymbol({1: 1.0, 2: 0.4, -1: 0.2})
        commutator_trace(sym, P.x(), P.y())
        assert 2 * _truncation(sym, P.x(), P.y()) == 16
        assert sizes == [16]

    def test_block_guard_before_allocating(self, monkeypatch):
        sizes = []

        def zeros(sym, p, q, n):
            sizes.append(n)
            return np.zeros((n, n), dtype=complex)

        monkeypatch.setattr(operators, "_commutator_block", zeros)
        # side 2N + d * band with N = (d + 2) * band, d = deg p + deg q: 3d + 4 at
        # band 1, so d = 681 gives 2047 and passes, d = 682 gives 2050 and does not
        assert commutator_trace(SHIFT, P.monomial(341, 0), P.monomial(0, 340)) == 0
        with pytest.raises(RangeError, match="guard"):
            commutator_trace(SHIFT, P.monomial(341, 0), P.monomial(0, 341))
        band16 = FourierSymbol({k: 0.1 for k in range(1, 17)})
        with pytest.raises(RangeError, match="guard"):
            commutator_trace(band16, P.monomial(30, 0), P.monomial(0, 30))  # side 2944
        assert sizes == [1366]

    def test_requires_finite_band(self):
        sym = FourierSymbol({1: 1.0}, tail_bound=0.5)
        with pytest.raises(TailError):
            commutator_trace(sym, P.x(), P.y())

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_nonfinite(self):
        with pytest.raises(NonFiniteError):
            commutator_trace(FourierSymbol({1: 1e200}), P.x(), P.y())

    def test_bilinearity_antisymmetry(self, rng):
        sym = random_symbol(rng, 2)
        p = P.x() + P.monomial(0, 2, 0.3)
        q1, q2 = P.y(), P.monomial(1, 1, 0.7)
        t_pq = commutator_trace(sym, p, q1)
        assert abs(t_pq + commutator_trace(sym, q1, p)) < 1e-12
        lhs = commutator_trace(sym, p, q1 + q2)
        assert abs(lhs - t_pq - commutator_trace(sym, p, q2)) < 1e-12


class TestSchatten:
    def test_identity_trace_norm(self):
        assert schatten_norm(np.eye(5, dtype=complex), 1) == pytest.approx(5.0)

    def test_rank_one(self):
        e = np.zeros((4, 4), dtype=complex)
        e[0, 0] = 1.0
        for p in (1.0, 1.7, 2.0, 4.0):
            assert schatten_norm(e, p) == pytest.approx(1.0)

    def test_diag_3_4(self):
        assert schatten_norm(np.diag([3.0, 4.0]).astype(complex), 2) == pytest.approx(5.0)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_large_finite_block_does_not_overflow(self, p):
        # unscaled, sigma ** p overflows at 1e200 (an error under filterwarnings = error)
        norm = schatten_norm(np.diag([1e200, 1e200]).astype(complex), p)
        assert norm == pytest.approx(1e200 * 2 ** (1 / p), rel=1e-15)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_zero_and_empty_blocks(self, p):
        assert schatten_norm(np.zeros((3, 3), dtype=complex), p) == 0.0
        assert schatten_norm(np.zeros((0, 0), dtype=complex), p) == 0.0

    def test_rejects_p_below_one(self):
        mat = np.eye(2, dtype=complex)
        for p in (0.5, np.inf, -np.inf, np.nan):
            with pytest.raises(RangeError):
                schatten_norm(mat, p)

    @pytest.mark.parametrize("c", [np.inf, -np.inf, np.nan, complex(1.0, np.inf)])
    def test_rejects_non_finite_matrix(self, c):
        mat = np.eye(3, dtype=complex)
        mat[1, 2] = c
        with pytest.raises(RangeError, match="finite"):
            schatten_norm(mat, 1)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_rejects_non_square_matrix(self, shape):
        with pytest.raises(RangeError, match="square"):
            schatten_norm(np.ones(shape, dtype=complex), 2)

    def test_trace_cyclicity(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert np.trace(a @ b) == pytest.approx(np.trace(b @ a), abs=1e-12)


class TestSmoothingIdentity:
    def test_shift_example(self):
        corner = np.array([[1.0]])
        lhs, rhs = smoothing_trace_identity(SHIFT, corner, 0.5)
        assert lhs == pytest.approx(0.25)
        assert rhs == pytest.approx(0.25)

    def test_zero_corner(self):
        corner = np.zeros((3, 3), dtype=complex)
        assert smoothing_trace_identity(SHIFT, corner, 0.7) == (0, 0)

    def test_real_symbol(self, rng):
        sym = random_symbol(rng, 2, real=True)
        corner = np.eye(3, dtype=complex)
        lhs, rhs = smoothing_trace_identity(sym, corner, 0.3)
        assert lhs == 0 and rhs == 0

    def test_randomized_identity(self, rng):
        for _ in range(30):
            sym = random_symbol(rng, int(rng.integers(1, 5)))
            d = int(rng.integers(1, 9))
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            r = float(rng.choice([0.3, 0.7, 0.95]))
            lhs, rhs = smoothing_trace_identity(sym, x, r)
            assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("c", [np.inf, np.nan, complex(0.0, -np.inf)])
    def test_rejects_non_finite_corner(self, c):
        corner = np.zeros((3, 3), dtype=complex)
        corner[2, 0] = c
        with pytest.raises(RangeError, match="finite"):
            smoothing_trace_identity(SHIFT, corner, 0.5)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 1, 1)])
    def test_rejects_non_square_corner(self, shape):
        with pytest.raises(RangeError, match="square"):
            smoothing_trace_identity(SHIFT, np.ones(shape), 0.5)


class TestSmoothingBound:
    def test_trace_norm_inequality(self, rng):
        # ||[T_{phi_r}*, T_{phi_r}]||_1 <= 2 ||[T_phi*, T_phi]||_1
        for _ in range(12):
            sym = random_symbol(rng, int(rng.integers(1, 5)))
            base = schatten_norm(self_commutator(sym, sym.band + 1), 1)
            for r in (0.1, 0.5, 0.9, 0.99):
                smoothed = schatten_norm(
                    self_commutator(sym.poisson_smooth(r), sym.band + 1), 1)
                assert smoothed <= 2 * base + 1e-8


class TestWeakConvergenceProbe:
    def test_corner_traces_converge(self, rng):
        sym = random_symbol(rng, 3)
        d = 5
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        target = complex(np.trace(self_commutator(sym, d) @ x))
        errs = []
        for r in (0.9, 0.99, 0.999):
            c_r = self_commutator(sym.poisson_smooth(r), d)
            errs.append(abs(complex(np.trace(c_r @ x)) - target))
        assert errs[0] > errs[1] > errs[2]


class TestOverflow:
    """Coefficients near the float limit raise NonFiniteError, without a warning."""

    @pytest.mark.filterwarnings("error")
    def test_toeplitz_of_overflowing_real_part(self):
        sym = FourierSymbol({1: 1.7e308, -1: 1.7e308})  # Re(phi) has c(1) = inf
        with pytest.raises(NonFiniteError):
            commutator_trace(sym, P.x(), P.y())

    @pytest.mark.filterwarnings("error")
    def test_self_commutator_entries(self):
        with pytest.raises(NonFiniteError):
            self_commutator(FourierSymbol({1: 1e200, 2: 1e200}), 2)
