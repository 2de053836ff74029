import numpy as np
import pytest

from hhmeasure.errors import OrderError, RangeError, WindowError
from hhmeasure.gallery import (WeightedShiftSpec, _trigamma, cesaro_commutator,
                               cesaro_inner_block_exact, cesaro_matrix,
                               hs_cutoff_commutator_norms,
                               perturbation_family_norm, shift_almost_normality,
                               shift_commutator_diagonal,
                               shift_hh_total_variation, summary_table)
from scipy.special import polygamma

JUMP = WeightedShiftSpec.from_table({0: 1.0}, alpha_minus=0.0, alpha_plus=1.0)


def random_spec(rng, window=2):
    table = {n: float(rng.uniform(0.2, 2.0)) for n in range(-window, window + 1)}
    a_minus = float(rng.uniform(0.1, 1.0))
    return WeightedShiftSpec.from_table(table, a_minus, a_minus + float(rng.uniform(0, 1)))


class TestAlmostNormality:
    def test_constant_weights(self):
        spec = WeightedShiftSpec.from_table({}, 1.0, 1.0)
        assert shift_almost_normality(spec) == 0.0

    def test_single_jump(self):
        assert shift_almost_normality(JUMP) == pytest.approx(1.0)

    def test_pattern_121(self):
        spec = WeightedShiftSpec((1.0, 2.0, 1.0), 1, 1.0, 1.0)
        assert shift_almost_normality(spec) == pytest.approx(6.0)


class TestTotalVariationFormula:
    def test_unilateral_like(self):
        assert shift_hh_total_variation(JUMP) == pytest.approx(0.5)

    def test_constant(self):
        spec = WeightedShiftSpec.from_table({}, 1.0, 1.0)
        assert shift_hh_total_variation(spec) == 0.0

    def test_annulus(self):
        spec = WeightedShiftSpec.from_table({}, 1.0, 2.0)
        assert shift_hh_total_variation(spec) == pytest.approx(1.5)

    def test_order_error(self):
        spec = WeightedShiftSpec.from_table({}, 2.0, 1.0)
        with pytest.raises(OrderError):
            shift_hh_total_variation(spec)


class TestCommutatorDiagonal:
    def test_window_supported_and_matches_sum(self, rng):
        spec = random_spec(rng)
        diag = shift_commutator_diagonal(spec)
        assert all(-spec.window - 1 <= n <= spec.window + 1 for n in diag)
        assert sum(abs(v) for v in diag.values()) == pytest.approx(
            shift_almost_normality(spec), abs=1e-14)

    def test_sign_convention(self):
        # direct computation: [W*, W] e_n = (alpha_n^2 - alpha_{n-1}^2) e_n
        diag = shift_commutator_diagonal(JUMP)
        assert diag == {0: pytest.approx(1.0)}


class TestPerturbationFamily:
    def test_limit_value(self, rng):
        spec = random_spec(rng)
        for k in (spec.window, spec.window + 1, spec.window + 3):
            closed, matrix_value = perturbation_family_norm(spec, k)
            assert closed == pytest.approx(
                spec.alpha_plus ** 2 - spec.alpha_minus ** 2, abs=1e-14)
            assert abs(closed - matrix_value) <= 1e-12

    def test_constant_weights_zero(self):
        spec = WeightedShiftSpec.from_table({}, 1.0, 1.0)
        closed, matrix_value = perturbation_family_norm(spec, 1)
        assert closed == 0.0 and matrix_value == pytest.approx(0.0, abs=1e-14)

    def test_double_total_variation(self):
        closed, _ = perturbation_family_norm(JUMP, 2)
        assert closed == pytest.approx(2 * shift_hh_total_variation(JUMP))

    def test_window_error(self):
        spec = WeightedShiftSpec((1.0, 2.0, 1.0), 1, 1.0, 1.0)
        with pytest.raises(WindowError):
            perturbation_family_norm(spec, 0)

    def test_better_than_brown(self, rng):
        # 2 ||P|| <= inf over trace-class perturbations, witnessed by the family
        for _ in range(5):
            spec = random_spec(rng)
            closed, _ = perturbation_family_norm(spec, spec.window + 1)
            assert closed >= 2 * shift_hh_total_variation(spec) - 1e-12


class TestCesaro:
    def test_matrix_rows(self):
        c = cesaro_matrix(3)
        assert np.allclose(c, [[1, 0, 0], [0.5, 0.5, 0], [1 / 3, 1 / 3, 1 / 3]])

    def test_partial_trace_monotone(self):
        traces = [cesaro_commutator(n)[0] for n in (64, 128, 256)]
        assert traces[0] < traces[1] < traces[2]

    def test_psd(self):
        for n in (8, 64, 128):
            _, psd = cesaro_commutator(n)
            assert psd

    def test_small_block_selfadjoint(self):
        c = cesaro_matrix(8)
        tail = float(polygamma(1, 9))
        block = (c.T @ c + tail - c @ c.T)[:4, :4]
        assert np.allclose(block, block.T)
        assert np.all(np.isfinite(block))

    def test_matches_closed_form_block(self):
        n = 64
        c = cesaro_matrix(n)
        tail = float(polygamma(1, n + 1))
        block = (c.T @ c + tail - c @ c.T)[: n // 2, : n // 2]
        assert np.max(np.abs(block - cesaro_inner_block_exact(n // 2))) < 1e-13

    def test_trigamma_against_scipy(self):
        x = np.arange(1, 1001, dtype=float)
        ref = polygamma(1, x)
        assert np.max(np.abs(_trigamma(x) - ref) / ref) < 2e-15
        assert float(_trigamma(65)) == pytest.approx(float(polygamma(1, 65)), rel=2e-15)
        frac = np.linspace(0.05, 20.0, 400)
        assert np.allclose(_trigamma(frac), polygamma(1, frac), rtol=2e-15, atol=0)

    def test_requires_n_ge_4(self):
        with pytest.raises(RangeError):
            cesaro_commutator(3)


class TestHilbertSchmidtCutoff:
    def test_final_norm_exactly_zero(self, rng):
        t = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        norms = hs_cutoff_commutator_norms(t)
        assert len(norms) == 9
        assert norms[-1] == 0.0
        assert norms[0] > 0


def test_summary_table_consistency():
    rows = summary_table()
    assert any(r["case"] == "weighted_shift" for r in rows)
    assert any(r["case"] == "cesaro" for r in rows)
    for row in rows:
        if row["closed_form"] is not None and not isinstance(row["computed"], bool):
            assert row["computed"] == pytest.approx(row["closed_form"], abs=1e-10)
