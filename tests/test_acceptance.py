"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hhmeasure import FourierSymbol, TruncatedMatrix
from hhmeasure.besov import analytic_besov_seminorm, hankel_schatten_probe
from hhmeasure.degree import (GridSpec, default_grid, multiplicity_grid,
                              preimage_multiplicity)
from hhmeasure.errors import DegenerateRoot, NoConvergence
from hhmeasure.gallery import (WeightedShiftSpec, cesaro_commutator,
                               perturbation_family_norm, shift_almost_normality,
                               shift_hh_total_variation)
from hhmeasure.measure import (hh_density, index_check, smoothing_limit_probe,
                               total_variation, trace_formula_check)
from hhmeasure.operators import (commutator_trace, schatten_norm,
                                 self_commutator, smoothing_trace_identity,
                                 toeplitz_matrix)
from hhmeasure.poly import BivariatePolynomial as P

from conftest import random_symbol

SHIFT = FourierSymbol({1: 1.0})
SHIFT_GRID = GridSpec(-1.5, 1.5, -1.5, 1.5, 400, 400)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def shift_density():
    return hh_density(SHIFT, 1.0, SHIFT_GRID)


def test_01_shift_trace_formula(shift_density):
    with criterion(1, "unilateral shift trace formula"):
        start = time.perf_counter()
        lhs = commutator_trace(SHIFT, P.x(), P.y())
        assert abs(lhs - (-0.5j)) <= 1e-12

        # dense 30 x 30 oracle: trace over the supported corner
        x = toeplitz_matrix(SHIFT.real_part(), 30).entries
        y = toeplitz_matrix(SHIFT.imag_part(), 30).entries
        oracle = complex(np.trace((x @ y - y @ x)[:10, :10]))
        assert abs(lhs - oracle) <= 1e-12

        rep = trace_formula_check(SHIFT, P.x(), P.y(), SHIFT_GRID, 1.0)
        assert abs(rep.rhs - (-0.5j)) <= 1e-3
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_02_shift_measure(shift_density):
    with criterion(2, "shift measure = (1/2 pi i) on the disk"):
        mg = shift_density.grid
        gx, gy = np.meshgrid(mg.grid.centers_x(), mg.grid.centers_y())
        truth = (gx ** 2 + gy ** 2 < 1).astype(int)
        valid = ~mg.invalid
        match = float(np.mean(mg.values[valid] == truth[valid]))
        assert match >= 0.99
        tv = total_variation(shift_density)
        assert abs(tv - 0.5) <= 2e-3


def test_03_analytic_hyponormal_identity():
    with criterion(3, "analytic symbol trace identity"):
        cases = [FourierSymbol({1: 1.0}),
                 FourierSymbol({1: 1.0, 2: 0.3}),
                 FourierSymbol({2: 1.0})]
        for f in cases:
            expected = sum(k * abs(c) ** 2 for k, c in f.coeffs.items())
            tr = self_commutator(f, f.band + 1).trace()
            assert abs(tr - expected) <= 1e-12
            density = hh_density(f, 1.0, default_grid(f, 400))
            tv = total_variation(density)
            assert abs(2 * tv - expected) <= 5e-3


def test_04_extracting_r_randomized():
    with criterion(4, "extracting-r identity, 200 randomized cases"):
        rng = np.random.default_rng(11)
        start = time.perf_counter()
        for case in range(200):
            band = int(rng.integers(1, 5))
            sym = random_symbol(rng, band)
            d = int(rng.integers(1, 9))
            corner = TruncatedMatrix(
                d, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            r = (0.3, 0.7, 0.95)[case % 3]
            lhs, rhs = smoothing_trace_identity(sym, corner, r)
            assert abs(lhs - rhs) <= 1e-10, f"case {case}: {abs(lhs - rhs)}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_05_smoothing_bound():
    with criterion(5, "Poisson smoothing trace-norm bound"):
        rng = np.random.default_rng(23)
        r_grid = [round(0.1 * j, 1) for j in range(1, 10)] + [0.99]
        for _ in range(50):
            sym = random_symbol(rng, int(rng.integers(1, 5)), unit_coeffs=False)
            n = sym.band + 1
            base = schatten_norm(self_commutator(sym, n), 1)
            for r in r_grid:
                smoothed = schatten_norm(self_commutator(sym.poisson_smooth(r), n), 1)
                assert 2 * base - smoothed >= -1e-8


def test_06_degree_identity():
    with criterion(6, "winding grid equals preimage oracle"):
        rng = np.random.default_rng(31)
        r_choices = (1.0, 0.9, 0.8, 1.0, 0.95, 0.85, 1.0, 0.9, 0.75, 1.0)
        compared = 0
        for trial in range(10):
            sym = random_symbol(rng, int(rng.integers(1, 4)))
            r = r_choices[trial]
            grid = default_grid(sym, 14)
            mg = multiplicity_grid(sym, r, grid)
            cx, cy = grid.centers_x(), grid.centers_y()
            for j in range(grid.ny):
                for i in range(grid.nx):
                    if mg.invalid[j, i]:
                        continue
                    w = complex(cx[i], cy[j])
                    try:
                        oracle = preimage_multiplicity(sym, r, w)
                    except (NoConvergence, DegenerateRoot):
                        continue  # not mutually valid
                    assert oracle == mg.values[j, i], \
                        f"trial {trial} cell {w}: oracle {oracle} != grid {mg.values[j, i]}"
                    compared += 1
        assert compared >= 400, f"only {compared} mutually-valid cells"


def test_07_general_trace_formula():
    with criterion(7, "general trace formula, band-2 symbol"):
        sym = FourierSymbol({1: 1.0, 2: 0.4, -1: 0.2})
        for p, q in [(P.x(), P.y()), (P.monomial(2, 0), P.y()), (P.x(), P.monomial(0, 2))]:
            start = time.perf_counter()
            rep = trace_formula_check(sym, p, q)
            elapsed = time.perf_counter() - start
            assert rep.abs_err <= max(5e-3, 3 * rep.quad_err_estimate)
            assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_08_weighted_shift_example():
    with criterion(8, "weighted-shift perturbation family"):
        specs = [WeightedShiftSpec.from_table({0: 1.0}, 0.0, 1.0),
                 WeightedShiftSpec.from_table({-1: 0.7, 0: 1.9, 1: 1.1}, 0.5, 1.3)]
        for spec in specs:
            tv = shift_hh_total_variation(spec)
            assert tv == (spec.alpha_plus ** 2 - spec.alpha_minus ** 2) / 2
            for k in (spec.window, spec.window + 1, spec.window + 2):
                closed, matrix_value = perturbation_family_norm(spec, k)
                assert abs(closed - matrix_value) <= 1e-12
                assert abs(closed - 2 * tv) <= 1e-12
            assert shift_almost_normality(spec) >= 2 * tv - 1e-12


def test_09_smoothing_limit_probe():
    with criterion(9, "r -> 1 moment convergence"):
        rep = smoothing_limit_probe(SHIFT, P.x(), P.y(), [0.9, 0.99, 0.999], SHIFT_GRID)
        errs = np.abs(rep.moments - (-0.5j))
        assert errs[0] / errs[1] >= 5.0
        assert errs[1] / errs[2] >= 5.0

        trunc = FourierSymbol({k: k ** -3.0 for k in range(1, 21)},
                              tail_bound=float(sum(k ** -3.0 for k in range(21, 2000))))
        rep2 = smoothing_limit_probe(trunc, P.x(), P.y(), [0.9, 0.99, 0.999],
                                  default_grid(trunc, 300))
        diffs = rep2.successive_diffs
        assert diffs[1] < diffs[0]


def test_10_besov_diagnostics():
    with criterion(10, "Besov seminorm and Hankel diagnostics"):
        for k in range(1, 11):
            rep = analytic_besov_seminorm(FourierSymbol({k: 1.0}), 2.0, radii=[0.5, 1.0])
            assert abs(rep.seminorm_partial - math.pi * k) <= 1e-6

        rng = np.random.default_rng(47)
        for _ in range(10):
            band = int(rng.integers(1, 7))
            coeffs = {-k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for k in range(1, band + 1)}
            sym = FourierSymbol(coeffs)
            hs = hankel_schatten_probe(sym, 2.0, band + 2)
            exact = math.sqrt(sum(k * abs(coeffs[-k]) ** 2 for k in range(1, band + 1)))
            assert abs(hs - exact) <= 1e-12

        f = FourierSymbol({k: 1.0 / k for k in range(1, 41)})
        rep = analytic_besov_seminorm(f, 2.0, radii=(0.75, 0.9375, 0.984375))
        assert rep.verdict == "diverging"


def test_11_index_spot_checks():
    with criterion(11, "index formula spot checks"):
        rng = np.random.default_rng(53)
        symbols = [SHIFT, FourierSymbol({2: 1.0}),
                   FourierSymbol({1: 1.0, 2: 0.4, -1: 0.2})]
        for sym in symbols:
            grid = default_grid(sym, 250)
            density = hh_density(sym, 1.0, grid, refine=False)
            checked = 0
            tries = 0
            while checked < 20 and tries < 2000:
                tries += 1
                lam = complex(rng.uniform(grid.x0, grid.x1),
                              rng.uniform(grid.y0, grid.y1))
                if density.grid.value_at(lam) is None:
                    continue
                wind, value, ok = index_check(sym, lam, 1.0, density=density)
                assert ok, f"{sym.coeffs} at {lam}: wind {wind}, density {value}"
                checked += 1
            assert checked == 20


def test_12_cesaro():
    with criterion(12, "Cesaro operator positivity"):
        traces = []
        for n in (64, 128, 256):
            tr, psd = cesaro_commutator(n)
            assert psd
            traces.append(tr)
        assert traces[0] < traces[1] < traces[2]
