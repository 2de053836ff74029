"""The benchmark's workloads: job lists made from a seed, and the checks on every output.

A workload is a fixed list of jobs (one pass) that the runner repeats.  The
seed draws the random symbols, polynomials and query points; the schedule of
bands, grid sizes, radii and matrix sizes is fixed, so every seed costs about
the same.  Random symbols have coefficients of modulus 0.5 (k > 0) and 0.25
(k < 0) with random phases: equal moduli would make a band-1 curve a segment.

The curves that the raster and the Newton oracle work on (`density-sweep`,
and the degree identity of `operator-identities`) are the exception: their
cost per cell or per grid differs by 2-3x between random phase symbols, so
the per-job median and the pass time hopped with the seed.  Those symbols
are drawn once from `CURVE_SEED`, and the seed turns their parameter
(`turned`), which changes every coefficient but not the curve or its grid.

A check returns the ratios of each identity error to its tolerance (an
acceptance-suite tolerance from ``tests/test_acceptance.py`` where one
exists) and raises `CheckFailed` on any other wrong output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hhmeasure import besov, degree, measure, operators
from hhmeasure.errors import DegenerateRoot, NoConvergence
from hhmeasure.poly import BivariatePolynomial
from hhmeasure.symbols import FourierSymbol

SHIFT = FourierSymbol({1: 1.0})
BAND2 = FourierSymbol({1: 1.0, 2: 0.4, -1: 0.2})
K3 = FourierSymbol({k: k ** -3.0 for k in range(1, 21)})
CURVE_SEED = 2       # draws the curves that the seed only turns (see above)
SHIFT_GRID = degree.GridSpec(-1.5, 1.5, -1.5, 1.5, 400, 400)

# acceptance-suite tolerances
TRACE_TOL = 1e-12            # exact commutator trace (criterion 01)
SHIFT_QUAD_TOL = 1e-3        # shift trace formula by quadrature (criterion 01)
QUAD_TOL = 5e-3              # general trace formula, max(5e-3, 3 quad_err) (criterion 07)
TV_TOL = 5e-3                # 2 TV against sum k |c(k)|^2 (criterion 03)
SMOOTHING_TOL = 1e-10        # smoothing trace identity (criterion 04)
BOUND_SLACK = 1e-8           # smoothing trace-norm bound (criterion 05)
BESOV_TOL = 1e-6             # Besov seminorm against its closed form (criterion 10)
GALLERY_TOL = 1e-12          # gallery closed forms (criterion 08)


class CheckFailed(Exception):
    """An output is malformed or disagrees with an independent route."""


@dataclass
class PyJob:
    """One in-process call sequence; ``check`` receives what ``run`` returned."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class CliJob:
    """One ``hhmeasure`` CLI invocation writing to ``out``; ``check`` receives its bytes."""

    name: str
    args: list
    out: Path
    check: Callable[[bytes], list]
    golden: bool = False     # output bytes pinned by a recorded sha256


# -- inputs ----------------------------------------------------------------------

def phase_symbol(rng, band: int) -> FourierSymbol:
    return FourierSymbol({k: (0.5 if k > 0 else 0.25) * np.exp(2j * np.pi * rng.uniform())
                          for k in range(-band, band + 1) if k})


def turned(sym: FourierSymbol, angle: float) -> FourierSymbol:
    """phi(e^{i angle} z): the same curve and grid, other coefficients."""
    return FourierSymbol({k: c * np.exp(1j * k * angle) for k, c in sym.coeffs.items()})


def random_poly(rng, deg: int) -> BivariatePolynomial:
    """All monomials of total degree 1..deg, mixed terms included."""
    return BivariatePolynomial({(i, d - i): rng.uniform(-1, 1)
                                for d in range(1, deg + 1) for i in range(d + 1)})


def box_points(rng, grid, count: int) -> list:
    return [complex(rng.uniform(grid.x0, grid.x1), rng.uniform(grid.y0, grid.y1))
            for _ in range(count)]


def write_symbol(path: Path, sym: FourierSymbol) -> str:
    coeffs = [{"k": k, "re": float(c.real), "im": float(c.imag)}
              for k, c in sorted(sym.coeffs.items())]
    path.write_text(json.dumps({"type": "finite_band", "coeffs": coeffs}))
    return str(path)


# -- independent references ------------------------------------------------------

def _poly_values(poly: BivariatePolynomial, x, y):
    return sum(c * x ** i * y ** j for (i, j), c in poly.coeffs.items())


def fourier_trace(sym: FourierSymbol, p, q):
    """tr[p(X,Y), q(X,Y)] = -sum_k k a(k) b(-k) (Helton-Howe, Acta Math. 135, 1975).

    a and b are the Fourier coefficients of p(Re phi, Im phi) and
    q(Re phi, Im phi), exact from an FFT on more than 2 (deg p + deg q) K
    points.  Returns the trace and the sum of the moduli of its terms, the
    scale its rounding error is judged against.
    """
    size = 1 << math.ceil(math.log2(2 * (p.degree + q.degree) * max(sym.band, 1) + 2))
    theta = np.arange(size) * (2 * np.pi / size)
    phi = sum(c * np.exp(1j * k * theta) for k, c in sym.coeffs.items())
    a = np.fft.fft(_poly_values(p, phi.real, phi.imag)) / size
    b = np.fft.fft(_poly_values(q, phi.real, phi.imag)) / size
    k = np.fft.fftfreq(size, 1.0 / size)
    terms = k * a * b[(-np.arange(size)) % size]
    return complex(-np.sum(terms)), float(np.sum(np.abs(terms)))


def dirichlet_energy(sym: FourierSymbol, rho: float):
    """pi sum_k k |c(k)|^2 rho^2k for the analytic and the coanalytic half."""
    f = sum(k * abs(c) ** 2 * rho ** (2 * k) for k, c in sym.coeffs.items() if k > 0)
    g = sum(-k * abs(c) ** 2 * rho ** (-2 * k) for k, c in sym.coeffs.items() if k < 0)
    return math.pi * f, math.pi * g


def strict_json(data: bytes):
    def reject(token):
        raise CheckFailed(f"non-finite number {token} in JSON output")
    try:
        return json.loads(data, parse_constant=reject)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- cli-jobs ----------------------------------------------------------------------

def _check_csv_rows(cells: int):
    def check(data: bytes) -> list:
        lines = data.split(b"\n")
        _expect(lines[0].startswith(b"# grid=") and lines[-1] == b"",
                "measure CSV lacks its header or final newline")
        _expect(len(lines) - 3 == cells, f"CSV has {len(lines) - 3} rows, expected {cells}")
        return []
    return check


def _check_json_cells(cells: int):
    def check(data: bytes) -> list:
        doc = strict_json(data)
        _expect(len(doc["cells"]) == cells, f"JSON has {len(doc['cells'])} cells")
        return []
    return check


def _check_trace(reference: complex | None = None):
    def check(data: bytes) -> list:
        doc = strict_json(data)
        ratios = [doc["abs_err"] / max(QUAD_TOL, 3 * doc["quad_err"])]
        if reference is not None:
            lhs = complex(doc["lhs"]["re"], doc["lhs"]["im"])
            rhs = complex(doc["rhs"]["re"], doc["rhs"]["im"])
            ratios += [abs(lhs - reference) / TRACE_TOL, abs(rhs - reference) / SHIFT_QUAD_TOL]
        return ratios
    return check


def _check_index(count: int):
    def check(data: bytes) -> list:
        doc = strict_json(data)
        _expect(len(doc["rows"]) == count, f"index-check returned {len(doc['rows'])} rows")
        _expect(doc["all_ok"] and all(row["ok"] for row in doc["rows"]),
                "grid winding disagrees with the winding number")
        return []
    return check


def _check_winding(sym: FourierSymbol, points: list):
    newton = {}

    def check(data: bytes) -> list:
        rows = strict_json(data)["rows"]
        _expect(len(rows) == len(points), "winding returned the wrong number of rows")
        for lam, row in zip(points, rows):
            if lam not in newton:
                try:
                    newton[lam] = degree.preimage_multiplicity(sym, 1.0, lam)
                except (NoConvergence, DegenerateRoot):
                    newton[lam] = None      # not mutually valid
            _expect(newton[lam] in (None, row["winding"]),
                    f"winding {row['winding']} != Newton count {newton[lam]} at {lam}")
        return []
    return check


def _check_smooth_limit(data: bytes) -> list:
    _expect(len(strict_json(data)["rows"]) == 3, "smooth-limit needs one row per radius")
    return []


def _check_besov(sym: FourierSymbol):
    def check(data: bytes) -> list:
        doc = strict_json(data)
        rho = doc["analytic_half"]["radii"][-1]
        ref_f, ref_g = dirichlet_energy(sym, rho)
        return [abs(doc["analytic_half"]["seminorm_partial"] - ref_f) / BESOV_TOL,
                abs(doc["coanalytic_half"]["seminorm_partial"] - ref_g) / BESOV_TOL]
    return check


def _gallery_ratios(rows) -> list:
    ratios = []
    for case, quantity, computed, closed in rows:
        if closed is None:
            continue
        if isinstance(closed, bool):
            _expect(computed is closed, f"gallery {case}/{quantity} is {computed}")
        else:
            ratios.append(abs(computed - closed) / GALLERY_TOL)
    _expect(len(rows) == 8, f"gallery has {len(rows)} rows")
    return ratios


def _check_gallery_json(data: bytes) -> list:
    rows = strict_json(data)["rows"]
    return _gallery_ratios([(r["case"], r["quantity"], r["computed"], r["closed_form"])
                            for r in rows])


def _check_gallery_csv(data: bytes) -> list:
    def value(text):
        if text == "":
            return None
        if text in ("true", "false"):
            return text == "true"
        return float(text)

    lines = data.decode().splitlines()
    _expect(lines[0] == "case,quantity,computed,closed_form", "gallery CSV header")
    rows = [line.split(",") for line in lines[1:]]
    return _gallery_ratios([(c, q, value(a), value(b)) for c, q, a, b in rows])


def cli_jobs(seed: int, workdir: Path) -> list:
    """Every CLI subcommand on the fixed symbols, plus one random band-3 symbol."""
    rng = np.random.default_rng(seed)
    rand = phase_symbol(rng, 3)
    rand_grid = degree.default_grid(rand, 400)
    files = {name: write_symbol(workdir / f"{name}.json", sym)
             for name, sym in (("shift", SHIFT), ("band2", BAND2), ("k3", K3),
                               ("random", rand))}
    shift_points = [0.3 + 0.1j, 1.2 + 0j, 0.5j]
    rand_points = box_points(rng, rand_grid, 3)

    def job(name, sub, symbol, extra, check, golden, ext="json"):
        out = workdir / f"{name}.{ext}"
        args = [sub] + (["--symbol", files[symbol]] if symbol else []) + extra
        return CliJob(name, args + ["--out", str(out)], out, check, golden)

    def grid_arg(grid):
        return f"--grid={grid.x0!r},{grid.x1!r},{grid.y0!r},{grid.y1!r},{grid.nx},{grid.ny}"

    def point_args(points):
        return [f"--point={lam.real!r},{lam.imag!r}" for lam in points]

    band2_1000 = degree.default_grid(BAND2, 1000)
    k3_400 = degree.default_grid(K3, 400)
    return [
        job("measure-csv-400-shift", "measure", "shift", [grid_arg(SHIFT_GRID)],
            _check_csv_rows(400 * 400), True, "csv"),
        job("measure-csv-1000-band2", "measure", "band2", [grid_arg(band2_1000)],
            _check_csv_rows(1000 * 1000), True, "csv"),
        job("measure-json-400-k3", "measure", "k3", [grid_arg(k3_400), "--format", "json"],
            _check_json_cells(400 * 400), True),
        job("measure-csv-400-random", "measure", "random", [grid_arg(rand_grid)],
            _check_csv_rows(400 * 400), False, "csv"),
        job("trace-check-shift", "trace-check", "shift",
            ["--p", "x", "--q", "y", grid_arg(SHIFT_GRID)], _check_trace(-0.5j), True),
        job("trace-check-band2", "trace-check", "band2", ["--p", "x^2", "--q", "y"],
            _check_trace(), True),
        job("trace-check-k3", "trace-check", "k3", ["--p", "x", "--q", "y^2"],
            _check_trace(), True),
        job("index-check-band2", "index-check", "band2", ["--count", "20"],
            _check_index(20), True),
        job("index-check-random", "index-check", "random", ["--count", "20"],
            _check_index(20), False),
        job("winding-shift", "winding", "shift", point_args(shift_points),
            _check_winding(SHIFT, shift_points), True),
        job("winding-random", "winding", "random", point_args(rand_points),
            _check_winding(rand, rand_points), False),
        job("smooth-limit-k3", "smooth-limit", "k3", [], _check_smooth_limit, True),
        job("besov-k3", "besov", "k3", ["--p", "2"], _check_besov(K3), True),
        job("besov-random", "besov", "random", ["--p", "2"], _check_besov(rand), False),
        job("gallery-json", "gallery", None, [], _check_gallery_json, True),
        job("gallery-csv", "gallery", None, ["--format", "csv"], _check_gallery_csv,
            True, "csv"),
    ]


# -- density-sweep -------------------------------------------------------------------

# (band, grid cells per side, radius); hh_density(refine=True) adds the doubled grid
SWEEP = ((1, 1600, 1.0), (2, 1200, 0.9), (3, 1000, 1.0), (4, 800, 1.0), (8, 800, 0.9),
         (16, 400, 1.0), (32, 400, 0.9), (64, 400, 1.0))
# analytic symbols of criterion 03, whose total variation has a closed form
TV_ANCHORS = (SHIFT, FourierSymbol({1: 1.0, 2: 0.3}), FourierSymbol({2: 1.0}))
INDEX_CHECKS = 3


def _density_job(name, sym, r, grid, candidates, tv_reference=None) -> PyJob:
    def run():
        density = measure.hh_density(sym, r, grid, refine=True)
        tv = measure.total_variation(density)
        checks = []
        for lam in candidates:
            if len(checks) == INDEX_CHECKS:
                break
            if density.grid.value_at(lam) is not None:
                checks.append(measure.index_check(sym, lam, r, density=density))
        return tv, checks

    def check(result) -> list:
        tv, checks = result
        _expect(math.isfinite(tv), "total variation is not finite")
        _expect(len(checks) == INDEX_CHECKS, "too few unmasked query points")
        _expect(all(ok for _, _, ok in checks), "grid winding disagrees with winding")
        if tv_reference is None:
            return []
        return [abs(2 * tv - tv_reference) / TV_TOL]

    return PyJob(name, run, check)


def density_jobs(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng(seed)
    curves = np.random.default_rng(CURVE_SEED)
    jobs = []
    for band, n, r in SWEEP:
        sym = turned(phase_symbol(curves, band), rng.uniform(0, 2 * np.pi))
        grid = degree.default_grid(sym, n)
        jobs.append(_density_job(f"density-band{band}-{n}-r{r}", sym, r, grid,
                                 box_points(rng, grid, 32)))
    for i, sym in enumerate(TV_ANCHORS):
        grid = degree.default_grid(sym, 400)
        reference = sum(k * abs(c) ** 2 for k, c in sym.coeffs.items())
        jobs.append(_density_job(f"density-anchor{i}-400", sym, 1.0, grid,
                                 box_points(rng, grid, 32), reference))
    return jobs


# -- operator-identities ---------------------------------------------------------------

# (band, deg p, deg q) of the commutator traces
TRACES = ((1, 1, 1), (2, 2, 1), (3, 3, 3), (4, 2, 2), (6, 3, 1), (8, 1, 1),
          (8, 3, 2), (12, 2, 2), (16, 1, 1), (16, 3, 3))
SMOOTHING_JOBS, SMOOTHING_CASES = 4, 10
R_GRID = tuple(round(0.1 * j, 1) for j in range(1, 10)) + (0.99,)
DEGREE_CASES = ((1, 1.0), (2, 0.9), (3, 1.0))
DEGREE_GRID = 14
BESOV_BANDS = (4, 12)


def _trace_job(name, sym, p, q) -> PyJob:
    def check(trace) -> list:
        reference, scale = fourier_trace(sym, p, q)
        return [abs(trace - reference) / (TRACE_TOL * max(1.0, scale))]
    return PyJob(name, lambda: operators.commutator_trace(sym, p, q), check)


def _smoothing_job(name, cases) -> PyJob:
    def run():
        return [operators.smoothing_trace_identity(sym, corner, r) for sym, corner, r in cases]

    def check(pairs) -> list:
        return [abs(lhs - rhs) / SMOOTHING_TOL for lhs, rhs in pairs]
    return PyJob(name, run, check)


def _schatten_job(name, sym) -> PyJob:
    n = sym.band + 1

    def run():
        base = operators.schatten_norm(operators.self_commutator(sym, n), 1)
        return base, [operators.schatten_norm(
            operators.self_commutator(sym.poisson_smooth(r), n), 1) for r in R_GRID]

    def check(result) -> list:
        base, smoothed = result
        _expect(all(2 * base - s >= -BOUND_SLACK for s in smoothed),
                "smoothed self-commutator exceeds twice the unsmoothed trace norm")
        return []
    return PyJob(name, run, check)


def _degree_jobs(name, sym, r) -> list:
    """The degree identity on a 14^2 grid, one query point per job.

    The first job rasterizes the grid; each later job compares one valid cell
    with the argument-principle winding and the Newton count.  The valid
    cells are the inputs, so they come from a raster made at set-up, and the
    grid job checks that its own raster masks the same cells.
    """
    grid = degree.default_grid(sym, DEGREE_GRID)
    valid = ~degree.multiplicity_grid(sym, r, grid).invalid
    cx, cy = grid.centers_x(), grid.centers_y()
    state = {}

    def rasterize():
        state["curve"] = degree.SampledCurve.from_symbol(sym, r)
        state["grid"] = degree.multiplicity_grid(sym, r, grid)
        return state["grid"]

    def check_grid(mg) -> list:
        _expect(np.array_equal(~mg.invalid, valid), "mask differs from the set-up raster")
        return []

    def cell_job(j, i) -> PyJob:
        w = complex(cx[i], cy[j])

        def run():
            mg = state["grid"]
            try:
                newton = degree.preimage_multiplicity(sym, r, w)
            except (NoConvergence, DegenerateRoot):
                newton = None       # not mutually valid
            return int(mg.values[j, i]), degree.winding(state["curve"], w, mg.eps / 4), newton

        def check(row) -> list:
            cell, wind, newton = row
            _expect(cell == wind and newton in (None, cell),
                    f"grid {cell}, winding {wind}, Newton {newton} disagree at {w}")
            return []
        return PyJob(f"{name}-cell{j}-{i}", run, check)

    return [PyJob(f"{name}-grid", rasterize, check_grid)] + [
        cell_job(j, i) for j, i in zip(*np.nonzero(valid))]


def _besov_job(name, sym) -> PyJob:
    def check(reports) -> list:
        ref_f, ref_g = dirichlet_energy(sym, 1.0)
        return [abs(reports[0].seminorm_partial - ref_f) / BESOV_TOL,
                abs(reports[1].seminorm_partial - ref_g) / BESOV_TOL]
    return PyJob(name, lambda: besov.besov_membership(sym, 2.0, (0.5, 0.9, 1.0)), check)


def _shift_trace_formula_job() -> PyJob:
    """Criterion 01 by quadrature: the one check here whose error is not rounding."""
    p, q = BivariatePolynomial.x(), BivariatePolynomial.y()

    def check(rep) -> list:
        return [abs(rep.lhs + 0.5j) / TRACE_TOL, abs(rep.rhs + 0.5j) / SHIFT_QUAD_TOL,
                rep.abs_err / max(QUAD_TOL, 3 * rep.quad_err_estimate)]
    return PyJob("trace-formula-shift",
                 lambda: measure.trace_formula_check(SHIFT, p, q, SHIFT_GRID, 1.0), check)


def operator_jobs(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng(seed)
    jobs = [_trace_job(f"trace-band{band}-deg{dp}{dq}", phase_symbol(rng, band),
                       random_poly(rng, dp), random_poly(rng, dq))
            for band, dp, dq in TRACES]
    for j in range(SMOOTHING_JOBS):
        cases = []
        for case in range(SMOOTHING_CASES):
            d = 1 + case % 8     # fixed sizes, so the cost does not depend on the seed
            corner = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            cases.append((phase_symbol(rng, 1 + case % 4), corner, (0.3, 0.7, 0.95)[case % 3]))
        jobs.append(_smoothing_job(f"smoothing-{j}", cases))
    jobs += [_schatten_job(f"schatten-band{band}", phase_symbol(rng, band))
             for band in (1, 2, 3, 4)]
    curves = np.random.default_rng(CURVE_SEED)
    for band, r in DEGREE_CASES:
        sym = turned(phase_symbol(curves, band), rng.uniform(0, 2 * np.pi))
        jobs += _degree_jobs(f"degree-band{band}-r{r}", sym, r)
    jobs += [_besov_job(f"besov-band{band}", phase_symbol(rng, band)) for band in BESOV_BANDS]
    jobs.append(_shift_trace_formula_job())
    return jobs


WORKLOADS = {
    "cli-jobs": cli_jobs,
    "density-sweep": density_jobs,
    "operator-identities": operator_jobs,
}
