import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from hhmeasure import FourierSymbol, besov
from hhmeasure.errors import NonFiniteError, RangeError

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def random_symbol(rng, band, unit_coeffs=True, real=False):
    """Random finite-band symbol; coefficients inside the unit disk."""
    coeffs = {}
    for k in range(-band, band + 1):
        if k == 0 and not real:
            continue
        c = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        if unit_coeffs:
            c /= np.sqrt(2)
        coeffs[k] = c
    if real:
        sym = {}
        for k in range(1, band + 1):
            sym[k] = coeffs.get(k, 0)
            sym[-k] = np.conj(coeffs.get(k, 0))
        sym[0] = complex(coeffs.get(0, 0)).real
        return FourierSymbol(sym, real_valued=True)
    return FourierSymbol(coeffs)


def load_perfbench(name):
    """A fresh copy of perfbench/<name>.py, registered in sys.modules for its dataclasses."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def row_sweep_windings(pts, cx, cy):
    """Reference winding raster: one crossing-count sweep per grid row.

    For each row, the edges crossing its center line (half-open rule) are
    sorted by crossing abscissa; a center's winding is the signed count of
    crossings strictly to its right.
    """
    x1, y1 = pts.real, pts.imag
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    out = np.zeros((cy.size, cx.size), dtype=np.int64)
    for j, yc in enumerate(cy):
        below1 = y1 <= yc
        cross = below1 != (y2 <= yc)
        if not np.any(cross):
            continue
        sgn = np.where(below1[cross], 1, -1)
        t = (yc - y1[cross]) / (y2[cross] - y1[cross])
        xs = x1[cross] + t * (x2[cross] - x1[cross])
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        prefix = np.concatenate(([0], np.cumsum(sgn[order])))
        idx = np.searchsorted(xs, cx, side="right")
        out[j] = prefix[-1] - prefix[idx]
    return out


def dense_coverage(pts, grid):
    """Reference coverage raster: a dense ny x (nx + 1) buffer and one cumulative sum per row.

    Every cell's exact average of the winding number of the closed polygon
    pts, with the cutting, clamping and deposits of `degree._coverage`, but
    summed over every cell of the grid: the pieces' deposits go into the
    buffer by two `bincount`s, and `cumsum` runs along each row.
    """
    with np.errstate(over="ignore"):  # far vertices are clamped
        u = np.clip((pts.real - grid.x0) / grid.hx, -1.0, grid.nx + 1.0)
        v = np.clip((pts.imag - grid.y0) / grid.hy, -1.0, grid.ny + 1.0)
    du, dv = np.roll(u, -1) - u, np.roll(v, -1) - v
    # the parameter of the one vertical and one horizontal grid line an edge may cross
    tx, ty = (np.clip((np.floor(np.maximum(a, a + d)) - a) / np.where(d != 0, d, 1.0), 0, 1)
              for a, d in ((u, du), (v, dv)))
    t = np.stack([np.zeros_like(u), np.minimum(tx, ty), np.maximum(tx, ty), np.ones_like(u)])
    mid = (t[1:] + t[:-1]) / 2
    um, vm = np.maximum(u + mid * du, 0.0), v + mid * dv
    col, row = np.floor(um), np.floor(vm)
    keep = (row >= 0) & (row < grid.ny) & (col < grid.nx)
    width = grid.nx + 1
    idx = (row[keep] * width + col[keep]).astype(np.int64)
    f = (um - col)[keep]
    height = -((t[1:] - t[:-1]) * dv)[keep]
    # bincount of no weights is int64
    acc = np.bincount(idx, height * (1 - f), grid.ny * width).astype(np.float64, copy=False)
    acc += np.bincount(idx + 1, height * f, grid.ny * width)
    acc = acc.reshape(grid.ny, width)
    return np.cumsum(acc, axis=1, out=acc)[:, :grid.nx]


def ring_by_ring_partials(integrand, radii, band: int) -> list[float]:
    """Reference disk quadrature: one integrand(r, thetas) call per ring.

    The loop that `besov._disk_integral_partials` batched, unchanged: the
    same panels, Gauss nodes and angles, each ring summed on its own and
    accumulated in order, with the band guard and the overflow check.
    """
    if band > besov._MAX_QUAD_BAND:
        raise RangeError(f"band {band} exceeds the {besov._MAX_QUAD_BAND} guard"
                         " of the disk quadrature")
    n_theta = max(128, 8 * band + 16)
    thetas = np.arange(n_theta) * (2 * np.pi / n_theta)
    d_theta = 2 * np.pi / n_theta
    partials = []
    total = 0.0
    prev = 0.0
    for rho in radii:
        edges = besov._radial_panels(rho)
        lo = np.searchsorted(edges, prev)
        seg_edges = np.concatenate(([prev], edges[lo:][edges[lo:] > prev]))
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in zip(seg_edges[:-1], seg_edges[1:]):
                nodes = (b - a) / 2 * besov._GAUSS_NODES + (a + b) / 2
                for r, wgt in zip(nodes, besov._GAUSS_WEIGHTS * (b - a) / 2):
                    ring = float(np.sum(integrand(r, thetas))) * d_theta * r
                    total += wgt * ring
        if not math.isfinite(total):
            raise NonFiniteError(f"disk integral up to radius {rho:g} is not finite: {total}")
        partials.append(total)
        prev = rho
    return partials


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
