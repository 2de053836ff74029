"""Command-line surface: symbol ingestion, experiment orchestration, reports.

Subcommands: measure, trace-check, winding, index-check, smooth-limit,
besov, gallery.  Outputs are deterministic: stable ordering, floats printed
with 17 significant digits.  Exit codes: 0 success, 2 validation error,
3 numerical failure; errors emit a JSON diagnostic on standard error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import besov as besov_mod
from . import gallery as gallery_mod
from .degree import GridSpec, SampledCurve, default_grid, winding
from .errors import NumericalError, RangeError, ValidationError, WindingUndefined
from .measure import (MeasureDensity, hh_density, index_check, smoothing_limit_probe,
                      trace_formula_check)
from .poly import BivariatePolynomial, parse_polynomial
from .symbols import FourierSymbol, load_symbol_spec

_MAX_CELLS = 10 ** 7


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats.

    A complex number is written as the object {"im": ..., "re": ...}.
    """
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_dump_json(obj[k], indent + 2).lstrip()}'
                 for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [pad + "  " + _dump_json(v, indent + 2).lstrip() for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return _dump_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)}")


def _diagnostic(code: str, exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "code": code, "message": str(exc)}
    sys.stderr.write(_dump_json(payload) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _diagnostic("schema", ValueError(message))
        raise SystemExit(2)


@dataclass
class RunConfig:
    """Validated invocation: subcommand plus every tunable the CLI exposes."""

    subcommand: str
    symbol_path: str | None = None
    grid: GridSpec | None = None
    r_list: tuple = ()
    n_override: int | None = None
    tol: float | None = None
    out_path: str | None = None
    format: str = "json"
    p_text: str | None = None
    q_text: str | None = None
    points: tuple = ()
    count: int = 20
    exponent_p: float | None = None
    exponent_q: float | None = None

    def __post_init__(self):
        if self.grid is not None:
            cells = self.grid.nx * self.grid.ny
            if cells > _MAX_CELLS:
                raise RangeError(f"{cells} grid cells exceed the {_MAX_CELLS} cell guard")
        for r in self.r_list:
            if not 0.0 < r <= 1.0:
                raise RangeError(f"r must lie in (0,1], got {r}")
        if self.tol is not None and not np.isfinite(self.tol):
            raise RangeError(f"tol must be finite, got {self.tol}")
        if self.format not in ("json", "csv"):
            raise RangeError(f"format must be json or csv, got {self.format}")
        if self.count < 1:
            raise RangeError(f"count must be >= 1, got {self.count}")


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 6:
        raise RangeError("grid must be x0,x1,y0,y1,nx,ny")
    x0, x1, y0, y1 = (float(v) for v in parts[:4])
    nx, ny = int(parts[4]), int(parts[5])
    return GridSpec(x0, x1, y0, y1, nx, ny)


def _parse_point(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise RangeError("point must be re,im")
    point = complex(float(parts[0]), float(parts[1]))
    if not np.isfinite(point):
        raise RangeError(f"point must be finite, got {text}")
    return point


def _load_symbol(config: RunConfig) -> FourierSymbol:
    if not config.symbol_path:
        raise RangeError("this subcommand requires --symbol")
    return load_symbol_spec(config.symbol_path)


def _radius(config: RunConfig, sym: FourierSymbol) -> float:
    """The single --r, else 1 for exact symbols and 0.999 for truncations."""
    if len(config.r_list) > 1:
        raise RangeError(f"{config.subcommand} takes one --r, got {len(config.r_list)}")
    return config.r_list[0] if config.r_list else (1.0 if sym.is_finite_band else 0.999)


def _poly_or(text: str | None, fallback: BivariatePolynomial) -> BivariatePolynomial:
    if text is None:
        return fallback
    try:
        return parse_polynomial(text)
    except ValueError as exc:
        raise RangeError(str(exc)) from exc


def _emit(config: RunConfig, chunks) -> None:
    """Write an iterable of str chunks to --out, or to stdout without it.

    Callers do everything that can fail first, so a failed run opens no file.
    """
    if config.out_path:
        with open(config.out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


# -- subcommand bodies ---------------------------------------------------------

def _cell_codes(density: MeasureDensity) -> tuple:
    """(codes, table): each cell's code and, per code, its (re, im, valid).

    Cells share a code iff they share multiplicity and validity, and so share
    the bytes of their values.  A cell's key is 2 m + valid, and its code the
    rank of its key among the keys present, counted over their small range
    without sorting the cells.  The table formats each code once, from m
    divided by 2 pi i as an int32 array, the operation that gives
    `MeasureDensity.values`.  Codes come from the integers, not the complex
    values, which would merge 0.0 and -0.0.
    """
    mg = density.grid
    key = (mg.values * 2 + ~mg.invalid).ravel()
    low = key.min()
    key -= low
    present = np.bincount(key) > 0
    keys = np.flatnonzero(present) + low
    values = (keys >> 1).astype(np.int32) / (2j * np.pi)
    table = [(_fmt(v.real), _fmt(v.imag), bool(k & 1)) for v, k in zip(values, keys.tolist())]
    rank = np.cumsum(present) - 1
    return rank[key].reshape(mg.invalid.shape), table


def _csv_rows(head: str, sx: list, sy: list, codes: np.ndarray, table: list):
    """Lines x,y,re,im,valid after head, one chunk per grid row."""
    tails = [f",{re},{im},{1 if valid else 0}\n" for re, im, valid in table]
    yield head
    for y, row in zip(sy, codes):
        tab = ["," + y + tail for tail in tails]
        yield "".join(map(str.__add__, sx, map(tab.__getitem__, row.tolist())))


def _json_cells(rest: str, sx: list, sy: list, codes: np.ndarray, table: list):
    """The _dump_json document of cells and the keys of rest, one chunk per row.

    "cells" sorts before every key of rest, so it opens the document.
    """
    heads = [f'    {{\n      "im": {im},\n      "re": {re},\n'
             f'      "valid": {"true" if valid else "false"},\n      "x": '
             for re, im, valid in table]
    yield '{\n  "cells": [\n'
    sep = ""
    for y, row in zip(sy, codes):
        tail = ',\n      "y": ' + y + "\n    }"
        cells = map(str.__add__, map(heads.__getitem__, row.tolist()),
                    [x + tail for x in sx])
        yield sep + ",\n".join(cells)
        sep = ",\n"
    yield "\n  ],\n" + rest.removeprefix("{\n") + "\n"


def _run_measure(config: RunConfig) -> int:
    sym = _load_symbol(config)
    r = _radius(config, sym)
    grid = config.grid or default_grid(sym)
    density = hh_density(sym, r, grid)
    codes, table = _cell_codes(density)
    sx = [_fmt(x) for x in grid.centers_x()]
    sy = [_fmt(y) for y in grid.centers_y()]
    if config.format == "csv":
        head = (f"# grid=({_fmt(grid.x0)},{_fmt(grid.x1)},{_fmt(grid.y0)},{_fmt(grid.y1)})"
                f" nx={grid.nx} ny={grid.ny} r={_fmt(r)}"
                f" tail_bound={_fmt(sym.tail_bound)}"
                f" masked_area_fraction={_fmt(density.masked_area_fraction)}\n"
                "x,y,density_re,density_im,valid\n")
        _emit(config, _csv_rows(head, sx, sy, codes, table))
    else:
        rest = _dump_json({"grid": grid.to_dict(), "r": r, "tail_bound": sym.tail_bound,
                           "masked_area_fraction": density.masked_area_fraction})
        _emit(config, _json_cells(rest, sx, sy, codes, table))
    return 0


def _run_trace_check(config: RunConfig) -> int:
    sym = _load_symbol(config)
    p = _poly_or(config.p_text, BivariatePolynomial.x())
    q = _poly_or(config.q_text, BivariatePolynomial.y())
    r = _radius(config, sym)
    grid = config.grid or default_grid(sym)
    report = trace_formula_check(sym, p, q, grid, r, n_override=config.n_override)
    _emit(config, [_dump_json(report.to_dict()) + "\n"])
    if config.tol is not None and report.abs_err > config.tol:
        _diagnostic("tolerance", RangeError(
            f"abs_err {report.abs_err:g} exceeds --tol {config.tol:g}"))
        return 3
    return 0


def _run_winding(config: RunConfig) -> int:
    sym = _load_symbol(config)
    if not config.points:
        raise RangeError("winding requires at least one --point re,im")
    r = _radius(config, sym)
    eps = config.tol if config.tol is not None else 1e-8
    curve = SampledCurve.from_symbol(sym, r)
    rows = []
    for lam in config.points:
        w = winding(curve, lam, eps)
        rows.append({"lambda": lam, "winding": w})
    _emit(config, [_dump_json({"r": r, "eps": eps, "rows": rows,
                               "tail_bound": sym.tail_bound}) + "\n"])
    return 0


def _run_index_check(config: RunConfig) -> int:
    sym = _load_symbol(config)
    r = _radius(config, sym)
    grid = config.grid or default_grid(sym)
    density = hh_density(sym, r, grid)
    points = list(config.points)
    if not points:
        rng = np.random.default_rng(0)
        budget = 50 * config.count
        while len(points) < config.count and budget > 0:
            budget -= 1
            w = complex(rng.uniform(grid.x0, grid.x1), rng.uniform(grid.y0, grid.y1))
            if density.grid.value_at(w) is not None:
                points.append(w)
        if len(points) < config.count:
            raise WindingUndefined("mask budget exhausted while sampling points")
    rows = []
    all_ok = True
    for lam in points:
        wind, value, ok = index_check(sym, lam, r, density=density)
        all_ok &= ok
        rows.append({"lambda": lam, "winding": wind, "density": value, "ok": ok})
    _emit(config, [_dump_json({"r": r, "all_ok": all_ok, "rows": rows,
                               "tail_bound": sym.tail_bound,
                               "masked_area_fraction": density.masked_area_fraction}) + "\n"])
    return 0


def _run_smooth_limit(config: RunConfig) -> int:
    sym = _load_symbol(config)
    p = _poly_or(config.p_text, BivariatePolynomial.x())
    q = _poly_or(config.q_text, BivariatePolynomial.y())
    r_list = config.r_list or (0.9, 0.99, 0.999)
    grid = config.grid or default_grid(sym)
    report = smoothing_limit_probe(sym, p, q, r_list, grid)
    _emit(config, [_dump_json(report.to_dict()) + "\n"])
    return 0


def _run_besov(config: RunConfig) -> int:
    sym = _load_symbol(config)
    p = config.exponent_p if config.exponent_p is not None else 2.0
    f_rep, g_rep = besov_mod.besov_membership(sym, p)
    doc = {"p": p, "analytic_half": f_rep.to_dict(),
           "coanalytic_half": g_rep.to_dict(), "tail_bound": sym.tail_bound}
    if config.exponent_q is not None:
        verdict = besov_mod.almost_normal_sufficient(sym, p, config.exponent_q)
        doc["almost_normal_sufficient"] = verdict.to_dict()
    _emit(config, [_dump_json(doc) + "\n"])
    return 0


def _run_gallery(config: RunConfig) -> int:
    rows = gallery_mod.summary_table()
    if config.format == "csv":
        def cell(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return str(value).lower()
            return _fmt(float(value))

        lines = ["case,quantity,computed,closed_form"]
        for row in rows:
            lines.append(f"{row['case']},{row['quantity']},"
                         f"{cell(row['computed'])},{cell(row['closed_form'])}")
        _emit(config, ["\n".join(lines) + "\n"])
    else:
        _emit(config, [_dump_json({"rows": rows}) + "\n"])
    return 0


_SUBCOMMANDS = {
    "measure": _run_measure,
    "trace-check": _run_trace_check,
    "winding": _run_winding,
    "index-check": _run_index_check,
    "smooth-limit": _run_smooth_limit,
    "besov": _run_besov,
    "gallery": _run_gallery,
}


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    handler = _SUBCOMMANDS.get(config.subcommand)
    if handler is None:
        _diagnostic("schema", RangeError(f"unknown subcommand {config.subcommand!r}"))
        return 2
    try:
        return handler(config)
    except ValidationError as exc:
        _diagnostic("schema", exc)
        return 2
    except NumericalError as exc:
        _diagnostic("numerical", exc)
        return 3


# argparse settings of every option, stored under the RunConfig field names;
# --p/--q are polynomials except on besov
_ARGS = {
    "out": {"--out": dict(dest="out_path", metavar="PATH", help="output path (default: stdout)")},
    "symbol": {"--symbol": dict(dest="symbol_path", metavar="PATH",
                                help="path to a symbol-spec JSON file")},
    "grid": {"--grid": dict(help="x0,x1,y0,y1,nx,ny")},
    "r": {"--r": dict(dest="r_list", metavar="R", action="append", type=float,
                      help="smoothing radius in (0,1]; repeatable on smooth-limit")},
    "format": {"--format": dict(choices=("json", "csv"))},
    "tol": {"--tol": dict(type=float, help="tolerance (trace-check gate / winding eps)")},
    "n": {"--n": dict(dest="n_override", metavar="N", type=int, help="truncation override")},
    "poly": {"--p": dict(dest="p_text", metavar="POLY", help="polynomial, e.g. 'x^2*y+3*x'"),
             "--q": dict(dest="q_text", metavar="POLY", help="polynomial, e.g. 'y'")},
    "point": {"--point": dict(dest="points", metavar="RE,IM", action="append",
                              help="query point re,im; repeatable")},
    "count": {"--count": dict(type=int, help="sampled points when --point is absent")},
    "exponents": {"--p": dict(dest="exponent_p", metavar="P", type=float,
                             help="Besov exponent"),
                  "--q": dict(dest="exponent_q", metavar="Q", type=float,
                              help="conjugate exponent (float or inf)")},
}

# the options each subcommand reads
_OPTIONS = {
    "measure": ("out", "symbol", "grid", "r", "format"),
    "trace-check": ("out", "symbol", "grid", "r", "tol", "n", "poly"),
    "winding": ("out", "symbol", "r", "tol", "point"),
    "index-check": ("out", "symbol", "grid", "r", "point", "count"),
    "smooth-limit": ("out", "symbol", "grid", "r", "poly"),
    "besov": ("out", "symbol", "exponents"),
    "gallery": ("out", "format"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hhmeasure",
                     description="Helton-Howe measure densities of Toeplitz operators")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parsers = {}
    for name, options in _OPTIONS.items():
        sp = parsers[name] = sub.add_parser(name)
        for option in options:
            for flag, settings in _ARGS[option].items():
                sp.add_argument(flag, **settings)
    parsers["measure"].set_defaults(format="csv")
    return parser


def _config_from_args(args) -> RunConfig:
    """RunConfig of the given options; absent ones keep the RunConfig defaults."""
    opts = {k: v for k, v in vars(args).items() if v is not None}
    if "grid" in opts:
        opts["grid"] = _parse_grid(opts["grid"])
    opts["points"] = tuple(_parse_point(t) for t in opts.get("points", ()))
    opts["r_list"] = tuple(opts.get("r_list", ()))
    return RunConfig(**opts)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValidationError, ValueError) as exc:
        _diagnostic("schema", exc)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
