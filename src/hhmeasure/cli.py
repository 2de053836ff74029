"""Command-line surface: symbol ingestion, experiment orchestration, reports.

Subcommands: measure, trace-check, winding, index-check, smooth-limit,
besov, gallery, each declared once in `_SUBCOMMANDS` by its handler and the
options it reads.  Each option is declared once in `_ARGS`, with its default
and an argparse type that parses and checks its value where argparse reads
it; handlers read the parsed namespace.  Outputs are deterministic: stable
ordering, floats printed with 17 significant digits.  `main` is the one
error boundary: exit 0 on success, 2 on a validation error or an `--out`
that cannot be opened, 3 on a numerical failure, each failure with one JSON
diagnostic on standard error.
"""

from __future__ import annotations

import argparse
import math
import sys

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
# points index-check may sample: each adds ~0.13 ms and ~210 output bytes (2-core x86)
_MAX_COUNT = 1000


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


def _checked(convert, ok, reason: str):
    """argparse type: convert, then RangeError(reason) unless ok.  It keeps
    convert's name, which argparse cites for a text that does not convert."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise RangeError(f"{reason}, got {value}")
        return value

    parse.__name__ = convert.__name__
    return parse


def _reasoned(parse):
    """argparse type that keeps parse's reason: argparse would replace a
    ValueError's message by "invalid <type> value", so it leaves as a RangeError."""
    def typed(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise RangeError(str(exc)) from exc

    return typed


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(",")
    if len(parts) != 6:
        raise RangeError(f"grid must be x0,x1,y0,y1,nx,ny, got {text}")
    bounds = [float(v) for v in parts[:4]]
    nx, ny = int(parts[4]), int(parts[5])
    # before GridSpec, so that an oversized grid is rejected by the cell guard
    if nx * ny > _MAX_CELLS:
        raise RangeError(f"{nx * ny} grid cells exceed the {_MAX_CELLS} cell guard")
    return GridSpec(*bounds, nx, ny)


def _parse_point(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise RangeError(f"point must be re,im, got {text}")
    point = complex(float(parts[0]), float(parts[1]))
    if not np.isfinite(point):
        raise RangeError(f"point must be finite, got {text}")
    return point


def _load_symbol(args) -> FourierSymbol:
    if not args.symbol:
        raise RangeError("this subcommand requires --symbol")
    return load_symbol_spec(args.symbol)


def _radius(args) -> float:
    """The single --r, else 1: every symbol file gives an exact finite-band symbol."""
    radii = args.r or [1.0]
    if len(radii) > 1:
        raise RangeError(f"{args.subcommand} takes one --r, got {len(radii)}")
    return radii[0]


def _emit(args, chunks) -> None:
    """Write an iterable of str chunks to --out, or to stdout without it.

    Callers do everything that can fail first, so a failed run opens no file.
    """
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
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


def _run_measure(args) -> int:
    sym = _load_symbol(args)
    r = _radius(args)
    grid = args.grid or default_grid(sym)
    density = hh_density(sym, r, grid)
    codes, table = _cell_codes(density)
    sx = [_fmt(x) for x in grid.centers_x()]
    sy = [_fmt(y) for y in grid.centers_y()]
    if args.format == "csv":
        head = (f"# grid=({_fmt(grid.x0)},{_fmt(grid.x1)},{_fmt(grid.y0)},{_fmt(grid.y1)})"
                f" nx={grid.nx} ny={grid.ny} r={_fmt(r)}"
                f" tail_bound={_fmt(sym.tail_bound)}"
                f" masked_area_fraction={_fmt(density.masked_area_fraction)}\n"
                "x,y,density_re,density_im,valid\n")
        _emit(args, _csv_rows(head, sx, sy, codes, table))
    else:
        rest = _dump_json({"grid": grid.to_dict(), "r": r, "tail_bound": sym.tail_bound,
                           "masked_area_fraction": density.masked_area_fraction})
        _emit(args, _json_cells(rest, sx, sy, codes, table))
    return 0


def _run_trace_check(args) -> int:
    sym = _load_symbol(args)
    report = trace_formula_check(sym, args.p, args.q, args.grid, _radius(args),
                                 n_override=args.n)
    _emit(args, [_dump_json(report.to_dict()) + "\n"])
    if args.tol is not None and report.abs_err > args.tol:
        _diagnostic("tolerance", RangeError(
            f"abs_err {report.abs_err:g} exceeds --tol {args.tol:g}"))
        return 3
    return 0


def _run_winding(args) -> int:
    sym = _load_symbol(args)
    if not args.point:
        raise RangeError("winding requires at least one --point re,im")
    r = _radius(args)
    eps = args.tol if args.tol is not None else 1e-8
    curve = SampledCurve.from_symbol(sym, r)
    rows = [{"lambda": lam, "winding": winding(curve, lam, eps)} for lam in args.point]
    _emit(args, [_dump_json({"r": r, "eps": eps, "rows": rows,
                             "tail_bound": sym.tail_bound}) + "\n"])
    return 0


def _run_index_check(args) -> int:
    sym = _load_symbol(args)
    r = _radius(args)
    grid = args.grid or default_grid(sym)
    density = hh_density(sym, r, grid)
    points = list(args.point or ())
    if not points:
        rng = np.random.default_rng(0)
        budget = 50 * args.count
        while len(points) < args.count and budget > 0:
            budget -= 1
            w = complex(rng.uniform(grid.x0, grid.x1), rng.uniform(grid.y0, grid.y1))
            if density.grid.value_at(w) is not None:
                points.append(w)
        if len(points) < args.count:
            raise WindingUndefined("mask budget exhausted while sampling points")
    rows = []
    all_ok = True
    for lam in points:
        wind, value, ok = index_check(sym, lam, r, density=density)
        all_ok &= ok
        rows.append({"lambda": lam, "winding": wind, "density": value, "ok": ok})
    _emit(args, [_dump_json({"r": r, "all_ok": all_ok, "rows": rows,
                             "tail_bound": sym.tail_bound,
                             "masked_area_fraction": density.masked_area_fraction}) + "\n"])
    return 0


def _run_smooth_limit(args) -> int:
    sym = _load_symbol(args)
    report = smoothing_limit_probe(sym, args.p, args.q, args.r or (0.9, 0.99, 0.999), args.grid)
    _emit(args, [_dump_json(report.to_dict()) + "\n"])
    return 0


def _run_besov(args) -> int:
    sym = _load_symbol(args)
    f_rep, g_rep = besov_mod.besov_membership(sym, args.p)
    doc = {"p": args.p, "analytic_half": f_rep.to_dict(),
           "coanalytic_half": g_rep.to_dict(), "tail_bound": sym.tail_bound}
    if args.q is not None:
        verdict = besov_mod.almost_normal_sufficient(sym, args.p, args.q)
        doc["almost_normal_sufficient"] = verdict.to_dict()
    _emit(args, [_dump_json(doc) + "\n"])
    return 0


def _run_gallery(args) -> int:
    rows = gallery_mod.summary_table()
    if args.format == "csv":
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
        _emit(args, ["\n".join(lines) + "\n"])
    else:
        _emit(args, [_dump_json({"rows": rows}) + "\n"])
    return 0


# argparse settings of every option: each parses and checks its value where
# argparse reads it, and carries its default; --p/--q are polynomials except on besov
_ARGS = {
    "out": {"--out": dict(metavar="PATH", help="output path (default: stdout)")},
    "symbol": {"--symbol": dict(metavar="PATH", help="path to a symbol-spec JSON file")},
    "grid": {"--grid": dict(type=_reasoned(_parse_grid), help="x0,x1,y0,y1,nx,ny")},
    "r": {"--r": dict(action="append", type=_checked(float, lambda r: 0.0 < r <= 1.0,
                                                      "r must lie in (0,1]"),
                      help="smoothing radius in (0,1]; repeatable on smooth-limit")},
    "format": {"--format": dict(choices=("json", "csv"), default="json")},
    "tol": {"--tol": dict(type=_checked(float, math.isfinite, "tol must be finite"),
                          help="tolerance (trace-check gate / winding eps)")},
    "n": {"--n": dict(type=int, help="truncation override")},
    "poly": {"--p": dict(metavar="POLY", type=_reasoned(parse_polynomial),
                         default=BivariatePolynomial.x(), help="polynomial, e.g. 'x^2*y+3*x'"),
             "--q": dict(metavar="POLY", type=_reasoned(parse_polynomial),
                         default=BivariatePolynomial.y(), help="polynomial, e.g. 'y'")},
    "point": {"--point": dict(metavar="RE,IM", action="append", type=_reasoned(_parse_point),
                              help="query point re,im; repeatable")},
    "count": {"--count": dict(type=_checked(int, lambda n: 1 <= n <= _MAX_COUNT,
                                            f"count must be >= 1 and at most {_MAX_COUNT}"),
                              default=20, help="sampled points when --point is absent")},
    "exponents": {"--p": dict(type=float, default=2.0, help="Besov exponent"),
                  "--q": dict(type=float, help="conjugate exponent (float or inf)")},
}

# each subcommand's handler and the options it reads
_SUBCOMMANDS = {
    "measure": (_run_measure, ("out", "symbol", "grid", "r", "format")),
    "trace-check": (_run_trace_check, ("out", "symbol", "grid", "r", "tol", "n", "poly")),
    "winding": (_run_winding, ("out", "symbol", "r", "tol", "point")),
    "index-check": (_run_index_check, ("out", "symbol", "grid", "r", "point", "count")),
    "smooth-limit": (_run_smooth_limit, ("out", "symbol", "grid", "r", "poly")),
    "besov": (_run_besov, ("out", "symbol", "exponents")),
    "gallery": (_run_gallery, ("out", "format")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hhmeasure",
                     description="Helton-Howe measure densities of Toeplitz operators")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, options) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        for option in options:
            for flag, settings in _ARGS[option].items():
                sp.add_argument(flag, **settings)
    sub.choices["measure"].set_defaults(format="csv")
    return parser


def main(argv=None) -> int:
    """Exit code of one invocation; any error not caught below is a bug and propagates."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValidationError as exc:
        _diagnostic("schema", exc)
        return 2
    handler, _ = _SUBCOMMANDS[args.subcommand]
    try:
        return handler(args)
    except (ValidationError, OSError) as exc:
        _diagnostic("schema", exc)
        return 2
    except NumericalError as exc:
        _diagnostic("numerical", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
