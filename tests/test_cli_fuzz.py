"""Property test of the CLI contract over generated inputs.

Every invocation of `cli.main` either writes a report and exits 0, or
writes nothing to stdout and exits 2 (validation) or 3 (numerical) with
exactly one JSON diagnostic on stderr.  An `--out` under a missing directory
never exits 0 and creates no file.  Reports are strict JSON or CSV
with one field count per line.  Numpy's floating-point warnings
(RuntimeWarning) are errors here, because in a real process they would
reach stderr beside the diagnostic.

The inputs mix well-formed values with huge, tiny and non-finite numbers
and values of the wrong type.  Grids are always given and capped at 64 x 64
cells, and bands at 6, so that each example stays cheap; the run is
derandomized, so it is the same on every machine.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hhmeasure.cli import _ARGS, _SUBCOMMANDS, main


def number_text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


# finite numbers, from the everyday to the ends of the float range
MODERATE = st.floats(-2, 2)
EXTREME = [0.0, -0.0, 1e-300, 5e-324, 1e300, -1e300, 1e308, -1.7e308, 1.7e308]
FINITE = st.one_of(MODERATE, st.sampled_from(EXTREME),
                   st.floats(allow_nan=False, allow_infinity=False))
JUNK = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.none(), st.booleans(),
                 st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=2),
                 st.integers(-10 ** 400, 10 ** 400))
JUNK_TEXT = st.one_of(JUNK.map(number_text), FINITE.map(number_text), st.text(max_size=5))

# symbols of moderate coefficients, and at times one coefficient from anywhere
COEFFS = st.builds(
    list.__add__,
    st.lists(st.fixed_dictionaries({"k": st.integers(-6, 6), "re": st.floats(-1, 1),
                                    "im": st.floats(-1, 1)}),
             min_size=1, max_size=3),
    st.lists(st.fixed_dictionaries({"k": st.integers(-6, 6), "re": FINITE, "im": FINITE}),
             max_size=1))
BAD_COEFF = st.fixed_dictionaries({"k": st.one_of(st.just(2 ** 17 + 1), JUNK),
                                   "re": st.one_of(FINITE, JUNK), "im": JUNK})
SAMPLES = st.builds(
    lambda values, wild: values[:1] + wild + values[1 + len(wild):],
    st.sampled_from([4, 8]).flatmap(lambda n: st.lists(
        st.lists(MODERATE, min_size=2, max_size=2), min_size=n, max_size=n)),
    st.lists(st.lists(FINITE, min_size=2, max_size=2), max_size=1))
SYMBOL = st.one_of(st.builds(lambda c: {"type": "finite_band", "coeffs": c}, COEFFS),
                   st.builds(lambda v: {"type": "samples", "values": v}, SAMPLES))
BAD_SYMBOL = st.one_of(
    st.builds(lambda c, bad: {"type": "finite_band", "coeffs": c + [bad]}, COEFFS, BAD_COEFF),
    st.builds(lambda v, bad: {"type": "samples", "values": v + [bad]}, SAMPLES,
              st.one_of(JUNK, st.lists(JUNK, min_size=2, max_size=2))),
    JUNK, st.text(max_size=8),
    st.dictionaries(st.sampled_from(["type", "coeffs", "values", "extra"]),
                    st.one_of(JUNK, st.just("finite_band")), max_size=3))

# boxes around the origin, or anywhere in the float range, with at most 64 x 64 cells
CENTERED = st.floats(1, 5).map(lambda h: (-h, h, -h, h))
BOX = st.one_of(
    CENTERED, CENTERED,
    st.lists(FINITE, min_size=4, max_size=4, unique=True).map(
        lambda v: (min(v[:2]), max(v[:2]), min(v[2:]), max(v[2:]))))
GRID = st.tuples(BOX, st.integers(1, 64), st.integers(1, 64)).map(
    lambda t: ",".join(map(number_text, t[0] + t[1:])))
BAD_GRID = st.one_of(st.lists(st.one_of(FINITE, JUNK), min_size=4, max_size=7).map(
    lambda v: ",".join(map(number_text, v))), st.text(max_size=6))
# points in the box, and far from it up to the ends of the float range
FAR = st.sampled_from([1e308, -1.7e308, 1.7e308, 1e300, -1e300, 5e-324, 0.0])
POINT = st.one_of(st.tuples(MODERATE, MODERATE), st.tuples(FAR, FAR)).map(
    lambda t: ",".join(map(number_text, t)))

# (well-formed, ill-formed) values of each option, as given on the command line
VALUES = {
    "grid": (GRID, BAD_GRID),
    "r": (st.one_of(st.sampled_from([0.9, 0.99, 1.0]), st.floats(0.05, 1.0)).map(repr),
          JUNK_TEXT),
    "format": (st.sampled_from(["json", "csv"]), st.just("xml")),
    "tol": (st.floats(1e-12, 1.0).map(repr), JUNK_TEXT),
    "poly": (st.sampled_from(["x", "y", "x^2*y+3*x", "2*x*y", "1e308*x^3"]),
             st.sampled_from(["", "x^", "z", "x^-1", "nan*x"])),
    "point": (POINT, JUNK_TEXT),
    "count": (st.integers(1, 5).map(str), st.one_of(st.integers(-2, 0).map(str), JUNK_TEXT)),
    "exponents": (st.sampled_from(["1", "1.5", "2", "3", "inf", "-inf"]), JUNK_TEXT),
}
# examples per subcommand where not 30: gallery reads nothing but --format,
# and the subcommands that take points get more, as few points lie far from
# the box; besov costs about 8 ms a call
EXAMPLES = {"gallery": 6, "winding": 60, "index-check": 60}
# subcommands that rasterize a grid, which is always given to cap the cells
GRIDDED = {"measure", "trace-check", "index-check", "smooth-limit"}


@st.composite
def invocations(draw, sub: str):
    """(argv, symbol document or raw text) of one generated call of sub.

    At most one option, or the symbol, is ill-formed, and in three calls of
    four none is, so that most calls reach the numerics.  The only ill-formed
    --out is a path under a missing directory.
    """
    options = list(_SUBCOMMANDS[sub][1])
    bad = draw(st.sampled_from([None] * (3 * len(options)) + options))
    argv = [sub]
    for option in options:
        if option in ("symbol", "out"):
            continue
        good, junk = VALUES[option]
        # the grid caps the cells; smooth-limit takes several radii, and points
        # are always given, as random ones on small grids mostly fall on masked cells
        least = int((option == "grid" and sub in GRIDDED) or option == "point")
        most = 3 if (option == "r" and sub == "smooth-limit") or option == "point" else 1
        for flag in _ARGS[option]:
            values = draw(st.lists(good, min_size=least, max_size=most))
            if option == bad:
                values.append(draw(junk))
            argv += [f"{flag}={value}" for value in values]
    if bad == "out":
        argv.append("--out=MISSING")
    symbol = draw(BAD_SYMBOL if bad == "symbol" else SYMBOL)
    if "symbol" in options and not (bad == "symbol" and draw(st.booleans())):
        argv.append("--symbol=SYMBOL")
    return argv, symbol


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def check_csv(text: str) -> None:
    """One field count on every line after the optional '#' line; no nan or inf."""
    lines = text.splitlines()
    if lines and lines[0].startswith("#"):
        lines = lines[1:]
    assert lines and text.endswith("\n")
    width = len(lines[0].split(","))
    for line in lines:
        fields = line.split(",")
        assert len(fields) == width, line
        assert not {"nan", "inf", "-inf"} & {f.lower() for f in fields}, line


def check_call(argv, symbol) -> None:
    """Run main on argv with the symbol written to a file, and check the contract."""
    out, err = io.StringIO(), io.StringIO()
    unwritable = "--out=MISSING" in argv
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "symbol.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(symbol if isinstance(symbol, str) else json.dumps(symbol))
        missing = os.path.join(tmp, "missing")
        argv = [f"--symbol={path}" if a == "--symbol=SYMBOL"
                else f"--out={os.path.join(missing, 'report')}" if a == "--out=MISSING"
                else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert not os.path.exists(missing)
    out, err = out.getvalue(), err.getvalue()
    assert code in ((2, 3) if unwritable else (0, 2, 3)), (argv, code, err)
    if code == 0:
        assert err == ""
        if out.startswith("{"):
            strict_json(out)
        else:
            check_csv(out)
    else:
        assert out == ""
        assert err.endswith("\n")
        diagnostic = strict_json(err)
        assert set(diagnostic) == {"error", "code", "message"}
        assert diagnostic["code"] == ("schema" if code == 2 else "numerical")


def test_every_option_is_fuzzed():
    # --symbol and --out are drawn by invocations itself
    assert set(VALUES) == set(_ARGS) - {"symbol", "out"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sub", sorted(_SUBCOMMANDS))
def test_every_input_gives_a_report_or_one_diagnostic(sub):
    @settings(max_examples=EXAMPLES.get(sub, 30), derandomize=True, deadline=None,
              database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(invocations(sub))
    def check(call):
        check_call(*call)

    check()


ZERO = {"type": "finite_band", "coeffs": [{"k": 0, "re": 0.0, "im": 0.0}]}
ROTATED_SHIFT = {"type": "finite_band", "coeffs": [{"k": 1, "re": 0.0, "im": 1.0}]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, symbol", [
    # a cell area beyond the float range scales the moments past it
    (["smooth-limit", "--grid=0.0,1e+308,1.0,3.0,1,1", "--symbol=SYMBOL"], ZERO),
    # in units of a 1e308-tall cell the curve's rises are subnormal
    (["smooth-limit", "--grid=0.0,1.0,2.0,1e+308,1,1", "--symbol=SYMBOL"], ROTATED_SHIFT),
    # an --out that cannot be opened ended in a traceback
    (["gallery", "--out=MISSING"], ZERO),
    # a failed --tol gate wrote the report and a "tolerance" diagnostic
    (["trace-check", "--grid=-1,1,-1,1,1,1", "--tol=1e-12", "--symbol=SYMBOL"], ROTATED_SHIFT),
])
def test_found_inputs(argv, symbol):
    """Inputs that generated calls once found, kept whatever hypothesis draws."""
    check_call(argv, symbol)
