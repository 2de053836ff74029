"""Byte-level pins of every CLI subcommand on fixed symbols, and of rasters.

Each case runs ``hhmeasure.cli.main`` in process on a small grid and compares
the sha256 of the output file with a digest recorded before the coarse/fine
pair refactor; the ``zz`` and ``conj`` cases were recorded before ``measure``
streamed its rows from format tables.  A digest changes only when an output
byte changes; a deliberate change of output must update the digest and say so
in CHANGES.md.  The trace-check and smooth-limit digests were re-recorded
when moments moved from a masked Richardson pair to exact cell coverage on
one grid.  Every measure, index-check, trace-check and smooth-limit digest
was re-recorded when the mask moved from distances to cell indices: masked
fractions and valid flags moved, and moments in their last digits.

The raster pins hash the integer values and the mask of the grid of
``hh_density`` directly, so they see every cell, masked or not; they were
re-recorded when the mask moved to cell indices, with the same integers on
every cell valid under both masks.  The total variation pins were recorded
when it moved from a masked Richardson pair to exact cell coverage on that
one grid.

The split pins hash, over fixed seeded symbols, everything that reads the
split Phi = F + conj(G): the extension, its Wirtinger derivatives and
Jacobian, the self-commutator and Hankel entries, Newton preimage counts and
the Besov reports; they were recorded before the split arrays were cached.
The preimage pin was re-recorded when the Newton oracle moved to an
exclusion quadtree: the zero symbol at w = 0, whose preimage set is the
whole disk, now raises DegenerateRoot instead of NoConvergence, and every
other count is unchanged.
"""

import hashlib
import json

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from hhmeasure import FourierSymbol
from hhmeasure.besov import besov_membership, jacobian_integrability
from hhmeasure.cli import main
from hhmeasure.degree import default_grid, preimage_multiplicity
from hhmeasure.errors import HHMeasureError
from hhmeasure.measure import MeasureDensity, hh_density, total_variation
from hhmeasure.operators import hankel_matrix, self_commutator
from hhmeasure.symbols import _eval_extension, _jacobian, _wirtinger

from conftest import dense_coverage

SYMBOLS = {
    "shift": {1: 1.0},
    "band2": {1: 1.0, 2: 0.4, -1: 0.2},
    # density values 0, 1 and 2 (over 2 pi i) with masked cells
    "zz": {2: 1.0, -1: 0.5},
    # negative multiplicity
    "conj": {-1: 1.0},
}

SHIFT_BOX = "--grid=-1.5,1.5,-1.5,1.5"
BAND2_BOX = "--grid=-2.1,2.1,-2.1,2.1"

# name -> (subcommand, symbol or None, extra arguments, output extension)
CASES = {
    "measure-csv-shift": ("measure", "shift", [SHIFT_BOX + ",40,40"], "csv"),
    "measure-csv-shift-r": ("measure", "shift",
                            [SHIFT_BOX + ",30,30", "--r", "0.9"], "csv"),
    "measure-json-band2": ("measure", "band2",
                           [BAND2_BOX + ",24,24", "--format", "json"], "json"),
    "measure-csv-band2": ("measure", "band2", [BAND2_BOX + ",40,40"], "csv"),
    "measure-csv-zz": ("measure", "zz", ["--grid=-2,2,-2,2,36,36"], "csv"),
    "measure-json-conj": ("measure", "conj", [SHIFT_BOX + ",24,24", "--format", "json"],
                          "json"),
    "trace-check-shift": ("trace-check", "shift",
                          ["--p", "x", "--q", "y", SHIFT_BOX + ",150,150"], "json"),
    "trace-check-band2": ("trace-check", "band2",
                          ["--p", "x^2", "--q", "y", BAND2_BOX + ",200,200"], "json"),
    "trace-check-band2-r": ("trace-check", "band2",
                            ["--p", "x", "--q", "y", "--r", "0.9",
                             BAND2_BOX + ",160,160"], "json"),
    "winding-shift": ("winding", "shift",
                      ["--point", "0.3,0.1", "--point", "1.2,0", "--point", "0,0.5"], "json"),
    "winding-band2": ("winding", "band2",
                      ["--point", "0,0", "--point", "1.1,0.2", "--point=-0.4,-0.9",
                       "--r", "0.8"], "json"),
    "index-check-shift": ("index-check", "shift",
                          [SHIFT_BOX + ",60,60", "--count", "8"], "json"),
    "index-check-band2": ("index-check", "band2",
                          [BAND2_BOX + ",80,80", "--count", "8",
                           "--point", "0.1,0.1", "--point=-1.5,0.3"], "json"),
    "smooth-limit-shift": ("smooth-limit", "shift",
                           ["--p", "x", "--q", "y", SHIFT_BOX + ",160,160",
                            "--r", "0.9", "--r", "0.99"], "json"),
    "smooth-limit-band2": ("smooth-limit", "band2",
                           ["--p", "x^2", "--q", "y", BAND2_BOX + ",100,100",
                            "--r", "0.5", "--r", "0.7", "--r", "0.8"], "json"),
    "besov-shift": ("besov", "shift", ["--p", "2", "--q", "2"], "json"),
    "besov-band2": ("besov", "band2", ["--p", "2"], "json"),
    "gallery-json": ("gallery", None, [], "json"),
    "gallery-csv": ("gallery", None, ["--format", "csv"], "csv"),
}

DIGESTS = {
    "besov-band2": "3c06c0c37b8d9f642cd96cbe57300d42483d4e3230b036ca66a9a3a96d2c6016",
    "besov-shift": "f0d453cfbb687f6334fbeacd03c749c04eae630aec747223c374a4d4ee42ce15",
    "gallery-csv": "6355f0003f9ed57191bbaef5912a70426bba964e48777b75a069c29e1659db1f",
    "gallery-json": "dfac36a28331db1c7e83655fc5500349f6232e67c32ebbe4b15505473327c5ed",
    "index-check-band2": "0421e06481778ccc06f3f25271ad89574e28074c6fce91acd3c782b9f0f1a665",
    "index-check-shift": "47cb3ad3bffeb98d7c456219bfe7c93ffa6734ad49194cf5742cfbb7f7a6cab0",
    "measure-csv-band2": "ad2c96669751220909d1b3383a0809618613c92d542fca82b53e7dbe314ae374",
    "measure-csv-shift": "eae774ee2d535dbabcd00ad52e11c549bfc7efb1e59c6493c27aeb6517e733aa",
    "measure-csv-shift-r": "b83aee56d076ec02eeb20a3e7149c99d81054cce30188f6fee8c5329813fbfc1",
    "measure-csv-zz": "0c392b0c8736e1d77a3aa0fcbdfe13bdef6245f53ec40b5615480816e3e01ca8",
    "measure-json-band2": "6b507379cdb9f9aec5f68235388b5fd6bc4b61648f1ef74968702b2fe1e55ea2",
    "measure-json-conj": "cfaedb516ff68de20a737c6f4f5577bd3e021f4df8600f8b40c37379ab652387",
    "smooth-limit-band2": "d13b973e8a4de8d347665bb9421840ecbdd1f2ab7fe2a208cb01f2134fd084cd",
    "smooth-limit-shift": "31b2f017dc2a1e47e671414ab83509b21c7c0789cdf2da70f6deda287d2e3e8f",
    "trace-check-band2": "fb45db8dc5f780c83b8c0124b58a62f36166fd44fc37b82ef89c3db11d58507f",
    "trace-check-band2-r": "18f37888d6972306ee203377c1408a479cc872b64b871da7cbc11e1e6244515a",
    "trace-check-shift": "d1f118c22273a2f92950fb00b5424a14068fc1bffb5e9cc96be6ed87063ba967",
    "winding-band2": "25e74175745346c612eed2441bd3713250e30624ad5cca5c9cf0d654f70bc0f5",
    "winding-shift": "0c5488c2a88bd8ea0e230ab2e4efa679547c183497b93c9716f53734f109c401",
}


def write_symbol(path, coeffs) -> str:
    entries = [{"k": k, "re": float(c), "im": 0.0} for k, c in sorted(coeffs.items())]
    path.write_text(json.dumps({"type": "finite_band", "coeffs": entries}))
    return str(path)


def case_argv(name, workdir) -> list:
    """Command line of one case, without --out."""
    sub, symbol, extra, _ = CASES[name]
    argv = [sub]
    if symbol is not None:
        argv += ["--symbol", write_symbol(workdir / f"{symbol}.json", SYMBOLS[symbol])]
    return argv + extra


def run_case(name, workdir) -> bytes:
    """Exit code 0 and the output bytes of one case."""
    out = workdir / f"{name}.{CASES[name][3]}"
    code = main(case_argv(name, workdir) + ["--out", str(out)])
    assert code == 0, f"{name} exited {code}"
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_digest(name, tmp_path):
    digest = hashlib.sha256(run_case(name, tmp_path)).hexdigest()
    assert digest == DIGESTS[name]


@pytest.mark.parametrize("name", ["measure-csv-zz", "measure-json-conj"])
def test_stdout_matches_out_file(name, tmp_path, capsys):
    expected = run_case(name, tmp_path)
    capsys.readouterr()
    assert main(case_argv(name, tmp_path)) == 0
    assert capsys.readouterr().out.encode("utf-8") == expected


def test_every_subcommand_pinned():
    from hhmeasure.cli import _SUBCOMMANDS
    assert {sub for sub, *_ in CASES.values()} == set(_SUBCOMMANDS)
    assert set(DIGESTS) == set(CASES)


def phase_symbol(seed: int, band: int) -> FourierSymbol:
    """Band-limited symbol with moduli 0.5 (k > 0) and 0.25 (k < 0), random phases."""
    rng = np.random.default_rng(seed)
    return FourierSymbol({k: (0.5 if k > 0 else 0.25) * np.exp(2j * np.pi * rng.uniform())
                          for k in range(-band, band + 1) if k})


# name -> (symbol, radius); each rasterized by hh_density on its default 200^2 box
RASTERS = {
    "band2": (FourierSymbol(SYMBOLS["band2"]), 1.0),
    "phase16-r0.9": (phase_symbol(16, 16), 0.9),
    "conj": (FourierSymbol(SYMBOLS["conj"]), 1.0),
}

# sha256 of values.tobytes() + invalid.tobytes() of the grid, with the values
# widened to int64 so that the digest pins the integers, not the storage type
RASTER_DIGESTS = {
    "band2": "f06a5ff9799cba33b2dacbde6bff38f8de3669dc255d699dd019d75dde364f19",
    "phase16-r0.9": "5ef2222b4395ee154086007d7555816abfb54096c858c576eb1f742487ce2e2f",
    "conj": "01926cde497eda61449d2511dda90116d36010c851dc827751c8f0ead0f3cbe2",
}

# total_variation of each raster, .17g
TV_PINS = {
    "band2": "0.63999956075535624",
    "phase16-r0.9": "1.8296952751445532",
    "conj": "0.49999921563468336",
}


@pytest.mark.parametrize("name", sorted(RASTERS))
def test_raster_digest(name):
    sym, r = RASTERS[name]
    mg = hh_density(sym, r, default_grid(sym, 200)).grid
    digest = hashlib.sha256(mg.values.astype(np.int64).tobytes()
                            + mg.invalid.tobytes()).hexdigest()
    assert digest == RASTER_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RASTERS))
def test_tv_matches_full_array_sum(name):
    sym, r = RASTERS[name]
    mg = hh_density(sym, r, default_grid(sym, 200)).grid
    tv = total_variation(MeasureDensity(mg))
    cells = np.where(mg.invalid, dense_coverage(mg.curve.points, mg.grid), mg.values)
    assert tv == float(np.sum(np.abs(cells))) * mg.grid.cell_area / (2 * np.pi)
    assert format(tv, ".17g") == TV_PINS[name]


# -- in-process pins of the split Phi = F + conj(G) and what reads it -----------

def seeded_symbol(seed: int, ks) -> FourierSymbol:
    """Complex Gaussian coefficients scaled by 1 / (1 + |k|) on the frequencies ks."""
    rng = np.random.default_rng(seed)
    return FourierSymbol({k: complex(rng.standard_normal(), rng.standard_normal()) / (1 + abs(k))
                          for k in ks})


SPLIT_SYMBOLS = {
    "zero": FourierSymbol({}),
    "band0": FourierSymbol({0: 0.7 - 0.2j}),
    "analytic": seeded_symbol(1, range(0, 5)),
    "coanalytic": seeded_symbol(2, range(-4, 0)),
    "mixed3": seeded_symbol(3, range(-3, 4)),
    "band2": FourierSymbol(SYMBOLS["band2"]),
    "phase5": phase_symbol(5, 5),
}

SPLIT_POINTS = 0.97 * np.sqrt(np.random.default_rng(7).uniform(size=48)) * np.exp(
    2j * np.pi * np.random.default_rng(8).uniform(size=48))
PREIMAGE_POINTS = (0.0, 0.3 + 0.1j, -0.5 + 0.4j, 1.1 - 0.2j)


def split_outputs(quantity: str, sym: FourierSymbol):
    """Bytes (arrays) or exact reprs (reports, counts) of one quantity of one symbol."""
    if quantity == "extension":
        return _eval_extension(sym, SPLIT_POINTS).tobytes()
    if quantity == "wirtinger":
        return b"".join(a.tobytes() for a in _wirtinger(sym, SPLIT_POINTS))
    if quantity == "jacobian":
        return _jacobian(sym, SPLIT_POINTS).tobytes()
    if quantity == "self_commutator":
        return b"".join(self_commutator(sym, n).entries.tobytes()
                        for n in (1, 3, sym.band + 2))
    if quantity == "hankel":
        return b"".join(hankel_matrix(sym, n).entries.tobytes() for n in (1, sym.band + 2))
    if quantity == "preimage":
        counts = []
        for w in PREIMAGE_POINTS:
            try:
                counts.append(preimage_multiplicity(sym, 0.95, w))
            except HHMeasureError as exc:
                counts.append(type(exc).__name__)
        return repr(counts).encode()
    if quantity == "besov":
        return repr([besov_membership(sym, p) for p in (1.0, 2.0, 3.0)]).encode()
    if quantity == "jacobian_integrability":
        return repr(jacobian_integrability(sym)).encode()
    raise KeyError(quantity)


# sha256 over SPLIT_SYMBOLS in order; recorded before the split arrays were cached
SPLIT_DIGESTS = {
    "extension": "ad5c440a015cdc44c5c3584eac71fc4aa2236a2b0ad0df57a2129b89f1e7ca07",
    "wirtinger": "9b81720466cd7e61e132fbac6df1e28cbffb317910805a66259c78a810f05dc1",
    "jacobian": "90cf16c63cb3fcadb045737fbfbbed8f767ed95f5dffa391949335c1f8a1d317",
    "self_commutator": "9f244a49d93e732ba26367aa27d665a3eb52759b1bf6497c65f8235c6daab548",
    "hankel": "c8993e056a95bcb2693232867263bd8ebefaa3f522d418f9ed3f2ad28252e1da",
    "preimage": "136e04850e58b025e501ba250039ddaf268668a1f81081ecc8fe906a5a8a0f79",
    "besov": "357f2d7710783e73b53a054101ced2d5870a6f9c73954f062d59db1b9f91bf35",
    "jacobian_integrability": "7ed51a6a776ec6b13899219d1d6349af81775de748133916a073e99264f272c9",
}


@pytest.mark.parametrize("quantity", sorted(SPLIT_DIGESTS))
def test_split_digest(quantity):
    digest = hashlib.sha256()
    for sym in SPLIT_SYMBOLS.values():
        digest.update(split_outputs(quantity, sym))
    assert digest.hexdigest() == SPLIT_DIGESTS[quantity]


def test_preimage_builds_split_once(monkeypatch):
    calls = []
    polyder = npoly.polyder

    def counted(*args, **kwargs):
        calls.append(args)
        return polyder(*args, **kwargs)

    monkeypatch.setattr(npoly, "polyder", counted)
    sym = FourierSymbol(SYMBOLS["band2"])
    assert preimage_multiplicity(sym, 0.95, 0.3 + 0.1j) == 1
    # one build of the split: F' and G', one polyder call each
    assert len(calls) <= 2
