"""Byte-level pins of every CLI subcommand on fixed symbols.

Each case runs ``hhmeasure.cli.main`` in process on a small grid and compares
the sha256 of the output file with a digest recorded before the coarse/fine
pair refactor; the ``zz`` and ``conj`` cases were recorded before ``measure``
streamed its rows from format tables.  A digest changes only when an output
byte changes; a deliberate change of output must update the digest and say so
in CHANGES.md.
"""

import hashlib
import json

import pytest

from hhmeasure.cli import main

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
    "index-check-band2": "7901a9b2c129742739bbb90687c622651d705e94b0f79769980d78a5c141beac",
    "index-check-shift": "fe6fb22f35a0edd3b2ebaabc0b09fa7f5a44f76158847ecc0c21f1e875439eff",
    "measure-csv-band2": "56707e483a83c31bfce0282640d9501fd0ec35d4cbbd55025c09e8bc6d804bee",
    "measure-csv-shift": "c82b9b87f9806be98fe7fa6ab78a7448deda99ff4a0a454eec284a8a97a95fce",
    "measure-csv-shift-r": "3d1a34fc71366657ee940e1aff54d0ea640fd664187e1387750dc2c26652deb5",
    "measure-csv-zz": "d1c00e7b29544837041060c86bda8bd6d41d4975b9e3756d58ba6860d79ad2e4",
    "measure-json-band2": "a931cdf41721890b62c6e77942c73e5d00384074bee2de3e6c785ed292500bdc",
    "measure-json-conj": "751682786676746613496a0e8ed8a9aa54a7006aeb936b0b96989f9c3b9115fe",
    "smooth-limit-band2": "d4f77b77acc084b0aa825a558bee0e29ad2ba592cf72c66cf6f04b2fa026a594",
    "smooth-limit-shift": "edea58e760533597eac86d72ee1b8d7a84f8d9e0d4285851aebb23edd2260769",
    "trace-check-band2": "29f70cd8c1358685751d2b486a7443a28cf2896a7c42a7dc65951d9e9e294ffd",
    "trace-check-band2-r": "1f6bede1d20e1874c70b6326fc439ae5d9e09acdbd668c8fd3ecd90ab0831413",
    "trace-check-shift": "cb64a48aeaafeb88da6557411854e30da81fb92cd4a9dc14eddcd0e6a18c1352",
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
