import json

import numpy as np
import pytest

from hhmeasure import FourierSymbol, cli, errors
from hhmeasure.cli import main
from hhmeasure.degree import default_grid
from hhmeasure.measure import hh_density


@pytest.fixture
def shift_symbol(tmp_path):
    path = tmp_path / "shift.json"
    path.write_text(json.dumps({"type": "finite_band",
                                "coeffs": [{"k": 1, "re": 1.0, "im": 0.0}]}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity, which strict JSON forbids."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


class TestMeasure:
    def test_density_csv(self, capsys, shift_symbol, tmp_path):
        out = tmp_path / "density.csv"
        code, _, _ = run_cli(capsys, "measure", "--symbol", shift_symbol,
                             "--grid=-1.5,1.5,-1.5,1.5,40,40",
                             "--r", "1.0", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "x,y,density_re,density_im,valid"
        assert "tail_bound=0" in lines[0]
        # density inside the circle is 1/(2 pi i) = -i/(2 pi)
        rows = [ln.split(",") for ln in lines[2:]]
        inner = min(rows, key=lambda r: abs(float(r[0])) + abs(float(r[1])))
        assert float(inner[2]) == pytest.approx(0.0)
        assert float(inner[3]) == pytest.approx(-1 / (2 * 3.141592653589793), rel=1e-9)

    def test_deterministic_bytes(self, capsys, shift_symbol, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run_cli(capsys, "measure", "--symbol", shift_symbol,
                                 "--grid=-1.5,1.5,-1.5,1.5,30,30",
                                 "--r", "0.9", "--out", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, capsys, shift_symbol):
        code, out, _ = run_cli(capsys, "measure", "--symbol", shift_symbol,
                               "--grid=-1.5,1.5,-1.5,1.5,8,8", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["grid"]["nx"] == 8
        assert len(doc["cells"]) == 64
        assert "masked_area_fraction" in doc

    def test_chord_cap_exits_3(self, capsys, shift_symbol, monkeypatch):
        from hhmeasure import degree

        monkeypatch.setattr(degree, "_MAX_CURVE_POINTS", 1024)
        code, out, err = run_cli(capsys, "measure", "--symbol", shift_symbol,
                                 "--grid=-1.5,1.5,-1.5,1.5,400,400")
        assert code == 3 and out == ""
        diagnostic = strict_json(err)
        assert diagnostic["error"] == "NonIntegerError"
        assert "above target" in diagnostic["message"]

    def test_hopeless_chord_target_exits_3_at_once(self, capsys, tmp_path, monkeypatch):
        from hhmeasure.degree import SampledCurve

        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"type": "finite_band", "coeffs": [
            {"k": 1, "re": 1e300, "im": 0.0}, {"k": 2, "re": 0.3, "im": 0.0},
            {"k": 3, "re": 0.1, "im": 0.0}]}))
        sampled = []
        evaluate = SampledCurve.evaluate
        monkeypatch.setattr(SampledCurve, "evaluate",
                            lambda self, thetas: sampled.append(len(thetas))
                            or evaluate(self, thetas))
        code, out, err = run_cli(capsys, "measure", "--symbol", str(path),
                                 "--grid=-2,2,-2,2,40,40")
        assert code == 3 and out == ""
        diagnostic = strict_json(err)
        assert diagnostic["error"] == "NonIntegerError"
        assert diagnostic["message"].endswith("above target 0.025 at 1024 points")
        assert sampled == [1024]

    @pytest.mark.parametrize("coeffs, r, n", [
        ({1: 1.0, 2: 0.4, -1: 0.2}, 1.0, 300),                   # m = 0, 1, 2 and masked cells
        ({1: -0.5j, -1: 0.5j, 2: 0.25, -2: -0.25}, 1.0, 200),    # figure-eight, m = +1 and -1
        ({-3: 1.0}, 0.9, 120),                                    # m = -3 .. 0
        ({}, 1.0, 7),                                             # one code, no masked cell
    ])
    def test_cell_codes_keep_the_density_bytes(self, coeffs, r, n):
        sym = FourierSymbol(coeffs)
        density = hh_density(sym, r, default_grid(sym, n))
        mg = density.grid
        codes, table = cli._cell_codes(density)
        # numbered as the sorted distinct keys, as np.unique numbers them
        key = mg.values * 2 + ~mg.invalid
        assert np.array_equal(codes, np.unique(key, return_inverse=True)[1].reshape(key.shape))
        assert len(table) == codes.max() + 1
        for code, (re, im, valid) in enumerate(table):
            at = codes == code
            # every cell of the code holds the same value, down to its bytes, and the table formats it
            same = np.unique(density.values[at].view(np.uint64).reshape(-1, 2), axis=0)
            value = same.view(complex).ravel()
            assert value.size == 1 and (cli._fmt(value.real[0]), cli._fmt(value.imag[0])) == (re, im)
            assert not mg.invalid[at].any() if valid else mg.invalid[at].all()


class TestTraceCheck:
    def test_report(self, capsys, shift_symbol):
        code, out, _ = run_cli(capsys, "trace-check", "--symbol", shift_symbol,
                               "--p", "x", "--q", "y",
                               "--grid=-1.5,1.5,-1.5,1.5,300,300")
        assert code == 0
        doc = json.loads(out)
        assert doc["lhs"]["im"] == pytest.approx(-0.5, abs=1e-12)
        assert doc["abs_err"] < 1e-3
        assert set(doc) >= {"lhs", "rhs", "abs_err", "quad_err", "N", "grid",
                            "masked_area_fraction"}

    def test_tolerance_gate(self, capsys, shift_symbol):
        code, _, err = run_cli(capsys, "trace-check", "--symbol", shift_symbol,
                               "--p", "x", "--q", "y",
                               "--grid=-1.5,1.5,-1.5,1.5,150,150",
                               "--tol", "1e-15")
        assert code == 3
        assert json.loads(err)["code"] == "tolerance"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_trace_exits_3(self, capsys, tmp_path):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"type": "finite_band",
                                    "coeffs": [{"k": 1, "re": 1e200, "im": 0.0}]}))
        code, out, err = run_cli(capsys, "trace-check", "--symbol", str(huge),
                                 "--grid=-2e200,2e200,-2e200,2e200,40,40")
        assert code == 3 and out == ""
        diagnostic = strict_json(err)
        assert diagnostic["code"] == "numerical"
        assert diagnostic["error"] == "NonFiniteError"

    def test_band16_on_the_default_grid(self, capsys, tmp_path):
        # moduli 0.5 (k > 0) and 0.25 (k < 0), seeded phases: tr [X, Y] = -12.75i;
        # with a masked Richardson pair this grid failed its mask gate (exit 3)
        rng = np.random.default_rng(1)
        coeffs = [{"k": k, "re": z.real, "im": z.imag} for k in range(-16, 17) if k
                  for z in [(0.5 if k > 0 else 0.25) * np.exp(2j * np.pi * rng.uniform())]]
        path = tmp_path / "band16.json"
        path.write_text(json.dumps({"type": "finite_band", "coeffs": coeffs}))
        code, out, err = run_cli(capsys, "trace-check", "--symbol", str(path))
        assert code == 0 and err == ""
        doc = strict_json(out)
        assert doc["grid"]["nx"] == 400
        assert doc["lhs"]["im"] == pytest.approx(-12.75, abs=1e-10)
        assert doc["abs_err"] <= 1e-4 and doc["quad_err"] <= 1e-4

    def test_oversized_dense_block_exits_2(self, capsys, shift_symbol):
        code, out, err = run_cli(capsys, "trace-check", "--symbol", shift_symbol,
                                 "--n", "100000")
        assert code == 2 and out == ""
        diagnostic = strict_json(err)
        assert diagnostic["code"] == "schema"
        assert diagnostic["error"] == "RangeError"


class TestValidation:
    def test_malformed_symbol_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"type": "finite_band", "coeffs": [], "x": 1}))
        code, _, err = run_cli(capsys, "measure", "--symbol", str(bad))
        assert code == 2
        assert json.loads(err)["code"] == "schema"

    def test_missing_symbol_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "winding", "--point", "0,0")
        assert code == 2
        assert json.loads(err)["code"] == "schema"

    def test_bad_r_exits_2(self, capsys, shift_symbol):
        code, _, err = run_cli(capsys, "measure", "--symbol", shift_symbol,
                               "--r", "1.5")
        assert code == 2

    def test_grid_guard(self, capsys, shift_symbol):
        code, _, err = run_cli(capsys, "measure", "--symbol", shift_symbol,
                               "--grid=-1,1,-1,1,10000,10000")
        assert code == 2

    @pytest.mark.parametrize("sub", ["trace-check", "smooth-limit"])
    def test_grid_guard_counts_one_grid(self, capsys, shift_symbol, monkeypatch, sub):
        # moments take the given grid alone, so 2000 x 2000 passes the guard
        from hhmeasure import measure
        grids = []

        def stop_raster(sym, r, grid, curve=None):
            grids.append(grid)
            raise errors.NonFiniteError("stopped before rasterizing")

        monkeypatch.setattr(measure, "multiplicity_grid", stop_raster)
        code, out, err = run_cli(capsys, sub, "--symbol", shift_symbol,
                                 "--grid=-2,2,-2,2,2000,2000")
        assert code == 3 and out == ""
        assert json.loads(err)["message"] == "stopped before rasterizing"
        assert [(g.nx, g.ny) for g in grids] == [(2000, 2000)]

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_exits_2(self, capsys, shift_symbol, count):
        code, out, err = run_cli(capsys, "index-check", "--symbol", shift_symbol,
                                 "--count", count, "--grid=-1.5,1.5,-1.5,1.5,20,20")
        assert code == 2 and out == ""
        assert json.loads(err)["code"] == "schema"

    @pytest.mark.parametrize("sub", ["trace-check", "index-check"])
    def test_overflowing_default_grid_exits_2(self, capsys, tmp_path, sub):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"type": "finite_band",
                                    "coeffs": [{"k": 1, "re": 1e308, "im": 0.0}]}))
        code, out, err = run_cli(capsys, sub, "--symbol", str(huge))
        assert code == 2 and out == ""
        diagnostic = json.loads(err)
        assert diagnostic["code"] == "schema" and "finite" in diagnostic["message"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [["measure"], ["index-check", "--count", "3"]])
    def test_overflowing_mask_distances_exit_2(self, capsys, tmp_path, argv):
        # 1e199-sized cells: squared cell-to-curve distances overflow in the mask
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"type": "finite_band",
                                    "coeffs": [{"k": 1, "re": 1e200, "im": 0.0}]}))
        code, out, err = run_cli(capsys, *argv, "--symbol", str(huge),
                                 "--grid=-2e200,2e200,-2e200,2e200,40,40")
        assert code == 2 and out == ""
        diagnostic = strict_json(err)
        assert diagnostic["error"] == "RangeError" and "overflow" in diagnostic["message"]

    @pytest.mark.parametrize("argv", [
        ["gallery", "--symbol", "SYM"],
        ["measure", "--symbol", "SYM", "--n", "4"],
        ["measure", "--symbol", "SYM", "--tol", "1e-3"],
        ["trace-check", "--symbol", "SYM", "--format", "csv"],
        ["winding", "--symbol", "SYM", "--point", "0,0", "--grid=-1,1,-1,1,4,4"],
        ["winding", "--symbol", "SYM", "--point", "0,0", "--count", "3"],
        ["besov", "--symbol", "SYM", "--r", "0.5"],
        ["gallery", "--r", "0.5"],
    ])
    def test_unread_option_exits_2(self, capsys, shift_symbol, argv):
        argv = [shift_symbol if a == "SYM" else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in json.loads(err)["message"]

    @pytest.mark.parametrize("argv", [
        ["measure", "--grid=-1.5,1.5,-1.5,1.5,8,8"],
        ["trace-check", "--p", "x", "--q", "y"],
        ["winding", "--point", "0,0"],
        ["index-check", "--count", "2"],
    ])
    def test_repeated_r_exits_2(self, capsys, shift_symbol, argv):
        code, out, err = run_cli(capsys, argv[0], "--symbol", shift_symbol,
                                 *argv[1:], "--r", "0.5", "--r", "0.9")
        assert code == 2
        assert out == ""
        assert json.loads(err)["code"] == "schema"

    def test_nan_coefficient_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"type": "finite_band", "coeffs": [{"k": 1, "re": NaN, "im": 0}]}')
        for sub in ("besov", "measure"):
            code, out, err = run_cli(capsys, sub, "--symbol", str(bad))
            assert code == 2 and out == ""
            assert json.loads(err)["code"] == "schema"

    @pytest.mark.parametrize("argv", [
        ["measure", "--grid=-inf,1,-1,1,4,4"],
        ["winding", "--point", "nan,0"],
        ["winding", "--point", "0,0", "--tol", "nan"],
        ["index-check", "--point", "0,inf"],
        ["trace-check", "--tol", "inf"],
    ])
    def test_non_finite_option_exits_2(self, capsys, shift_symbol, argv):
        code, out, err = run_cli(capsys, argv[0], "--symbol", shift_symbol, *argv[1:])
        assert code == 2 and out == ""
        assert "finite" in json.loads(err)["message"]

    def test_unknown_subcommand(self, capsys):
        code = main(["frobnicate"])
        assert code == 2

    @pytest.mark.parametrize("k", [10 ** 15, -10 ** 15])
    @pytest.mark.parametrize("argv", [["besov"], ["winding", "--point", "0,0"]])
    def test_huge_frequency_exits_2(self, capsys, tmp_path, argv, k):
        path = tmp_path / "huge_k.json"
        path.write_text(json.dumps({"type": "finite_band",
                                    "coeffs": [{"k": k, "re": 1, "im": 0}]}))
        code, out, err = run_cli(capsys, argv[0], "--symbol", str(path), *argv[1:])
        assert code == 2 and out == ""
        diagnostic = strict_json(err)
        assert diagnostic["error"] == "SchemaError"
        assert str(k) in diagnostic["message"]


class TestErrorTaxonomy:
    CATEGORIES = {errors.ValidationError: (2, "schema"), errors.NumericalError: (3, "numerical")}

    @staticmethod
    def leaf_classes():
        return [c for c in vars(errors).values()
                if isinstance(c, type) and issubclass(c, errors.HHMeasureError)
                and c not in (errors.HHMeasureError, errors.ValidationError,
                              errors.NumericalError)]

    def test_each_error_has_one_category(self):
        classes = self.leaf_classes()
        assert len(classes) == 14
        for cls in classes:
            assert sum(issubclass(cls, base) for base in self.CATEGORIES) == 1, cls

    def test_exit_code_follows_category(self, capsys, monkeypatch):
        for cls in self.leaf_classes():
            def fail(config, cls=cls):
                raise cls("injected")

            monkeypatch.setitem(cli._SUBCOMMANDS, "gallery", fail)
            code, out, err = run_cli(capsys, "gallery")
            base = next(b for b in self.CATEGORIES if issubclass(cls, b))
            diagnostic = strict_json(err)
            assert (code, diagnostic["code"]) == self.CATEGORIES[base], cls
            assert out == "" and diagnostic["error"] == cls.__name__


class TestWinding:
    def test_points(self, capsys, shift_symbol):
        code, out, _ = run_cli(capsys, "winding", "--symbol", shift_symbol,
                               "--point", "0,0", "--point", "2,0", "--r", "1.0")
        assert code == 0
        doc = json.loads(out)
        assert [row["winding"] for row in doc["rows"]] == [1, 0]

    def test_on_curve_exits_3(self, capsys, shift_symbol):
        code, _, err = run_cli(capsys, "winding", "--symbol", shift_symbol,
                               "--point", "1,0", "--r", "1.0", "--tol", "1e-3")
        assert code == 3
        assert json.loads(err)["code"] == "numerical"


    @pytest.mark.filterwarnings("error")
    def test_far_point_winds_zero(self, capsys, shift_symbol):
        code, out, err = run_cli(capsys, "winding", "--symbol", shift_symbol,
                                 "--point=1e308,1e308", "--point=-1.7e308,1e-300")
        assert (code, err) == (0, "")
        assert [row["winding"] for row in strict_json(out)["rows"]] == [0, 0]


class TestIndexCheck:
    @pytest.mark.filterwarnings("error")
    def test_point_far_outside_the_box_exits_3(self, capsys, shift_symbol):
        code, out, err = run_cli(capsys, "index-check", "--symbol", shift_symbol,
                                 "--grid=-1.5,1.5,-1.5,1.5,20,20", "--point=1e308,1e308")
        assert (code, out) == (3, "")
        diagnostic = strict_json(err)
        assert (diagnostic["code"], diagnostic["error"]) == ("numerical", "WindingUndefined")

    def test_sampled_points(self, capsys, shift_symbol):
        code, out, _ = run_cli(capsys, "index-check", "--symbol", shift_symbol,
                               "--grid=-1.5,1.5,-1.5,1.5,120,120",
                               "--count", "10", "--r", "1.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_ok"] is True
        assert len(doc["rows"]) == 10


class TestSmoothLimit:
    def test_probe(self, capsys, shift_symbol):
        code, out, _ = run_cli(capsys, "smooth-limit", "--symbol", shift_symbol,
                               "--p", "x", "--q", "y",
                               "--grid=-1.5,1.5,-1.5,1.5,150,150",
                               "--r", "0.9", "--r", "0.99")
        assert code == 0
        doc = json.loads(out)
        assert doc["lhs"]["im"] == pytest.approx(-0.5, abs=1e-12)
        assert len(doc["rows"]) == 2
        assert doc["rows"][1]["diff_prev"] > 0


class TestBesov:
    def test_report(self, capsys, shift_symbol):
        code, out, _ = run_cli(capsys, "besov", "--symbol", shift_symbol, "--p", "2.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["analytic_half"]["verdict"] == "converging"
        assert doc["coanalytic_half"]["seminorm_partial"] == 0.0

    def test_sufficiency(self, capsys, shift_symbol):
        code, out, _ = run_cli(capsys, "besov", "--symbol", shift_symbol,
                               "--p", "2.0", "--q", "2.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["almost_normal_sufficient"]["verdict"] == "met"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_coefficient_exits_3(self, capsys, tmp_path):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"type": "finite_band",
                                    "coeffs": [{"k": 1, "re": 1e308, "im": 0.0}]}))
        code, out, err = run_cli(capsys, "besov", "--symbol", str(huge), "--p", "2")
        assert code == 3 and out == ""
        diagnostic = strict_json(err)
        assert diagnostic["code"] == "numerical"
        assert diagnostic["error"] == "NonFiniteError"

    @pytest.mark.parametrize("k", [513, -513])
    def test_band_above_quadrature_guard_exits_2(self, capsys, tmp_path, k):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"type": "finite_band",
                                    "coeffs": [{"k": k, "re": 1.0, "im": 0.0}]}))
        code, out, err = run_cli(capsys, "besov", "--symbol", str(path))
        assert code == 2 and out == ""
        diagnostic = strict_json(err)
        assert diagnostic["error"] == "RangeError"
        assert "512" in diagnostic["message"]

    def test_bad_conjugates(self, capsys, shift_symbol):
        code, _, err = run_cli(capsys, "besov", "--symbol", shift_symbol,
                               "--p", "3.0", "--q", "1.4")
        assert code == 2

    @pytest.mark.parametrize("exponents", [
        ["--p", "inf"], ["--p", "nan"], ["--p", "inf", "--q", "1"],
        ["--p", "nan", "--q", "2"], ["--p", "2", "--q", "nan"],
        ["--p", "1", "--q", "nan"], ["--p", "2", "--q", "inf"],
    ])
    def test_non_finite_exponent_exits_2(self, capsys, shift_symbol, exponents):
        code, out, err = run_cli(capsys, "besov", "--symbol", shift_symbol, *exponents)
        assert code == 2 and out == ""
        assert strict_json(err)["code"] == "schema"

    def test_b1_linf_variant(self, capsys, shift_symbol):
        code, out, _ = run_cli(capsys, "besov", "--symbol", shift_symbol,
                               "--p", "1", "--q", "inf")
        assert code == 0
        assert strict_json(out)["almost_normal_sufficient"]["verdict"] == "met"

    def test_negative_infinite_q_is_no_b1_variant(self, capsys, shift_symbol):
        code, out, err = run_cli(capsys, "besov", "--symbol", shift_symbol,
                                 "--p", "1", "--q=-inf")
        assert code == 2 and out == ""
        diagnostic = strict_json(err)
        assert diagnostic["error"] == "ConjugateError" and diagnostic["code"] == "schema"


class TestGallery:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "gallery")
        assert code == 0
        doc = json.loads(out)
        cases = {row["case"] for row in doc["rows"]}
        assert {"weighted_shift", "cesaro", "hilbert_schmidt"} <= cases

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "gallery", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "case,quantity,computed,closed_form"

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "gallery")
        _, out2, _ = run_cli(capsys, "gallery")
        assert out1 == out2
