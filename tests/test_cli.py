import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ruelle
import ruelle.cli
import ruelle.julia
from ruelle.cli import _build_parser, _spectrum_summary, main
from ruelle.spectra import Spectrum, decay_fit

BSTAR = '{"type":"blaschke","alpha":[1,0],"zeros":[[0,0],[0.5,0]],"anti":false}'
ANTI = '{"type":"blaschke","alpha":[1,0],"zeros":[[0,0],[0.5,0]],"anti":true}'
SQUARING = '{"type":"triglift","d":2,"cos":[],"sin":[]}'
MOBIUS = '{"type":"mobius","w":[0.7,0]}'
TRIG = '{"type":"triglift","d":2,"cos":[0.1]}'
# an anti-product with min_expansion 0.902, so neither closed forms nor an annulus
NON_EXPANDING = (
    '{"type":"blaschke","alpha":[0.5347014655892233,0.8450410301853613],'
    '"zeros":[[0.47445342717074807,-0.03296355544716902],[0.0807277311565206,0.364474349028296]],'
    '"anti":true}'
)


def _rows(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# config:")
    return lines[1], lines[2:]


class TestSpectrum:
    def test_bstar_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(
            ["spectrum", "--map", BSTAR, "--annulus", "0.8,1.25", "--N", "64", "--out", str(out)]
        )
        assert code == 0
        header, rows = _rows(out)
        assert header == "n,re,im,modulus,converged"
        mods = [float(r.split(",")[3]) for r in rows]
        assert mods[0] == pytest.approx(1.0, abs=1e-9)
        assert mods[1] == pytest.approx(0.5, abs=1e-9)
        assert mods[2] == pytest.approx(0.5, abs=1e-9)

    def test_trivial_spectrum_json(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        code = main(
            ["spectrum", "--map", SQUARING, "--annulus", "0.8,1.25", "--N", "64",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        lams = np.array([complex(re, im) for re, im in doc["eigenvalues"]])
        assert lams[0] == pytest.approx(1.0, abs=1e-9)
        assert abs(lams[1]) < 1e-8
        assert "config" in doc
        printed = capsys.readouterr().err
        assert "lambda1" in printed

    def test_malformed_descriptor(self):
        assert main(["spectrum", "--map", "{not json"]) == 1

    def test_unknown_type(self):
        assert main(["spectrum", "--map", '{"type":"weird"}']) == 1

    def test_matrix_dump(self, tmp_path):
        out = tmp_path / "s.csv"
        dump = tmp_path / "matrix.csv"
        code = main(
            ["spectrum", "--map", BSTAR, "--annulus", "0.8,1.25", "--N", "64",
             "--out", str(out), "--dump-matrix", str(dump)]
        )
        assert code == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "row,col,re,im"
        # first column holds the constants-to-constants entry
        row0 = lines[1].split(",")
        assert (int(row0[0]), int(row0[1])) == (0, 0)
        assert float(row0[2]) == pytest.approx(1.0, abs=1e-12)

    def test_matrix_dump_assembles_nothing_again(self, tmp_path, monkeypatch):
        # the dump writes the operator the spectrum was solved on: no block is built twice
        from ruelle import operators

        blocks, real = [], operators._assemble_block
        monkeypatch.setattr(operators, "_assemble_block", lambda *a: blocks.append(a) or real(*a))
        argv = ["spectrum", "--map", TRIG, "--annulus", "0.8,1.25", "--N", "64",
                "--out", str(tmp_path / "s.csv")]
        counts = []
        for extra in ([], ["--dump-matrix", str(tmp_path / "m.csv")]):
            blocks.clear()
            assert main(argv + extra) == 2  # 64 is too coarse for TrigLift's ten: a warning
            counts.append(len(blocks))
        assert counts[1] == counts[0] > 0

    def test_convergence_warning_exit_code(self, tmp_path):
        wavy = '{"type":"triglift","d":2,"cos":[0.4],"sin":[]}'
        code = main(
            ["spectrum", "--map", wavy, "--annulus", "0.97,1.03", "--N", "64",
             "--tol", "1e-15", "--out", str(tmp_path / "w.csv")]
        )
        assert code == 2

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["spectrum", "--map", BSTAR, "--annulus", "0.8,1.25", "--N", "64",
                  "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_descriptor_file_to_stdout(self, tmp_path, capsys):
        # --map may name a descriptor file; without --out the artifact goes to
        # stdout, the same text that --out writes for the inline descriptor
        path, out = tmp_path / "bstar.json", tmp_path / "spec.csv"
        path.write_text(BSTAR)
        argv = ["spectrum", "--annulus", "0.8,1.25", "--N", "64"]
        assert main([*argv, "--map", BSTAR, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([*argv, "--map", str(path)]) == 0
        assert capsys.readouterr().out == out.read_text()


class TestTrace:
    def test_anti_contour_is_one(self, tmp_path):
        out = tmp_path / "trace.json"
        code = main(["trace", "--map", ANTI, "--annulus", "0.8,1.25", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["contour"][0] == pytest.approx(1.0, abs=1e-8)
        assert doc["maxPairwiseDiff"] < 1e-8
        assert "closedForm" in doc


class TestDet:
    def test_bstar_at_zero(self, tmp_path):
        out = tmp_path / "det.json"
        code = main(["det", "--map", BSTAR, "--annulus", "0.8,1.25", "--z", "0", "--out", str(out)])
        assert code == 0
        # the spectrum route takes z = 0 as zeta = -inf: every factor is
        # exactly 1 and the tail 0, as written to the artifact
        block = '"spectrum": {\n  "value": [\n   1.0,\n   0.0\n  ],\n  "tail": 0.0\n }'
        assert block in out.read_text()
        doc = json.loads(out.read_text())
        assert doc["traces"]["value"][0] == pytest.approx(1.0, abs=1e-9)
        assert doc["product"]["value"][0] == pytest.approx(1.0, abs=1e-9)

    def test_routes_agree_at_quarter(self, tmp_path):
        out = tmp_path / "det.json"
        main(["det", "--map", BSTAR, "--annulus", "0.8,1.25", "--z", "0.25", "--out", str(out)])
        doc = json.loads(out.read_text())
        vals = [complex(*doc[k]["value"]) for k in ("spectrum", "traces", "product")]
        for a in vals:
            for b in vals:
                assert abs(a - b) < 1e-7

    @pytest.mark.parametrize(
        "descriptor, argv, route",
        [
            (BSTAR, ["--annulus", "0.8,1.25", "--z", "1e300"], "spectrum route"),
            ('{"type":"blaschke","zeros":[[0,0],[0.999,0]]}', ["--z", "100"], "product route"),
        ],
        ids=["spectrum-overflow", "product-overflow"],
    )
    def test_overflow_is_a_numerical_failure(self, descriptor, argv, route, tmp_path, capsys):
        # once NaN tokens in the artifact, or an OverflowError from the tail
        out = tmp_path / "det.json"
        assert main(["det", "--map", descriptor, *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"numerical failure: {route}: the product at" in err
        assert "Traceback" not in err and not out.exists()
        assert "encountered" not in err  # no numpy overflow or invalid-value warning


class TestDetZetaScan:
    def test_closed_form_scan(self, tmp_path):
        from ruelle.traces import log_abs_det_product

        out = tmp_path / "zscan.csv"
        code = main(["det", "--map", BSTAR, "--annulus", "0.8,1.25",
                     "--zeta-scan", "1:5:5", "--out", str(out)])
        assert code == 0
        header, rows = _rows(out)
        assert header == "zeta_re,zeta_im,logabsZ"
        assert len(rows) == 5
        for row in rows:
            zre, zim, val = (float(p) for p in row.split(","))
            assert zim == 0.0
            assert val == pytest.approx(
                float(log_abs_det_product(-0.5, False, complex(zre))), abs=1e-10
            )

    def test_spectrum_route_scan(self, tmp_path):
        out = tmp_path / "zscan.csv"
        code = main(["det", "--map", SQUARING, "--annulus", "0.8,1.25",
                     "--zeta-scan=-1:-1:1", "--out", str(out)])
        assert code == 0
        _, rows = _rows(out)
        val = float(rows[0].split(",")[2])
        # trivial spectrum {1}: log|1 - e^-1|
        assert val == pytest.approx(np.log(1 - np.exp(-1)), abs=1e-9)

    def test_one_point_grid_writes_one_row(self, tmp_path):
        from ruelle.traces import log_abs_det_product

        out = tmp_path / "zscan.csv"
        code = main(["det", "--map", BSTAR, "--annulus", "0.8,1.25",
                     "--zeta-scan", "2.5:2.5:1", "--out", str(out)])
        assert code == 0
        _, rows = _rows(out)
        assert rows == [f"2.5,0,{float(log_abs_det_product(-0.5, False, 2.5)):.16g}"]

    def test_overflowing_scan_is_a_numerical_failure(self, tmp_path, capsys):
        # log|det| at Re zeta = 1.7e308 overflows; its row count once ended in
        # an OverflowError traceback
        out = tmp_path / "zscan.csv"
        assert main(["det", "--map", BSTAR, "--zeta-scan", "0:1.7e308:2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "numerical failure: product route: log|det| at zeta=(1.7e+308+0j) is not finite" in err
        assert "Traceback" not in err and not out.exists()
        assert "encountered" not in err

    def test_non_expanding_map_is_refused(self, capsys):
        # no closed forms without expansion: the scan takes the annulus route,
        # and fails as det --z does
        assert main(["det", "--map", NON_EXPANDING, "--zeta-scan", "0:3:4"]) == 2
        assert "no annulus in the search range certifies expansivity" in capsys.readouterr().err

    def test_needs_z_or_scan(self):
        assert main(["det", "--map", BSTAR, "--annulus", "0.8,1.25"]) == 1

    @pytest.mark.parametrize("descriptor", [BSTAR, ANTI, MOBIUS], ids=["bstar", "anti", "mobius"])
    def test_closed_form_scan_searches_no_annulus(self, descriptor, tmp_path, monkeypatch):
        # the product formula reads no annulus, and the config records none
        def refuse(m):
            raise AssertionError("annulus search for a closed-form scan")

        monkeypatch.setattr(ruelle.cli, "find_expansive_annulus", refuse)
        out = tmp_path / "zscan.csv"
        assert main(["det", "--map", descriptor, "--zeta-scan", "1:5:3", "--out", str(out)]) == 0
        config = json.loads(out.read_text().splitlines()[0].removeprefix("# config: "))
        assert "annulus" not in config
        assert main(["det", "--map", descriptor, "--annulus", "0.8,1.25",
                     "--zeta-scan", "1:5:3", "--out", str(out)]) == 0
        config = json.loads(out.read_text().splitlines()[0].removeprefix("# config: "))
        assert config["annulus"] == [0.8, 1.25]

    @pytest.mark.parametrize("descriptor", [BSTAR, TRIG], ids=["closed-form", "spectrum"])
    def test_exact_zero_is_minus_inf_under_warnings_as_errors(self, descriptor):
        # det(I - L) = 0 (the eigenvalue 1); log 0 must not warn on either route
        env = dict(os.environ, PYTHONPATH=str(Path(ruelle.__file__).parents[1]))
        res = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "ruelle.cli", "det",
             "--map", descriptor, "--zeta-scan", "0:1:2"],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        assert res.stdout.splitlines()[2] == "0,0,-inf"


@pytest.mark.parametrize(
    "option", [["--zeta-scan", "0.5:1:2"], ["--z", "0.6"]], ids=["zeta-scan", "z"]
)
def test_det_numerical_warning_exits_2(option, tmp_path, capsys):
    # TrigLift on (0.8, 1.25) converges 7 of 10 eigenvalues: the artifact is
    # still written, the warnings printed and the exit code says so
    out = tmp_path / "det.out"
    code = main(["det", "--map", TRIG, "--annulus", "0.8,1.25", *option, "--out", str(out)])
    assert code == 2
    assert out.read_text().startswith(("# config:", "{"))
    err = capsys.readouterr().err
    assert "warning: spectrum not converged" in err
    assert "exceeds 1e-6 of |value|" in err


def test_warnings_before_failure_are_printed(capsys):
    # the spectrum and tail warnings come before the trace route fails at
    # n = 9: they are printed, ahead of the failure line
    code = main(["det", "--map", TRIG, "--annulus", "0.8,1.25", "--z", "0.3"])
    assert code == 2
    err = capsys.readouterr().err
    warned = err.find("warning: spectrum not converged")
    assert 0 <= warned < err.find("numerical failure: trace of power n=")


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (ruelle.cli, "trace_report", ["trace", "--map", BSTAR, "--annulus", "0.8,1.25"]),
        (ruelle.julia, "render", ["julia", "--w", "0.5,0.26", "--size", "16x16"]),
        (ruelle.cli, "build_homotopy", ["homotopy-check", "--map0", SQUARING, "--map1", BSTAR]),
    ],
    ids=["trace", "julia", "homotopy-check"],
)
def test_every_subcommand_exits_2_on_warning(module, name, argv, monkeypatch, tmp_path, capsys):
    original = getattr(module, name)

    def warned(*args, **kwargs):
        warnings.warn("injected", RuntimeWarning)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, warned)
    out = tmp_path / "artifact"
    assert main([*argv, "--out", str(out)]) == 2
    assert out.stat().st_size > 0
    assert "warning: injected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "moduli",
    [np.exp(-0.3 * np.arange(1, 40) ** 0.7), 0.5 ** np.arange(1, 20), [0.5, 0.25, 0.125], []],
    ids=["stretched", "geometric", "three", "none"],
)
def test_summary_order_is_order_estimate(moduli):
    # the order estimate rho_hat is 1 + 1/beta of the one decay fit, or
    # exactly 1 where that fit is refused
    spec = Spectrum(np.array([1.0, *moduli], dtype=complex), None, None, 1e-9)
    second, beta, rho = _spectrum_summary(spec)
    if len(moduli) < 6:
        with pytest.raises(ValueError, match="finite-spectrum"):
            decay_fit(spec)
        assert (beta, rho) == (None, 1.0)
    else:
        fit = decay_fit(spec)
        assert (beta, rho) == (fit.beta, 1 + 1 / fit.beta)


class TestScan:
    def test_mobius_grid(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["scan", "--family", "mobius", "--grid", "0:1:6",
                     "--annulus", "0.8,1.25", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "w,lambda2_abs,beta,rho_hat,converged,min_expansion"
        data = [line.split(",") for line in lines[2:-1]]
        assert len(data) == 6
        at0 = data[0]
        assert float(at0[1]) < 1e-8
        for row in data[1:]:
            assert float(row[1]) > 0.01
        assert lines[-1].startswith("# fraction")

    @pytest.mark.parametrize("count", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv, option",
        [(["scan", "--family", "mobius", "--annulus", "0.8,1.25"], "--grid"),
         (["det", "--map", BSTAR], "--zeta-scan")],
        ids=["grid", "zeta-scan"],
    )
    def test_empty_grid(self, argv, option, count, capsys):
        # a count below 1 names its option, not numpy's sample-count message
        assert main([*argv, option, f"0:1:{count}"]) == 1
        assert capsys.readouterr().err == f"error: {option} gives an empty grid\n"

    def test_homotopy_degree_mismatch(self):
        code = main(["scan", "--family", "homotopy", "--map0", SQUARING,
                     "--map1", '{"type":"triglift","d":3,"cos":[],"sin":[]}',
                     "--grid", "0:1:3"])
        assert code == 1

    @pytest.mark.parametrize(
        "given", [[], ["--map0", SQUARING], ["--map1", BSTAR]], ids=["neither", "map0", "map1"]
    )
    def test_homotopy_needs_both_maps(self, given, capsys):
        assert main(["scan", "--family", "homotopy", "--grid", "0:1:3", *given]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "homotopy scan needs --map0 and --map1" in err

    def test_homotopy_endpoints_match_standalone(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["scan", "--family", "homotopy", "--map0", SQUARING, "--map1", BSTAR,
                     "--grid", "0:1:3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        data = [line.split(",") for line in lines[2:-1]]
        assert float(data[0][1]) < 1e-7          # z^2 endpoint
        assert float(data[-1][1]) == pytest.approx(0.5, abs=1e-7)  # B* endpoint
        for row in data:
            assert float(row[5]) > 1.0           # expanding on the whole grid

    def test_config_records_the_maps(self, tmp_path, capsys):
        # a descriptor file and inline JSON spaced another way write one artifact
        map0, map1 = tmp_path / "map0.json", tmp_path / "map1.json"
        map0.write_text(SQUARING)
        map1.write_text(BSTAR)
        spaced = [json.dumps(json.loads(d), indent=2) for d in (SQUARING, BSTAR)]
        artifacts = []
        for ends in ([str(map0), str(map1)], spaced):
            assert main(["scan", "--family", "homotopy", "--map0", ends[0], "--map1", ends[1],
                         "--grid", "0:1:2"]) == 0
            artifacts.append(capsys.readouterr().out)
        assert artifacts[0] == artifacts[1]
        config = json.loads(artifacts[0].splitlines()[0].removeprefix("# config: "))
        assert config["map1"] == json.loads(BSTAR)

    def test_numerical_warning_exits_2(self, tmp_path, capsys):
        # the TrigLift end of the homotopy from B* converges 7 of 10
        # eigenvalues on (0.8, 1.25): the scan still writes every row, prints
        # the warning and exits 2
        out = tmp_path / "scan.csv"
        code = main(["scan", "--family", "homotopy", "--map0", BSTAR, "--map1", TRIG,
                     "--grid", "0:1:4", "--annulus", "0.8,1.25", "--out", str(out)])
        assert code == 2
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 + 4 + 1
        assert lines[-2].split(",")[4] == "7"
        assert "warning: spectrum not converged" in capsys.readouterr().err


class TestJulia:
    def test_writes_pgm(self, tmp_path):
        out = tmp_path / "julia.pgm"
        code = main(["julia", "--w", "0.5,0.26", "--size", "64x64", "--out", str(out)])
        assert code == 0
        assert out.read_bytes().startswith(b"P5\n64 64\n255\n")

    def test_bad_size(self, tmp_path):
        code = main(["julia", "--w", "0", "--size", "8x8", "--out", str(tmp_path / "x.pgm")])
        assert code == 1

    @pytest.mark.parametrize(
        "viewport, named",
        [
            ("1,-1,-1,1", "xmin < xmax"),  # would be a mirror image
            ("-1,1,1,-1", "ymin < ymax"),
            ("0,0,0,0", "xmin < xmax"),  # would be a one-colour image
        ],
        ids=["x-mirror", "y-mirror", "empty"],
    )
    def test_viewport_that_does_not_increase_is_an_input_error(
        self, viewport, named, capsys, tmp_path
    ):
        out = tmp_path / "x.pgm"
        code = main(["julia", "--w", "0.5,0.26", f"--viewport={viewport}", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_memory_error_is_an_error_line(self, monkeypatch, capsys, tmp_path):
        # what a raster too large for the host raises, without allocating one
        def oversized(*args, **kwargs):
            raise MemoryError("Unable to allocate 9.31 GiB for an array")

        monkeypatch.setattr(ruelle.julia, "render", oversized)
        out = tmp_path / "x.pgm"
        code = main(["julia", "--w", "0.5,0.26", "--size", "100000x100000", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 9.31 GiB for an array\n"
        assert not out.exists()


class TestHomotopyCheck:
    def test_report(self, tmp_path):
        out = tmp_path / "hc.json"
        code = main(["homotopy-check", "--map0", SQUARING, "--map1", BSTAR, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["eta"] > 0
        assert doc["margins"]["inner"] > 0 and doc["margins"]["outer"] > 0
        assert doc["sup_distance_at_eta"] <= doc["first_order_bound"] * 1.5

    def test_mismatch(self):
        code = main(["homotopy-check", "--map0", SQUARING,
                     "--map1", '{"type":"triglift","d":3,"cos":[],"sin":[]}'])
        assert code == 1


def test_usage_error_exit_code(capsys):
    assert main(["nonsense"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["julia", "--w", "0.5,0.26", "--size", "64x64"], "--viewport", "-1.6,1.6,-1.6,1.6"),
        (["det", "--map", BSTAR], "--z", "-0.3,0.1"),
        (["scan", "--family", "mobius", "--annulus", "0.8,1.25"], "--grid", "-1:1:3"),
        (["julia", "--size", "64x64"], "--w", "-.5,0.26"),
    ],
    ids=["viewport", "z", "grid", "w"],
)
def test_negative_value_after_its_option(argv, option, value, tmp_path, capsys):
    # a value that starts with '-' and a digit or '.' may follow its option
    # as the next token: the same exit code and artifact as --option=value
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert main([*argv, option, value, "--out", str(spaced)]) == 0
    assert main([*argv, f"{option}={value}", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["det", "--map", BSTAR], "--z", "-inf"),
        (["det", "--map", BSTAR], "--z", "-nan,0"),
        (["det", "--map", BSTAR], "--z", "-Infinity"),
        (["det", "--map", BSTAR], "--zeta-scan", "-inf:1:3"),
        (["det", "--map", BSTAR], "--zeta-scan", "-NaN:1:3"),
        (["julia", "--out", "x.pgm"], "--w", "-nan"),
        (["julia", "--w", "0.5", "--out", "x.pgm"], "--viewport", "-INF,1,0,1"),
    ],
    ids=["z-inf", "z-nan", "z-infinity", "zeta-scan-inf", "zeta-scan-nan", "w-nan", "viewport-inf"],
)
def test_non_finite_value_after_its_option(argv, option, value, capsys, tmp_path, monkeypatch):
    # -inf, -nan and -infinity, in any case, are values too: the same error
    # line, naming the option, and exit code as --option=value
    monkeypatch.chdir(tmp_path)
    assert main([*argv, option, value]) == 1
    spaced = capsys.readouterr().err
    assert main([*argv, f"{option}={value}"]) == 1
    assert spaced == capsys.readouterr().err
    assert spaced.startswith(f"error: {option} expects finite numbers")
    assert not (tmp_path / "x.pgm").exists()


def test_unknown_option_is_still_a_usage_error(capsys):
    for value in ("-1", "-inf"):
        assert main(["det", "--map", BSTAR, "--z", "-0.3,0.1", "--bogus", value]) == 1
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_parser_is_reusable_after_an_error_exit(tmp_path, capsys):
    argv = ["det", "--map", ANTI, "--zeta-scan", "0.25:30.25:16"]
    assert main(["det", "--map", ANTI, "--zeta-scan"]) == 1  # argparse's own exit
    assert main([*argv, "--out", str(tmp_path / "after.csv")]) == 0
    _build_parser.cache_clear()
    assert main([*argv, "--out", str(tmp_path / "fresh.csv")]) == 0
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--map", BSTAR, "--annulus", "0.8,1.25", "--tol", "-1"],
        ["spectrum", "--map", BSTAR, "--annulus", "0.8,1.25", "--tol", "0"],
        ["scan", "--grid", "0:1:2", "--annulus", "0.8,1.25", "--tol", "nan"],
    ],
    ids=["spectrum-negative", "spectrum-zero", "scan-nan"],
)
def test_non_positive_tol_is_an_input_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "tol must be positive" in err


@pytest.mark.parametrize(
    "descriptor, field",
    [
        ('{"type":"blaschke"}', "zeros"),
        ('{"type":"mobius"}', "w"),
        ('{"type":"triglift"}', "d"),
        ('{"type":"blaschke","zeros":[0.5,0.2]}', "zeros"),
        ('{"type":"mobius","w":0.5}', "w"),
        # anti is a JSON boolean: bool() would read each of these as true
        ('{"type":"blaschke","zeros":[[0,0],[0.5,0]],"anti":"false"}', "anti"),
        ('{"type":"blaschke","zeros":[[0,0],[0.5,0]],"anti":[0]}', "anti"),
        ('{"type":"blaschke","zeros":[[0,0],[0.5,0]],"anti":1}', "anti"),
        # arrays are JSON arrays: iterating a string would read its characters
        ('{"type":"blaschke","zeros":"00"}', "zeros"),
        ('{"type":"blaschke","zeros":[[0,0],"5"]}', "zeros"),
        ('{"type":"blaschke","zeros":[[0,0],[0.5,0]],"alpha":"1"}', "alpha"),
        ('{"type":"triglift","d":2,"cos":"01"}', "cos"),
        ('{"type":"triglift","d":2,"sin":"01"}', "sin"),
        ('{"type":"mobius","w":"7"}', "w"),
        # the numbers in an array are JSON numbers: complex() and float() would
        # parse a string, and a boolean would count as 1
        ('{"type":"blaschke","zeros":[[0,0],[0.5,0]],"alpha":["1"]}', "alpha"),
        ('{"type":"blaschke","zeros":[[0,0],["0.5j"]]}', "zeros"),
        ('{"type":"triglift","d":2,"cos":["0.1"]}', "cos"),
        ('{"type":"triglift","d":2,"sin":[true]}', "sin"),
        ('{"type":"mobius","w":[true]}', "w"),
        # a complex number is one or two numbers: complex() would read [] as 0,
        # and a degree is an integer, which a boolean is not
        ('{"type":"mobius","w":[]}', "w"),
        ('{"type":"blaschke","zeros":[[],[0.5,0]]}', "zeros"),
        ('{"type":"triglift","d":true}', "d"),
        # a number is finite as a float: json reads NaN, Infinity and 1e400 (as
        # inf), and an integer beyond float range would overflow float()
        *[
            pytest.param(form.replace("X", bad), field, id=f"{field}-{bad[:9]}")
            for bad in ("NaN", "Infinity", "-Infinity", "1e400", str(10**400))
            for form, field in [
                ('{"type":"blaschke","zeros":[[0,0],[X,0]]}', "zeros"),
                ('{"type":"blaschke","zeros":[[0,0],[0.5,0]],"alpha":[1,X]}', "alpha"),
                ('{"type":"triglift","d":2,"cos":[X]}', "cos"),
                ('{"type":"triglift","d":2,"sin":[0.1,X]}', "sin"),
                ('{"type":"mobius","w":[X]}', "w"),
                ('{"type":"triglift","d":X}', "d"),
            ]
        ],
    ],
)
def test_incomplete_descriptor_is_an_input_error(descriptor, field, capsys):
    # a missing or malformed field exits 1 with an error line naming it
    assert main(["trace", "--map", descriptor]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{field}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "descriptor, named",
    [
        ("[1]", "JSON object"),  # parses as JSON, so it is no file path
        ('{"type":"triglift","d":2.7}', "'d'"),  # a degree is not truncated
    ],
)
def test_descriptor_of_wrong_kind_is_an_input_error(descriptor, named, capsys):
    assert main(["trace", "--map", descriptor]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["trace", "--map", BSTAR, "--annulus", "0.8"], "--annulus expects r,R"),
        (["det", "--map", BSTAR, "--zeta-scan", "0:1"], "--zeta-scan expects lo:hi:count"),
        (["scan", "--grid", "0:1"], "--grid expects lo:hi:count"),
        (["julia", "--w", "0.5", "--size", "512", "--out", "x.pgm"], "--size expects WxH"),
        (
            ["julia", "--w", "0.5", "--viewport", "1,2", "--out", "x.pgm"],
            "--viewport expects xmin,xmax,ymin,ymax",
        ),
    ],
)
def test_option_of_wrong_shape_is_an_input_error(argv, named, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err



@pytest.mark.parametrize(
    "argv, named",
    [
        (["trace", "--map", BSTAR, "--annulus", "a,b"], "--annulus expects r,R, got 'a,b'"),
        (["det", "--map", BSTAR, "--zeta-scan", "0:1:x"], "--zeta-scan expects lo:hi:count"),
        (["scan", "--grid", "0:1:2.5"], "--grid expects lo:hi:count, got '0:1:2.5'"),
        (["julia", "--w", "0.5", "--size", "5x1.5", "--out", "x.pgm"], "--size expects WxH"),
        (
            ["julia", "--w", "0.5", "--viewport", "1,2,3,y", "--out", "x.pgm"],
            "--viewport expects xmin,xmax,ymin,ymax",
        ),
        (["julia", "--w", "0.5,i", "--out", "x.pgm"], "--w expects re,im, got '0.5,i'"),
        (["det", "--map", MOBIUS, "--z", "0.3j"], "--z expects re, got '0.3j'"),
    ],
    ids=["annulus", "zeta-scan", "grid", "size", "viewport", "w", "z"],
)
def test_option_of_wrong_kind_is_an_input_error(argv, named, capsys, tmp_path, monkeypatch):
    # a part of the right count but the wrong kind names the option and its form
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.pgm").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["det", "--map", BSTAR, "--z", "inf"], "--z expects finite numbers, got 'inf'"),
        (["det", "--map", BSTAR, "--z", "nan,0"], "--z expects finite numbers, got 'nan,0'"),
        (["det", "--map", BSTAR, "--zeta-scan", "0:inf:3"], "--zeta-scan expects finite numbers"),
        (["trace", "--map", BSTAR, "--annulus", "0.8,inf"], "--annulus expects finite numbers"),
        (["scan", "--grid", "nan:1:3"], "--grid expects finite numbers"),
        (["julia", "--w", "nan", "--size", "16x16", "--out", "x.pgm"], "--w expects finite"),
        (
            ["julia", "--w", "0.5", "--viewport", "0,1,0,inf", "--out", "x.pgm"],
            "--viewport expects finite numbers",
        ),
        (["spectrum", "--map", TRIG, "--annulus", "0.8,1.25", "--tol", "inf"], "tol=inf"),
        (["scan", "--grid", "0:1:2", "--annulus", "0.8,1.25", "--tol", "inf"], "tol=inf"),
    ],
    ids=["z-inf", "z-nan", "zeta-scan", "annulus", "grid", "w", "viewport", "spectrum-tol",
         "scan-tol"],
)
def test_non_finite_number_is_an_input_error(argv, named, capsys, tmp_path, monkeypatch):
    # inf or nan in a numeric option exits 1 with an error line naming the option,
    # not with a traceback, a cryptic conversion error or a meaningless result
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.pgm").exists()
    assert not out  # no artifact, with a NaN or Infinity token or any other


@pytest.mark.parametrize("N", ["0", "-3"])
def test_trace_rejects_N_below_one(N, capsys):
    assert main(["trace", "--map", BSTAR, "--N", N]) == 1
    assert capsys.readouterr().err == f"error: --N must be at least 1, got {N}\n"


@pytest.mark.parametrize("N", ["0", "-1", "63"])
def test_spectrum_rejects_N_below_64(N, capsys):
    assert main(["spectrum", "--map", BSTAR, "--annulus", "0.8,1.25", "--N", N]) == 1
    assert capsys.readouterr().err == f"error: --N must be at least 64, got {N}\n"


@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_det_rejects_nmax_below_one(nmax, capsys):
    assert main(["det", "--map", MOBIUS, "--z", "0.3", "--nmax", nmax]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"nmax={nmax} must be at least 1" in err
