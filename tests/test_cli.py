"""Command-line experiment driver: parsing, outputs, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bernseries import EIGEN_N_CAP, GridSpec, corpus_entry, voronovskaya
from bernseries.cli import (OUT_DIR_ENV, _atomic_write, _build_parser,
                            _parse_fn, _render_csv, _render_json, main)


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    return tmp_path


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseFn:
    def test_corpus_name(self):
        key, poly = _parse_fn("h=cheb6")
        assert key == "h"
        assert np.array_equal(poly.coeffs, corpus_entry("cheb6").coeffs)

    def test_inline_cofactor(self):
        key, poly = _parse_fn("h=1,-2,0.5")
        assert key == "h" and poly.coeffs.tolist() == [1.0, -2.0, 0.5]

    def test_inline_function(self):
        key, poly = _parse_fn("f=0,1")
        assert key == "f" and poly.coeffs.tolist() == [0.0, 1.0]

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            _parse_fn("cheb6")
        with pytest.raises(ValueError):
            _parse_fn("g=1,2")
        with pytest.raises(ValueError):
            _parse_fn("f=cheb6")
        with pytest.raises(ValueError):
            _parse_fn("h=")


class TestConfigValidation:
    """The checks main makes before any work: each failure prints one
    error line, returns 1 and writes no file."""

    def reject(self, argv, outdir, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert list(outdir.iterdir()) == []
        return err

    def test_multi_n_only_for_converge(self, outdir, capsys):
        err = self.reject(["eigen", "--n", "2,3"], outdir, capsys)
        assert err == "error: eigen takes exactly one n\n"

    def test_multi_rho_only_for_converge(self, outdir, capsys):
        err = self.reject(["bound", "--n", "16", "--rho", "1,2"], outdir,
                          capsys)
        assert err == "error: bound takes exactly one rho\n"
        code, _, _ = run_cli(["converge", "--n", "8,16", "--rho", "0.5,1"],
                             capsys)
        assert code == 0

    def test_raw_function_only_for_apply(self, outdir, capsys):
        for argv in (["series", "--n", "8"], ["eigen", "--n", "8"],
                     ["converge", "--n", "8,16"]):
            err = self.reject(argv + ["--fn", "f=0,1"], outdir, capsys)
            assert err == ("error: a raw function spec (f=...) is only "
                           "supported by apply; give the cofactor instead "
                           "(h=...)\n")
        code, _, _ = run_cli(["apply", "--n", "8", "--fn", "f=0,1,-1"],
                             capsys)
        assert code == 0

    @pytest.mark.parametrize("spec, message", [
        ("bogus", "must look like"),
        ("g=1,2", "key must be h or f"),
        ("h=", "empty function payload"),
        ("h=1,nan", "coefficients must be finite"),
        ("f=cheb6", "corpus names are cofactors"),
        ("h=nosuch", "unknown corpus entry"),
        ("h=1,,2", "h= coefficients must be comma-separated floats, "
                   "got ''"),
        ("f=1,a", "f= coefficients must be comma-separated floats, "
                  "got 'a'"),
    ])
    def test_rejects_bad_spec(self, spec, message, outdir, capsys):
        # the spec is parsed before any work
        err = self.reject(["series", "--n", "8", "--fn", spec], outdir,
                          capsys)
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("field, value, message", [
        ("grid_size", "1", "grid size must be at least 2"),
        pytest.param("n", "", "--n takes comma-separated int values, "
                     "got ''", id="empty-n"),
        pytest.param("rho", "", "--rho takes comma-separated float values, "
                     "got ''", id="empty-rho"),
    ])
    def test_rejects_bad_field(self, field, value, message, outdir, capsys):
        # an empty --n or --rho is one empty token, never an empty list
        flags = {"--n": "8", "--" + field.replace("_", "-"): value}
        argv = ["series"] + [tok for item in flags.items() for tok in item]
        assert self.reject(argv, outdir, capsys) == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["plot", "--n", "8"],
        ["series", "--n", "8", "--format", "xml"],
        ["series", "--n", "8", "--grid", "random"],
    ], ids=["command", "format", "grid"])
    def test_parser_rejects_bad_choice(self, argv, outdir, capsys):
        # the parser's choices hold the command, the format and the
        # grid kind; argparse exits 2 before main checks anything
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_fields(self):
        # seven flags are the whole configuration, the same for every
        # subcommand
        parser = _build_parser()
        for command in ("apply", "eigen", "series", "voronovskaya",
                        "converge", "bound"):
            args = parser.parse_args([command, "--n", "8"])
            assert vars(args) == {
                "command": command, "n": "8", "rho": "1", "fn": "h=one",
                "grid_size": 129, "grid": "uniform", "out": None,
                "format": "csv",
            }


class TestEigenCommand:
    def test_exact_small_table(self, outdir, capsys):
        code, out, _ = run_cli(
            ["eigen", "--n", "2", "--rho", "1", "--grid-size", "65"], capsys)
        assert code == 0
        path = outdir / "eigen.csv"
        assert str(path) in out
        lines = path.read_text().splitlines()
        assert lines[0] == "j,lambda,gap,dist_limit,coeffs"
        assert lines[1] == "0,1,0,0,1"
        assert lines[2] == "1,1,0,0,-0.5;1"
        assert lines[3].startswith("2,0.333333333333,0.666666666667,")
        assert lines[3].endswith(",0;-1;1")
        assert lines[4] == "# n=2"
        assert lines[5] == "# rho=1"

    def test_eigen_cap(self, outdir, capsys):
        code, _, _ = run_cli(["eigen", "--n", str(EIGEN_N_CAP)], capsys)
        assert code == 0
        lines = (outdir / "eigen.csv").read_text().splitlines()
        rows = [ln for ln in lines[1:] if not ln.startswith("#")]
        assert len(rows) == EIGEN_N_CAP + 1

    def test_reruns_byte_identical(self, outdir, capsys):
        args = ["eigen", "--n", "6", "--rho", "0.5"]
        assert run_cli(args, capsys)[0] == 0
        first = (outdir / "eigen.csv").read_bytes()
        assert run_cli(args, capsys)[0] == 0
        assert (outdir / "eigen.csv").read_bytes() == first


class TestApplyCommand:
    def test_affine_reproduced(self, outdir, capsys):
        code, _, _ = run_cli(
            ["apply", "--n", "6", "--rho", "2", "--fn", "f=0,1",
             "--grid-size", "11"], capsys)
        assert code == 0
        lines = (outdir / "apply.csv").read_text().splitlines()
        assert lines[0] == "x,f_value,u_value"
        assert len([l for l in lines if not l.startswith("#")]) == 12
        for line in lines[1:12]:
            x, fv, uv = (float(t) for t in line.split(","))
            assert abs(fv - x) < 1e-12
            assert abs(uv - x) < 1e-10

    def test_cofactor_input_pins_endpoints(self, outdir, capsys):
        code, _, _ = run_cli(
            ["apply", "--n", "5", "--rho", "1", "--fn", "h=one",
             "--grid-size", "5"], capsys)
        assert code == 0
        lines = (outdir / "apply.csv").read_text().splitlines()
        first = lines[1].split(",")
        last = lines[5].split(",")
        assert float(first[1]) == 0.0 and float(first[2]) == 0.0
        assert float(last[1]) == 0.0 and float(last[2]) == 0.0


    def test_chebyshev_grid(self, outdir, capsys):
        code, _, _ = run_cli(
            ["apply", "--n", "8", "--fn", "h=cheb6", "--grid", "chebyshev",
             "--grid-size", "9", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads((outdir / "apply.json").read_text())["rows"]
        want = GridSpec.chebyshev(9).points
        assert [r["x"] for r in rows] == [float(f"{x:.12g}") for x in want]


class TestConvergeCommand:
    def test_sweep_shape_and_trend(self, outdir, capsys):
        code, _, _ = run_cli(
            ["converge", "--n", "8,16,32,64", "--rho", "0.5,1",
             "--fn", "h=affine"], capsys)
        assert code == 0
        lines = (outdir / "converge.csv").read_text().splitlines()
        assert lines[0] == "n,rho,sup_H,sup_rhs,iters"
        assert len(lines) == 9
        assert not any(l.startswith("#") for l in lines)
        for block in (lines[1:5], lines[5:9]):
            sups = [float(l.split(",")[2]) for l in block]
            assert all(a > b for a, b in zip(sups, sups[1:]))


class TestBoundCommand:
    def test_json_summary(self, outdir, capsys):
        code, _, _ = run_cli(
            ["bound", "--n", "16", "--rho", "1", "--fn", "h=affine",
             "--format", "json"], capsys)
        assert code == 0
        doc = json.loads((outdir / "bound.json").read_text())
        assert doc["command"] == "bound"
        assert doc["summary"]["satisfied"] is True
        assert doc["summary"]["n"] == 16
        assert len(doc["rows"]) == 129
        row = doc["rows"][64]
        assert abs(row["margin"] - (row["rhs"] - row["lhs"])) < 1e-12

    def test_formats_agree(self, outdir, capsys):
        base = ["bound", "--n", "16", "--rho", "2", "--fn", "h=square",
                "--grid-size", "33"]
        assert run_cli(base, capsys)[0] == 0
        assert run_cli(base + ["--format", "json"], capsys)[0] == 0
        csv_lines = (outdir / "bound.csv").read_text().splitlines()
        doc = json.loads((outdir / "bound.json").read_text())
        data_lines = [l for l in csv_lines[1:] if not l.startswith("#")]
        assert len(data_lines) == len(doc["rows"]) == 33
        for line, row in zip(data_lines, doc["rows"]):
            cells = [float(t) for t in line.split(",")]
            for cell, key in zip(cells, ("x", "lhs", "rhs", "margin")):
                assert abs(cell - row[key]) < 1e-15 * max(1.0, abs(cell))


class TestSeriesAndVoronovskaya:
    def test_series_summary_lines(self, outdir, capsys):
        code, _, _ = run_cli(
            ["series", "--n", "12", "--rho", "1", "--fn", "h=one",
             "--grid-size", "17"], capsys)
        assert code == 0
        lines = (outdir / "series.csv").read_text().splitlines()
        assert lines[0] == "x,value"
        meta = {l.split("=")[0][2:]: l.split("=")[1]
                for l in lines if l.startswith("# ")}
        assert int(meta["iters"]) > 0
        assert "tail_bound" not in meta
        # the weight cofactor sums to rho/(rho+1) times the weight
        mid = lines[9].split(",")
        assert abs(float(mid[0]) - 0.5) < 1e-15
        assert abs(float(mid[1]) - 0.5 * 0.25) < 1e-9

    def test_voronovskaya_residual_column(self, outdir, capsys):
        code, _, _ = run_cli(
            ["voronovskaya", "--n", "16", "--rho", "1", "--fn", "h=square",
             "--grid-size", "17"], capsys)
        assert code == 0
        lines = (outdir / "voronovskaya.csv").read_text().splitlines()
        assert lines[0] == "x,inverse_value,residual"
        resid = [abs(float(l.split(",")[2])) for l in lines[1:18]]
        assert max(resid) < 0.05

    def test_voronovskaya_computes_the_inverse_once(self, outdir, capsys,
                                                    monkeypatch):
        # the inverse_value column is the inverse the residual subtracts;
        # every inverse evaluation goes through inverse_neg
        calls = []
        original = voronovskaya.inverse_neg

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(voronovskaya, "inverse_neg", counting)
        code, _, _ = run_cli(
            ["voronovskaya", "--n", "16", "--rho", "1", "--fn", "h=cheb6"],
            capsys)
        assert code == 0
        assert len(calls) == 1


class TestErrorPaths:
    def test_unknown_corpus_name(self, outdir, capsys):
        code, _, err = run_cli(
            ["series", "--n", "8", "--fn", "h=nosuch"], capsys)
        assert code == 1
        # the message itself, not a KeyError's quoted repr of it
        assert err.startswith("error: unknown corpus entry 'nosuch'; known: ")
        assert not (outdir / "series.csv").exists()

    def test_tolerance_flag_rejected(self, outdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--n", "8", "--tol", "1e-10"])
        assert exc.value.code == 2
        assert not (outdir / "series.csv").exists()

    def test_raw_function_rejected_off_apply(self, outdir, capsys):
        code, _, err = run_cli(
            ["series", "--n", "8", "--fn", "f=0,1"], capsys)
        assert code == 1
        assert "apply" in err

    def test_bad_rho(self, outdir, capsys):
        code, _, err = run_cli(["eigen", "--n", "4", "--rho", "-1"], capsys)
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv, message", [
        (["eigen", "--n", "2.5"], "--n takes comma-separated int values, "
                                  "got '2.5'"),
        (["eigen", "--n", "8.0"], "--n takes comma-separated int values, "
                                  "got '8.0'"),
        (["converge", "--n", "8,,16"], "--n takes comma-separated int "
                                       "values, got ''"),
        (["eigen", "--n", "4", "--rho", "abc"], "--rho takes "
         "comma-separated float values, got 'abc'"),
    ], ids=["fractional-n", "integral-float-n", "empty-n", "word-rho"])
    def test_parse_errors_name_the_flag(self, argv, message, outdir,
                                        capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert err == f"error: {message}\n"
        assert list(outdir.iterdir()) == []

    def test_library_error_is_reported(self, outdir, capsys):
        # the configuration is valid; the eigensolve refuses the size
        n = EIGEN_N_CAP + 1
        code, out, err = run_cli(["eigen", "--n", str(n)], capsys)
        assert code == 1
        assert out == ""
        assert err == (f"error: eigen block size {n} exceeds n={n} or the "
                       f"eigen cap {EIGEN_N_CAP}\n")
        assert list(outdir.iterdir()) == []

    def test_failed_write_leaves_no_part_file(self, tmp_path):
        # a lone surrogate has no UTF-8 form, so the write fails once
        # the temporary file exists; the file goes and the error stays
        target = tmp_path / "result.csv"
        with pytest.raises(UnicodeEncodeError):
            _atomic_write(str(target), "x\ud800\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_override(self, tmp_path, capsys):
        target = tmp_path / "custom" / "result.csv"
        code, out, _ = run_cli(
            ["eigen", "--n", "3", "--out", str(target)], capsys)
        assert code == 0
        assert target.exists()
        assert str(target) in out


def _no_constant(token):
    raise ValueError(f"non-JSON token {token}")


# One call per subcommand, each with the cell kinds its JSON must hold.
FORMAT_CASES = {
    "apply": ["apply", "--n", "8", "--rho", "1", "--fn", "f=0,0,0,1"],
    "eigen": ["eigen", "--n", "6", "--rho", "0.5"],  # str coeffs
    "series": ["series", "--n", "16", "--rho", "1", "--fn", "h=cheb6"],
    "voronovskaya": ["voronovskaya", "--n", "16", "--rho", "1",
                     "--fn", "h=square"],
    # rho = 1 admits n >= 10, so the n = 4 and 8 rows carry a null bound
    "converge": ["converge", "--n", "4,8,16", "--rho", "1",
                 "--fn", "h=affine"],
    "bound": ["bound", "--n", "32", "--rho", "1", "--fn", "h=absdev8"],
}


class TestOutputFormat:
    @pytest.mark.parametrize("rho", [None, "inf"])
    @pytest.mark.parametrize("command", sorted(FORMAT_CASES))
    def test_json_is_the_indent_2_layout(self, command, rho, tmp_path,
                                         capsys):
        argv = FORMAT_CASES[command] + ["--grid-size", "9"]
        if rho is not None:
            argv[argv.index("--rho") + 1] = rho
        out = tmp_path / "out.json"
        code, _, err = run_cli(argv + ["--format", "json", "--out",
                                       str(out)], capsys)
        assert code == 0, err
        text = out.read_text()
        doc = json.loads(text, parse_constant=_no_constant)
        assert text == json.dumps(doc, indent=2) + "\n"
        rows = doc["rows"]
        if rho == "inf":
            assert doc.get("summary", rows[0])["rho"] == "inf"
        elif command == "converge":
            assert [r["sup_rhs"] is None for r in rows] == [True, True, False]
        elif command == "bound":
            assert doc["summary"]["satisfied"] is True
        elif command == "eigen":
            assert all(isinstance(r["coeffs"], str) for r in rows)
            assert rows[2]["coeffs"].count(";") == 2

    def test_csv_pinned_on_a_mixed_table(self):
        header = ["flag", "count", "big", "name", "v", "w", "rho"]
        columns = [
            [True, False, True],
            [0, 7, -3],
            [np.int64(2**40), np.int64(1), np.int64(-1)],
            ["0;0.5", "x", ""],
            [-0.0, math.nan, math.inf],
            np.array([1.0 / 3.0, -math.inf, 1e-20]),
            [math.inf, 0.5, 10.0],
        ]
        summary = {"n": np.int64(8), "rho": math.inf, "satisfied": False,
                   "slack": -0.0, "iters": 12}
        assert _render_csv(header, columns, summary) == (
            "flag,count,big,name,v,w,rho\n"
            "true,0,1099511627776,0;0.5,0,0.333333333333,inf\n"
            "false,7,1,x,nan,-inf,0.5\n"
            "true,-3,-1,,inf,1e-20,10\n"
            "# n=8\n"
            "# rho=inf\n"
            "# satisfied=false\n"
            "# slack=0\n"
            "# iters=12\n"
        )
        assert _render_csv(["x", "value"], [[], np.empty(0)], None) == (
            "x,value\n")
        assert _render_csv(["x"], [[]], {"n": 3}) == "x\n# n=3\n"

    def test_json_of_an_empty_table(self):
        text = _render_json("series", ["x", "value"], [[], np.empty(0)],
                            {"n": 3, "rho": math.inf})
        assert text == json.dumps(
            {"command": "series", "rows": [],
             "summary": {"n": 3, "rho": "inf"}}, indent=2) + "\n"


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _src_env():
    """The environment with the source tree first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


# One small call per subcommand.
SESSION = [
    ["apply", "--n", "7", "--rho", "0.5", "--fn", "h=cheb6",
     "--grid-size", "9"],
    ["eigen", "--n", "6", "--rho", "2"],
    ["series", "--n", "12", "--rho", "1", "--fn", "h=square",
     "--grid-size", "9", "--format", "json"],
    ["voronovskaya", "--n", "10", "--rho", "3", "--fn", "h=affine",
     "--grid-size", "9"],
    ["converge", "--n", "8,16", "--rho", "0.5,2", "--fn", "h=one"],
    ["bound", "--n", "16", "--rho", "1", "--fn", "h=affine",
     "--grid-size", "9"],
]


class TestSession:
    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_back_to_back_calls_match_separate_processes(self, tmp_path,
                                                         capsys):
        env = _src_env()
        for i, argv in enumerate(SESSION):
            alone = tmp_path / f"alone{i}"
            proc = subprocess.run(
                [sys.executable, "-m", "bernseries.cli", *argv,
                 "--out", str(alone)],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        for i, argv in enumerate(SESSION):
            code, _, err = run_cli(argv + ["--out", str(tmp_path / f"in{i}")],
                                   capsys)
            assert code == 0, err
        for i in range(len(SESSION)):
            assert ((tmp_path / f"in{i}").read_bytes()
                    == (tmp_path / f"alone{i}").read_bytes())


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "bernseries.cli", "--help"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "apply" in proc.stdout and "bound" in proc.stdout
