"""Command-line experiment driver: parsing, outputs, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bernseries import EIGEN_N_CAP, corpus_entry, voronovskaya
from bernseries.cli import (OUT_DIR_ENV, ExperimentConfig, _build_parser,
                            _parse_fn, main)


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
    def test_multi_n_only_for_converge(self):
        with pytest.raises(ValueError):
            ExperimentConfig(command="eigen", n_list=[2, 3], rho_list=[1.0])

    def test_multi_rho_only_for_converge(self):
        with pytest.raises(ValueError):
            ExperimentConfig(command="bound", n_list=[16],
                             rho_list=[1.0, 2.0])
        ExperimentConfig(command="converge", n_list=[8, 16],
                         rho_list=[0.5, 1.0])

    def test_raw_function_only_for_apply(self):
        with pytest.raises(ValueError, match="only supported by apply"):
            ExperimentConfig(command="series", n_list=[8], rho_list=[1.0],
                             fn="f=0,1")
        cfg = ExperimentConfig(command="apply", n_list=[8], rho_list=[1.0],
                               fn="f=0,1,-1")
        with pytest.raises(ValueError, match="no cofactor"):
            cfg.cofactor()

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
    def test_rejects_bad_spec(self, spec, message):
        # the spec is parsed on construction, so a bad one never
        # reaches a run
        with pytest.raises((ValueError, KeyError), match=message):
            ExperimentConfig(command="series", n_list=[8], rho_list=[1.0],
                             fn=spec)

    def test_fields(self):
        # one field carries the function spec
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert names == ["command", "n_list", "rho_list", "fn", "grid_kind",
                         "grid_size", "out_path", "fmt"]
        cfg = ExperimentConfig(command="series", n_list=[8], rho_list=[1.0])
        assert cfg.fn == "h=one"
        assert cfg.cofactor().coeffs.tolist() == [1.0]


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
        assert float(meta["tail_bound"]) <= 1e-9
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
        (["converge", "--n", "8,,16"], "--n takes comma-separated int "
                                       "values, got ''"),
        (["eigen", "--n", "4", "--rho", "abc"], "--rho takes "
         "comma-separated float values, got 'abc'"),
    ], ids=["fractional-n", "empty-n", "word-rho"])
    def test_parse_errors_name_the_flag(self, argv, message, outdir,
                                        capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert err == f"error: {message}\n"
        assert list(outdir.iterdir()) == []

    def test_out_override(self, tmp_path, capsys):
        target = tmp_path / "custom" / "result.csv"
        code, out, _ = run_cli(
            ["eigen", "--n", "3", "--out", str(target)], capsys)
        assert code == 0
        assert target.exists()
        assert str(target) in out


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
