"""Every public entry point that takes rho accepts rho in (0, inf] and
rejects anything else; rho = inf is the sampling (Bernstein) member.
Every one that takes n accepts integers of at least 1, Python or numpy,
and rejects anything else."""

import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

import bernseries as bs
from bernseries.cli import _render_json, main
from bernseries.series import apply_series_bernstein

H = bs.Polynomial([1.0, -0.5])
F = bs.C0Function(H)
HANDLE = bs.FunctionHandle.from_polynomial(bs.PSI)

# name -> call with the rho under test
ENTRY_POINTS = {
    "functional_moment": lambda r: bs.functional_moment(8, 3, r, 2),
    "u_matrix_leading_block": lambda r: bs.u_matrix_leading_block(8, r, 4),
    "apply_U_poly": lambda r: bs.apply_U_poly(8, r, bs.PSI),
    "apply_U": lambda r: bs.apply_U(8, r, HANDLE, 0.5),
    "central_moment": lambda r: bs.central_moment(8, r, 0.5, 2),
    "u_norm0": lambda r: bs.u_norm0(8, r),
    "eigenvalue": lambda r: bs.eigenvalue(8, r, 2),
    "compute_eigensystem": lambda r: bs.compute_eigensystem(8, r),
    "limit_eigenvalue": lambda r: bs.limit_eigenvalue(r, 2),
    "asymptotic_report": lambda r: bs.asymptotic_report(r, 4, [8]),
    "apply_series": lambda r: bs.apply_series(8, r, F),
    "apply_series_poly": lambda r: bs.apply_series_poly(8, r, bs.PSI),
    "apply_A_rho": lambda r: bs.apply_A_rho(r, bs.PSI),
    "inverse_neg": lambda r: bs.inverse_neg(r, F, 0.5),
    "inverse_neg_polynomial": lambda r: bs.inverse_neg_polynomial(r, F),
    "inverse_norm_check": lambda r: bs.inverse_norm_check(r, F),
    "residual_H": lambda r: bs.residual_H(8, r, H, 0.3),
    "epsilon_step": lambda r: bs.epsilon_step(8, r),
    "admissible_n": lambda r: bs.admissible_n(8, r),
    "theorem52_rhs": lambda r: bs.theorem52_rhs(H, 64, r, 0.5),
    "check_bound": lambda r: bs.check_bound(H, 16, r),
    "convergence_table": lambda r: bs.convergence_table(H, r, [8]),
}

# Records that carry the rho they were computed at; they are built by
# the entry points above, which check it.
RECORD_TYPES = {"BoundReport", "ConvergenceRecord", "EigenSystem"}

_XS = np.linspace(0.0, 1.0, 9)


def _leaves(obj):
    """The numbers an entry point returns, as a list of float arrays.

    The rho an output carries back and the sizes and grids it echoes
    are left out; a pinned function is read on a grid, a summed series
    by its value and its truncation count. The series' a priori tail
    bound q^(K+1) / (1 - q) is left out too: it turns the 1e-9 move of
    q between rho = 1e8 and inf into a 2e-7 move at K = 155.
    """
    if isinstance(obj, (tuple, list)):
        return [leaf for item in obj for leaf in _leaves(item)]
    if isinstance(obj, bs.SeriesResult):
        return [np.asarray(obj.value(_XS)), np.asarray(float(obj.iterations))]
    if isinstance(obj, bs.C0Function):
        return [np.asarray(obj.value(_XS))]
    if isinstance(obj, bs.Polynomial):
        return [obj.coeffs]
    if dataclasses.is_dataclass(obj):
        return [leaf for field in dataclasses.fields(obj)
                if field.name not in ("n", "rho", "rho_list", "grid")
                for leaf in _leaves(getattr(obj, field.name))]
    if isinstance(obj, str) or obj is None:
        return []
    return [np.asarray(obj, dtype=float)]


# Records that carry the n they were computed at, built by entry points
# that check it.
N_RECORD_TYPES = RECORD_TYPES | {"AsymptoticRecord"}

# name -> call with the n under test, valid at n = 8
N_ENTRY_POINTS = {
    "functional_moment": lambda n: bs.functional_moment(n, 3, 1.0, 2),
    "u_matrix_leading_block": lambda n: bs.u_matrix_leading_block(n, 1.0, 4),
    "apply_U_poly": lambda n: bs.apply_U_poly(n, 1.0, bs.PSI),
    "apply_U": lambda n: bs.apply_U(n, 1.0, HANDLE, 0.5),
    "central_moment": lambda n: bs.central_moment(n, 1.0, 0.5, 2),
    "u_norm0": lambda n: bs.u_norm0(n, 1.0),
    "eigenvalue": lambda n: bs.eigenvalue(n, 1.0, 2),
    "compute_eigensystem": lambda n: bs.compute_eigensystem(n, 1.0),
    "apply_series": lambda n: bs.apply_series(n, 1.0, F),
    "apply_series_poly": lambda n: bs.apply_series_poly(n, 1.0, bs.PSI),
    "apply_series_bernstein": lambda n: apply_series_bernstein(n, F),
    "residual_H": lambda n: bs.residual_H(n, 1.0, H, 0.3),
    "epsilon_step": lambda n: bs.epsilon_step(n, 1.0),
    "admissible_n": lambda n: bs.admissible_n(n, 1.0),
    # rho = 2 admits n from 7 on
    "theorem52_rhs": lambda n: bs.theorem52_rhs(H, n, 2.0, 0.5),
    "check_bound": lambda n: bs.check_bound(H, n, 2.0),
    # n doubled: the sampling-limit bound starts at n = 10; the double
    # keeps the type of n, so a bool stays a bool
    "bernstein_limit_rhs": lambda n: bs.bernstein_limit_rhs(
        H, type(n)(2 * n), 0.5),
}


@pytest.mark.parametrize("rho", [0.0, -1.0, math.nan, math.inf],
                         ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_rejects_rho_outside_range(name, rho):
    # 0, negative values and NaN lie outside (0, inf]; inf is its upper
    # end, accepted with a finite result
    if rho == math.inf:
        leaves = _leaves(ENTRY_POINTS[name](rho))
        assert all(np.all(np.isfinite(leaf)) for leaf in leaves)
        return
    with pytest.raises(ValueError, match=r"rho must be positive \(inf "
                                         r"included\)"):
        ENTRY_POINTS[name](rho)


def test_valid_rho_reaches_every_entry_point():
    # the same calls succeed at rho = 1, so each rejection above is the
    # rho check and not some other argument
    for call in ENTRY_POINTS.values():
        call(1.0)


def test_entry_points_cover_every_public_rho_parameter():
    # a new public callable with a rho parameter must join the table
    found = {name for name in bs.__all__
             if callable(getattr(bs, name))
             and "rho" in inspect.signature(getattr(bs, name)).parameters}
    # the CLI reads rho from --rho, checked by the test_cli_* tests below
    assert found == set(ENTRY_POINTS) | RECORD_TYPES


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_infinite_rho_continues_large_rho(name):
    # every output at rho = inf is the limit of the outputs at large
    # rho; measured at most 2.8e-8 relative, on asymptotic_report
    got = _leaves(ENTRY_POINTS[name](math.inf))
    near = _leaves(ENTRY_POINTS[name](1e8))
    assert len(got) == len(near)
    for a, b in zip(got, near):
        assert a.shape == b.shape
        scale = float(np.max(np.abs(b), initial=0.0))
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-7 * scale


@pytest.mark.parametrize("n", [0, -1, 2.5, 8.0, True])
@pytest.mark.parametrize("name", sorted(N_ENTRY_POINTS))
def test_rejects_n_outside_range(name, n):
    # a float n names no operator, even at an integer value, and a bool
    # is a flag, not a count
    with pytest.raises(ValueError, match="n must be at least 1"):
        N_ENTRY_POINTS[name](n)


@pytest.mark.parametrize("name", sorted(N_ENTRY_POINTS))
def test_numpy_integer_n_gives_the_same_result(name):
    got = _leaves(N_ENTRY_POINTS[name](np.int64(8)))
    want = _leaves(N_ENTRY_POINTS[name](8))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_n_entry_points_cover_every_public_n_parameter():
    # a new public callable with an n parameter must join the table
    found = {name for name in bs.__all__
             if callable(getattr(bs, name))
             and "n" in inspect.signature(getattr(bs, name)).parameters}
    # the sampling series is called by the benchmark and is not in
    # __all__; the CLI reads n from --n, checked by the test_cli_* tests
    outside_all = {"apply_series_bernstein"}
    assert found == (set(N_ENTRY_POINTS) - outside_all) | N_RECORD_TYPES


def test_cli_rejects_nan_rho(tmp_path, capsys):
    code = main(["eigen", "--n", "6", "--rho", "nan",
                 "--out", str(tmp_path / "eigen.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: rho must be positive (inf included)")
    assert not (tmp_path / "eigen.csv").exists()


_SUBCOMMANDS = {
    "apply": ["--n", "7", "--fn", "h=cheb6"],
    "eigen": ["--n", "6"],
    "series": ["--n", "12", "--fn", "h=square"],
    "voronovskaya": ["--n", "10", "--fn", "h=affine"],
    # n = 2 is below the admissibility threshold 4: a NaN bound cell
    "converge": ["--n", "2,8,16", "--fn", "h=affine"],
    "bound": ["--n", "16", "--fn", "h=affine"],
}


def _no_constant(token):
    raise ValueError(f"non-JSON constant {token} in the output")


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_cli_accepts_infinite_rho(command, tmp_path, capsys):
    # JSON output writes rho = inf as "inf", the token --rho reads, and
    # no other constant that is not JSON; CSV prints the same token
    argv = [command] + _SUBCOMMANDS[command] + ["--rho", "inf",
                                                "--grid-size", "9"]
    assert main(argv + ["--format", "json",
                        "--out", str(tmp_path / "out.json")]) == 0
    doc = json.loads((tmp_path / "out.json").read_text(),
                     parse_constant=_no_constant)
    rhos = [row["rho"] for row in doc["rows"] if "rho" in row]
    if "summary" in doc:
        rhos.append(doc["summary"]["rho"])
    assert rhos and set(rhos) == {"inf"}
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    text = (tmp_path / "out.csv").read_text()
    assert ",inf," in text or "# rho=inf\n" in text
    capsys.readouterr()


def _json_numbers(path):
    """Every number of a JSON output, column by column, rho left out;
    a null (NaN) cell reads as NaN and a ';'-joined coefficient cell
    as its numbers."""
    doc = json.loads(path.read_text())
    records = doc["rows"] + ([doc["summary"]] if "summary" in doc else [])
    columns = {}
    for record in records:
        for key, value in record.items():
            if key == "rho":
                continue
            if isinstance(value, str):
                cells = [float(c) for c in value.split(";")]
            else:
                cells = [math.nan if value is None else float(value)]
            columns.setdefault(key, []).extend(cells)
    return {key: np.array(cells) for key, cells in columns.items()}


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_cli_infinite_rho_continues_large_rho(command, tmp_path, capsys):
    # the command line's output at rho = inf is the limit of its output
    # at large rho, as for the library entry points above
    def run(rho):
        out = tmp_path / f"{rho}.json"
        assert main([command] + _SUBCOMMANDS[command]
                    + ["--rho", rho, "--grid-size", "9",
                       "--format", "json", "--out", str(out)]) == 0
        return _json_numbers(out)

    got, near = run("inf"), run("1e8")
    capsys.readouterr()
    assert got.keys() == near.keys()
    for key in got:
        a, b = got[key], near[key]
        assert a.shape == b.shape
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
        scale = float(np.nanmax(np.abs(b), initial=0.0))
        assert np.nanmax(np.abs(a - b), initial=0.0) <= 1e-7 * scale, key


def test_json_rejects_other_infinities():
    # only rho has a token for inf; NaN is null
    assert json.loads(_render_json("c", ["rho", "v"], [[math.inf], [math.nan]],
                                   None))["rows"] == [{"rho": "inf", "v": None}]
    with pytest.raises(ValueError):
        _render_json("c", ["rho", "v"], [[1.0], [math.inf]], None)


@pytest.mark.parametrize("bad", [math.inf, -math.inf])
def test_json_infinity_error_names_column_and_row(bad):
    with pytest.raises(ValueError, match=r"^column 'v', row 1: "):
        _render_json("c", ["rho", "v"], [[1.0, 2.0], [0.5, bad]], None)
    with pytest.raises(ValueError, match=r"^column 'rho', row 0: -inf "):
        _render_json("c", ["rho"], [[-math.inf]], None)


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_cli_rejects_nan_rho_in_every_subcommand(command, tmp_path, capsys):
    out = tmp_path / f"{command}.json"
    code = main([command] + _SUBCOMMANDS[command]
                + ["--rho", "nan", "--format", "json", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: rho must be positive")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--n", "0", "n must be at least 1"),
    ("--n", "-1", "n must be at least 1"),
    # a fractional n is refused as a token, before any range check
    ("--n", "2.5", "--n takes comma-separated int values, got '2.5'"),
    ("--rho", "0", "rho must be positive (inf included)"),
    ("--rho", "-1", "rho must be positive (inf included)"),
    ("--rho", "nan", "rho must be positive (inf included)"),
], ids=["n=0", "n=-1", "n=2.5", "rho=0", "rho=-1", "rho=nan"])
@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_cli_rejects_n_and_rho_outside_range_in_every_subcommand(
        command, flag, value, message, tmp_path, capsys):
    # the command line's n and rho meet the library's one check before
    # any work
    argv = [command] + _SUBCOMMANDS[command]
    if flag == "--n":
        # converge checks every n of its list, not only the first
        i = argv.index("--n") + 1
        argv[i] = argv[i] + "," + value if command == "converge" else value
    else:
        argv += [flag, value]
    out = tmp_path / f"{command}.csv"
    code = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1
    assert not out.exists()
