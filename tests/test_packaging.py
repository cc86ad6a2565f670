"""Packaging: what the package imports is what it declares, and what it
exports is what its modules export."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bernseries"

# Imports the package and runs one CLI call per subcommand, then prints
# every loaded scipy module on the last line.
_SESSION = """
import sys
import bernseries
from bernseries import cli
out = sys.argv[1]
for argv in (
    ["apply", "--n", "7", "--fn", "h=cheb6", "--grid-size", "9"],
    ["eigen", "--n", "6"],
    ["series", "--n", "12", "--fn", "h=square", "--grid-size", "9"],
    ["voronovskaya", "--n", "10", "--fn", "h=affine", "--grid-size", "9"],
    ["converge", "--n", "8,16", "--rho", "0.5,2"],
    ["bound", "--n", "16", "--fn", "h=affine", "--grid-size", "9"],
):
    assert cli.main(argv + ["--out", f"{out}/{argv[0]}.csv"]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _third_party_imports():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"bernseries"}


def test_imports_equal_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
                for req in project["dependencies"]}
    assert declared == {"numpy"}
    assert _third_party_imports() == declared


def test_cli_session_loads_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SESSION, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_package_exports_match_the_modules():
    # the package re-exports exactly the public names of its library
    # modules; the command-line module `cli` is not re-exported
    import bernseries
    assert [name for name in bernseries.__all__
            if not hasattr(bernseries, name)] == []
    union = {"__version__"}
    for path in PACKAGE.glob("*.py"):
        if path.stem not in ("__init__", "cli"):
            module = importlib.import_module(f"bernseries.{path.stem}")
            union.update(module.__all__)
    assert sorted(bernseries.__all__) == sorted(union)
    # the Bernstein operator is build_u_matrix / apply_U at rho = inf,
    # not a name of its own
    assert {"bernstein", "apply_F"}.isdisjoint(union)
    assert len(bernseries.__all__) == 60


_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_ten(x):
    assert x < 10
"""


def test_failing_property_reports_its_counterexample(tmp_path):
    # warnings are errors under the project's pytest configuration; a
    # failing @given test must still end in a report that shows the
    # counterexample, not in INTERNALERROR
    test = tmp_path / "test_property.py"
    test.write_text(_FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
