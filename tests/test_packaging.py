"""Packaging: what the package imports is what it declares, and what it
exports is what its modules export."""

import ast
import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bernseries"

# Imports the package and runs one CLI call per subcommand, then prints
# every loaded fractions or decimal module on one line and every loaded
# scipy module on the last line.
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
print(sorted(m for m in sys.modules if m in ("fractions", "decimal")))
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


def _trees(directory):
    return {path: ast.parse(path.read_text(), str(path))
            for path in sorted(directory.glob("*.py"))}


def _declared_all(tree):
    # a literal __all__; the package's own is built from the modules'
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__all__"]):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:
                return set()
    return set()


def test_every_import_is_used_or_exported():
    # the linter's unused-import rule, with the standard library alone
    for path, tree in _trees(PACKAGE).items():
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | _declared_all(tree)
        bound = {(alias.asname or alias.name).split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names if alias.name != "*"}
        assert sorted(bound - used) == [], path.name


def _referenced_names(*directories):
    """Every name the modules of the directories read, as a bare name,
    an attribute or an imported name; assigning a name is not reading
    it."""
    refs = set()
    for directory in directories:
        for tree in _trees(directory).values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    refs.update(alias.name for alias in node.names)
    return refs


def test_every_private_definition_is_referenced():
    # a module-level private function or class that nothing in the
    # library or the benchmark names is dead code; tests do not count
    refs = _referenced_names(PACKAGE, ROOT / "bench")
    private = {(path.name, node.name)
               for path, tree in _trees(PACKAGE).items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")}
    assert sorted((f, name) for f, name in private if name not in refs) == []


def test_every_public_name_has_a_caller():
    # a public name that nothing in the library, the benchmark or the
    # demos reads (an __all__ entry is a string, not a use) serves only
    # the tests; tests do not count, nor does __version__
    import bernseries
    refs = _referenced_names(PACKAGE, ROOT / "bench", ROOT / "demos")
    assert sorted(set(bernseries.__all__) - refs - {"__version__"}) == []


def test_imports_equal_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
                for req in project["dependencies"]}
    assert declared == {"numpy"}
    assert _third_party_imports() == declared


@pytest.fixture(scope="module")
def session_lines(tmp_path_factory):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path_factory.mktemp("session")
    proc = subprocess.run([sys.executable, "-c", _SESSION, str(out)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_cli_session_loads_no_scipy(session_lines):
    assert session_lines[-1] == "[]"


def test_cli_session_loads_no_fractions_or_decimal(session_lines):
    # the Jacobi(1,1) family is built in integers; fractions (which
    # imports decimal) cost every cold eigen call its import
    assert session_lines[-2] == "[]"


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
    # the Bernstein operator is apply_U_poly / apply_U at rho = inf,
    # and polynomial calculus is Polynomial's methods, not names of
    # their own
    assert {"bernstein", "apply_F", "poly_calculus"}.isdisjoint(union)
    assert len(bernseries.__all__) == 51


_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_ten(x):
    assert x < 10
"""


def test_failing_property_reports_its_counterexample(tmp_path):
    # warnings are errors under the project's pytest configuration; a
    # failing @given test must still end in a report that shows the
    # counterexample, not in INTERNALERROR. Under the suite's profile
    # (the conftest beside the test) it also prints the line that
    # replays the draw, since no example database keeps it.
    test = tmp_path / "test_property.py"
    test.write_text(_FAILING_PROPERTY)
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "conftest.py")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "@reproduce_failure(" in out
    assert "INTERNALERROR" not in out
