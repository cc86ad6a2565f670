"""Smoke test: every demo script and the README's library tour run to
completion on the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable] + argv, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    proc = _run([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour_runs(tmp_path):
    # the first python block under the "Library tour" heading, as written
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text.split("\n## Library tour\n", 1)[1]
    code = tour.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "import bernseries" in code or "from bernseries" in code
    proc = _run(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
