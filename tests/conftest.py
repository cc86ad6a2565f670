"""Shared fixtures and the acceptance summary hook.

Acceptance tests are named test_criterion_*; their outcomes are
collected and echoed as one line each after the normal summary, so a
full run ends with a compact per-criterion scoreboard.
"""

import numpy as np
import pytest
from hypothesis import settings

from bernseries import Polynomial

# Property tests run without a deadline (the first example of a size
# pays for cold caches) and keep no example database between runs; a
# failure prints the @reproduce_failure line that replays its draw.
settings.register_profile("bernseries", deadline=None, database=None,
                          print_blob=True)
settings.load_profile("bernseries")

_ACCEPTANCE = {}


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def make_cofactor(rng):
    """Factory for random cofactor polynomials with coefficients in [-1, 1]."""

    def make(max_deg: int) -> Polynomial:
        deg = int(rng.integers(0, max_deg + 1))
        return Polynomial(rng.uniform(-1.0, 1.0, size=deg + 1))

    return make


def pytest_runtest_logreport(report):
    name = report.nodeid.split("::")[-1]
    if "test_acceptance" not in report.nodeid or not name.startswith(
        "test_criterion"
    ):
        return
    if report.when == "call":
        if hasattr(report, "wasxfail"):
            outcome = "XFAIL" if report.outcome == "skipped" else "XPASS"
        elif report.outcome == "passed":
            outcome = "PASS"
        elif report.outcome == "failed":
            outcome = "FAIL"
        else:
            outcome = report.outcome.upper()
        _ACCEPTANCE[name] = outcome
    elif report.when == "setup" and report.outcome in ("failed", "skipped"):
        _ACCEPTANCE.setdefault(name, report.outcome.upper())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        terminalreporter.write_line(f"{_ACCEPTANCE[name]:>6}  {name}")
