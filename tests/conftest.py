import os
import sys
from pathlib import Path

import pytest

from vpal import palindromes

SRC = Path(__file__).resolve().parents[1] / "src"


def subprocess_env() -> dict:
    """Environment for running the CLI as `python -m vpal` from the tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def no_idle_pool():
    """Shuts down the shard pool that an earlier call left idle, before the
    test and after it: the test starts with no pool worker alive, and no
    pool it leaves idle (a stand-in included) reaches a later test."""
    palindromes._drop_idle()
    yield
    palindromes._drop_idle()


def pytest_runtest_logreport(report):
    # One pass/fail line per acceptance criterion, visible in the terminal.
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    status = "PASS" if report.passed else "FAIL"
    sys.stderr.write(f"\n[acceptance] {name}: {status}\n")
