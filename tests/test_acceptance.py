"""Acceptance gate: every advertised criterion must pass at its stated
budget.  Run with -s to see the one-line verdicts as they land."""

import json
import os
import subprocess
import sys

import pytest

from fandec.selftest import CRITERION_NAMES, run_criterion


@pytest.mark.parametrize("name", CRITERION_NAMES)
def test_acceptance_criterion(name):
    result = run_criterion(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"[acceptance] {result.name}: {status} ({result.seconds:.2f}s) {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_selftest_fails_a_broken_criterion_under_python_O():
    # normalize is patched to return S4; the criterion must fail even with
    # -O, which strips assert statements
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import json\n"
        "import fandec.selftest as s\n"
        "from fandec.squarezero import FourSphere\n"
        "s.normalize = lambda p, q, r: FourSphere()\n"
        "res = s.run_criterion('connected-sum-normal-form')\n"
        "print(json.dumps({'passed': res.passed, 'detail': res.detail}))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["passed"] is False
    assert data["detail"].endswith("changed")
