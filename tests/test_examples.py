"""Every example script must run clean end to end.

Examples are the public face of the library; this keeps them green as the
API evolves. Each runs in a subprocess with a generous timeout.
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(
    name for name in os.listdir(os.path.join(REPO_ROOT, "examples"))
    if name.endswith(".py"))


# multi-second end-to-end runs live in the slow tier; the default run
# still covers every other example
SLOW_EXAMPLES = {"criteo_e2e.py"}


def test_examples_discovered():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("script", [
    pytest.param(name, marks=pytest.mark.slow)
    if name in SLOW_EXAMPLES else name
    for name in EXAMPLES])
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "examples", script)],
        capture_output=True, text=True, timeout=300, cwd=REPO_ROOT)
    assert result.returncode == 0, \
        f"{script} failed:\n{result.stdout[-2000:]}\n{result.stderr[-2000:]}"
    assert result.stdout.strip(), f"{script} produced no output"
