"""Every demo script, and the test suite itself, runs against this checkout's sources."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(
    name for name in os.listdir(os.path.join(ROOT, "demos")) if name.endswith(".py")
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    # demos write their files under the temp dir; keep those inside tmp_path
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_suite_runs_from_a_bare_checkout():
    # no install and no PYTHONPATH: pytest's own settings find src/, for this
    # process and for the child processes a test starts
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "tests/test_encoders.py::test_encoder_determinism_across_processes",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
