"""Every demo script runs to completion against this checkout's sources."""

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
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # demos write their files under the temp dir; keep those inside tmp_path
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(tmp_path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
