"""tools/linecov.py: the statements no test ran, in pytest's process and in its children."""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPTIM = "src/xrhead/numerics/optim.py"


def test_linecov_lists_the_statement_no_test_ran(tmp_path):
    # cosine_lr runs in the test's process, and its first refusal runs only in a child
    (tmp_path / "test_schedule.py").write_text(
        textwrap.dedent(
            """
            import subprocess
            import sys

            from xrhead.numerics import cosine_lr

            def test_schedule():
                assert cosine_lr(1, 2, 1.0) == 0.5
                code = "from xrhead.numerics import cosine_lr\\ncosine_lr(0, 0, 1.0)"
                child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
                assert "total_epochs must be positive" in child.stderr
            """
        )
    )
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "tools", "linecov.py"),
            "-q",
            "-p",
            "no:cacheprovider",
            str(tmp_path / "test_schedule.py"),
        ],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(os.path.join(ROOT, OPTIM), encoding="utf-8") as f:
        source = f.read().splitlines()

    def line_of(text):
        (index,) = [i for i, line in enumerate(source) if text in line]
        return f"{OPTIM}:{index + 1} cosine_lr: "

    unrun = proc.stdout.splitlines()
    assert any(line.startswith(line_of("outside [0,")) for line in unrun), proc.stdout
    for ran in ("must be positive", "if total_epochs <= 0", "return lr0 * 0.5"):
        assert not any(line.startswith(line_of(ran)) for line in unrun), (ran, proc.stdout)
    assert unrun[-1].startswith("linecov: ") and unrun[-1].endswith(" did not")
