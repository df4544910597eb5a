"""The function-body statements of src/xrhead that no test ran.

Run from the repository root, standard library and pytest only:

    python3 tools/linecov.py                      # tier-1, as pytest's settings give it
    python3 tools/linecov.py -q tests/test_numerics.py

The arguments go to pytest unchanged.  Pytest runs in this process under
`sys.settrace` and `threading.settrace`, so helper threads are traced too;
the tracer hands line events only to frames whose code lives under
src/xrhead.  Child Python processes are traced as well: a `sitecustomize.py`
in a temporary directory put first on PYTHONPATH loads this file and starts
the same tracer, and each child writes the lines it ran to that directory
when it exits.  A child started with a PYTHONPATH of its own, or one that
leaves through `os._exit` or a signal, is not counted.

Afterwards it prints `path:line function: source` for each statement inside
a function body (docstrings aside) that has bytecode and never ran, then a
one-line count, and exits with pytest's exit code.  A compound statement
counts as run when its header ran, e.g. an `if` whose test was evaluated.
"""

from __future__ import annotations

import ast
import atexit
import collections
import glob
import json
import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "xrhead") + os.sep


class Tracer:
    """Records the lines that run in frames of code under src/xrhead, in the
    thread that calls start() and in every thread started after it."""

    def __init__(self):
        self.ran: dict[str, set[int]] = collections.defaultdict(set)  # file -> lines

    def _line(self, frame, event, arg):
        if event == "line":
            self.ran[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename.startswith(PACKAGE) else None

    def start(self) -> None:
        sys.settrace(self._call)
        threading.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def trace_child(out_dir: str) -> None:
    """Trace this process and write what ran into out_dir at exit."""
    tracer = Tracer()

    def dump() -> None:
        tracer.stop()
        fd, _ = tempfile.mkstemp(suffix=".json", dir=out_dir)
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump({name: sorted(lines) for name, lines in tracer.ran.items()}, f)

    atexit.register(dump)
    tracer.start()


_SITECUSTOMIZE = """\
import importlib.util

_spec = importlib.util.spec_from_file_location("_linecov", {tool!r})
_linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_linecov)
_linecov.trace_child({out_dir!r})
"""


def _code_lines(code) -> set[int]:
    """The lines that hold bytecode in code and the code objects nested in it."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _code_lines(const)
    return out


def _functions(node: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function defined in node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, f"{name}.")
        else:
            yield from _functions(child, prefix)


def _statements(body: list[ast.stmt]):
    """(statement, its header lines) of a function body, nested blocks
    included; the bodies of nested functions and classes are their own."""
    for stmt in body:
        inner = [s for field in ("body", "orelse", "finalbody") for s in getattr(stmt, field, [])]
        inner += [s for h in getattr(stmt, "handlers", []) for s in h.body]
        if inner:
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
            header = range(first, max(first, min(s.lineno for s in inner) - 1) + 1)
        else:
            header = range(stmt.lineno, stmt.end_lineno + 1)
        yield stmt, header
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield from _statements(inner)


def unrun(ran: dict[str, set[int]]) -> tuple[list[str], int]:
    """Report lines for the function-body statements under src/xrhead that
    did not run, and the number of statements looked at."""
    report, total = [], 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as f:
            source = f.read()
        lines = source.splitlines()
        executable = _code_lines(compile(source, path, "exec"))
        hits = ran.get(path, set())
        for name, func in _functions(ast.parse(source)):
            body = func.body[1:] if ast.get_docstring(func) is not None else func.body
            for stmt, header in _statements(body):
                if executable.isdisjoint(header):
                    continue
                total += 1
                if hits.isdisjoint(header):
                    where = os.path.relpath(path, ROOT)
                    report.append(f"{where}:{stmt.lineno} {name}: {lines[stmt.lineno - 1].strip()}")
    return report, total


def main(args: list[str]) -> int:
    import pytest

    with tempfile.TemporaryDirectory(prefix="linecov-") as tmp:
        with open(os.path.join(tmp, "sitecustomize.py"), "w", encoding="utf-8") as f:
            f.write(_SITECUSTOMIZE.format(tool=os.path.abspath(__file__), out_dir=tmp))
        paths = (tmp, SRC, os.environ.get("PYTHONPATH"))
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        sys.path.insert(0, SRC)
        tracer = Tracer()
        tracer.start()
        try:
            code = pytest.main(args)
        finally:
            tracer.stop()
        ran = tracer.ran
        for dump in glob.glob(os.path.join(tmp, "*.json")):
            with open(dump, encoding="utf-8") as f:
                for name, lines in json.load(f).items():
                    ran[name].update(lines)
    report, total = unrun(ran)
    for line in report:
        print(line)
    print(f"linecov: {total - len(report)} of {total} function-body statements ran;", end=" ")
    print(f"{len(report)} did not")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
