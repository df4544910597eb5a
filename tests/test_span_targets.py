"""perfbench/run.py's span targets: every layer it traces still exists in src/.

perfbench/run.py is read, not imported: importing it pins the BLAS thread
count of this process.  A rename in src/ would otherwise fail only the
perfbench suite.
"""

import ast
import importlib
import os

import pytest

import xrhead

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def perfbench_layers() -> dict:
    """The LAYERS literal of perfbench/run.py: span name -> "module:attribute path"."""
    with open(os.path.join(ROOT, "perfbench", "run.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py assigns no LAYERS")


LAYERS = perfbench_layers()


def test_xrhead_is_imported_from_src():
    package = os.path.dirname(os.path.abspath(xrhead.__file__))
    assert package == os.path.join(ROOT, "src", "xrhead")


@pytest.mark.parametrize("span", sorted(LAYERS))
def test_span_target_resolves(span):
    module, _, path = LAYERS[span].partition(":")
    owner = importlib.import_module(module)
    for name in path.split("."):
        assert hasattr(owner, name), f"{span}: {module} has no {path}"
        owner = getattr(owner, name)
    assert callable(owner), f"{span}: {LAYERS[span]} is not callable"
