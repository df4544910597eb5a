"""The package's module layering, read from the import statements of src/xrhead."""

import ast
import os

import xrhead

PACKAGE = os.path.dirname(os.path.abspath(xrhead.__file__))


def imports(module: str) -> set[str]:
    """Absolute names of the modules that xrhead.<module> imports, __future__ aside."""
    with open(os.path.join(PACKAGE, f"{module}.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["xrhead" if node.level else "", node.module]))
            if node.module is None:  # `from . import report` imports the module report
                out.update(f"{base}.{alias.name}" for alias in node.names)
            else:
                out.add(base)
    return out - {"__future__"}


def test_analysis_imports_only_numpy_and_errors():
    assert imports("analysis") == {"numpy", "xrhead.errors"}


def test_experiments_build_on_the_harness():
    # `from . import report as rpt` and `import numpy` are read as well
    assert {"xrhead.harness", "xrhead.report", "numpy"} <= imports("experiments")


def test_harness_imports_neither_experiments_nor_analysis():
    assert not imports("harness") & {"xrhead.experiments", "xrhead.analysis"}


def container_names(path: str, package: str) -> set[str]:
    """Names that the module at path (in package) takes from xrhead.container:
    `from .container import x` gives x, and `container.x` after importing the module gives x."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = ".".join(parts[: len(parts) - node.level + 1]) if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            if module == "xrhead.container":
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "container":
                out.add(node.attr)
    return out


def test_only_the_container_knows_the_file_framing():
    # every other module reads and writes files through pack / unpack only, and
    # holds what it read to the one rule of check_arrays
    taken = {}
    for root, _, files in os.walk(PACKAGE):
        rel = os.path.relpath(root, PACKAGE)
        package = "xrhead" if rel == "." else "xrhead." + rel.replace(os.sep, ".")
        for name in files:
            path = os.path.join(root, name)
            if name.endswith(".py") and path != os.path.join(PACKAGE, "container.py"):
                taken[os.path.relpath(path, PACKAGE)] = container_names(path, package)
    allowed = {"MAX_EXTENT", "check_arrays", "pack", "unpack"}
    assert {m: sorted(n) for m, n in taken.items() if n - allowed} == {}
    assert taken["harness.py"] == allowed


def modules() -> dict[str, ast.Module]:
    """The parsed source of every module under src/xrhead, by path relative to it."""
    out = {}
    for root, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as f:
                    out[os.path.relpath(path, PACKAGE)] = ast.parse(f.read())
    return out


def test_records_cross_json_through_asdict_and_from_dict():
    # records are written with dataclasses.asdict and read with JsonFields.from_dict
    wrappers = [
        f"{path}: {node.name}.{item.name}"
        for path, tree in modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in {"to_dict", "to_json", "from_json"}
    ]
    assert wrappers == []


def test_only_report_and_container_import_json():
    importers = {path for path in modules() if "json" in imports(os.path.splitext(path)[0])}
    assert importers == {"report.py", "container.py"}
