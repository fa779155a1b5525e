import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "nanokit").glob("*.py"))
# the code that may call the package: itself, the benchmark and the scripts
PROGRAM = SOURCES + sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_runtime_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [
        name
        for name in _absolute_imports(tree)
        if name.partition(".")[0] not in sys.stdlib_module_names | {"nanokit"}
    ]
    assert foreign == []


def test_the_package_is_found():
    assert "__init__.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_from_another(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").partition(".")[0] == "nanokit")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _used_names(nodes):
    """Every name the nodes read, look up as an attribute, or import."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.alias):
                names.add(sub.name.rpartition(".")[2])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_public_function_and_class_is_used_by_the_program(path):
    # a name that only the tests use belongs in the tests; one the package
    # re-exports from __init__.py is named there, so it counts as used
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    elsewhere = _used_names(ast.parse(other.read_text(encoding="utf-8")) for other in PROGRAM if other != path)
    unused = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in elsewhere | _used_names(other for other in tree.body if other is not node)
    ]
    assert unused == []
