"""Every name a library module imports is used in that module.

An offline stand-in for a linter's unused-import rule: each module of the
package except ``__init__.py`` (which imports to re-export) is parsed with
``ast``, and every name bound by an import must be read somewhere in it.
"""
import ast
from pathlib import Path

import pytest

import hyperforge

MODULES = sorted(p for p in Path(hyperforge.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names bound by import statements, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """The names read in the module, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        ann = None
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= _used(ast.parse(ann.value, mode="eval"))
    return used


def test_the_package_has_modules_to_check():
    assert {p.name for p in MODULES} >= {"core.py", "criteria.py", "coordwise.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in _imported(tree).items() if name not in _used(tree)}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_an_unused_import_is_reported():
    tree = ast.parse("import math\nfrom .core import ONE, ZERO\n\ndef f() -> 'ONE':\n    return math.pi\n")
    assert {name for name in _imported(tree) if name not in _used(tree)} == {"ZERO"}
