"""Every name a module of the package imports is used in that module, and
every name the package exports exists.

Standard library only: each module is parsed with ``ast``, the names its
import statements bind are collected, and each must be read somewhere in
the module. A name listed in the module's ``__all__`` is a re-export and
counts as used; ``from __future__`` imports bind nothing.
"""

import ast
from pathlib import Path

import pytest

import matorus

MODULES = sorted(Path(matorus.__file__).parent.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict:
    """Bound name -> line of the import that binds it."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported_names(tree)
    return sorted(
        f"line {line}: {name}"
        for name, line in _imported_names(tree).items()
        if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .errors import ConfigError, GridMismatchError as GM\n"
        "from .grid import GridSpec\n"
        "__all__ = ['GridSpec']\n"
        "def f():\n"
        "    raise ConfigError(os.sep)\n"
    )
    assert unused_imports(source) == ["line 3: GM"]


def test_every_exported_name_resolves():
    missing = [name for name in matorus.__all__ if not hasattr(matorus, name)]
    assert missing == []
