"""Every name a module of the package imports is used in that module,
every top-level name of the package is used by the package or exported,
and every name the package exports exists.

Standard library only: each module is parsed with ``ast``, the names its
import statements bind are collected, and each must be read somewhere in
the module. A name listed in the module's ``__all__`` is a re-export and
counts as used; ``from __future__`` imports bind nothing. A top-level
function, class or assignment must be named by some other top-level
statement of the package or by the package's ``__all__``, so a helper or
a constant that only the tests still use is flagged.
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


def _referenced_names(node: ast.AST) -> set:
    """Names read, attributes accessed and names imported under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _defined_names(stmt: ast.stmt) -> list:
    """Names a top-level statement defines, dunder names aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("__")]


def orphaned_names(sources: dict, exported=()) -> list:
    """``module: name`` of each top-level function, class or assignment
    in ``sources`` (module name -> source) that no other top-level
    statement of any module names and that is not in ``exported``."""
    statements = [
        (module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body
    ]
    names = [_referenced_names(stmt) for _, stmt in statements]
    orphans = []
    for k, (module, stmt) in enumerate(statements):
        for name in _defined_names(stmt):
            if name in exported:
                continue
            if not any(name in used for j, used in enumerate(names) if j != k):
                orphans.append(f"{module}: {name}")
    return sorted(orphans)


def test_every_private_helper_is_used_by_the_package():
    sources = {path.name: path.read_text() for path in MODULES}
    assert orphaned_names(sources, matorus.__all__) == []


def test_guard_flags_an_orphaned_private_helper():
    sources = {
        "a.py": (
            "def _used():\n"
            "    return 1\n"
            "def _recursive(k):\n"
            "    return _recursive(k - 1) if k else 0\n"
            "class _Orphan:\n"
            "    pass\n"
            "def public():\n"
            "    return _used()\n"
        ),
        "b.py": "from .a import _imported\nfrom .a import public\n",
        "c.py": "def _imported():\n    pass\n",
    }
    assert orphaned_names(sources) == ["a.py: _Orphan", "a.py: _recursive"]


def test_guard_flags_an_orphaned_public_name():
    sources = {
        "a.py": (
            "TOL = 1e-12\n"
            "LIMIT: int = 3\n"
            "UNUSED = 2\n"
            "__version__ = '0'\n"
            "def helper():\n"
            "    return TOL * LIMIT\n"
            "def exported():\n"
            "    pass\n"
            "class Orphan:\n"
            "    pass\n"
        ),
    }
    assert orphaned_names(sources, exported=["exported"]) == [
        "a.py: Orphan", "a.py: UNUSED", "a.py: helper",
    ]


def test_every_exported_name_resolves():
    missing = [name for name in matorus.__all__ if not hasattr(matorus, name)]
    assert missing == []


# The public API, pinned: adding or removing a name is a deliberate edit here.
PUBLIC_API = [
    "MatorusError",
    "GridSpec", "ScalarField", "HermitianField", "constant_field", "identity_metric",
    "ddbar", "integrate", "measure_weights",
    "serialize", "deserialize",
    "MetricDefects", "defects", "canonical_laplacian", "trace_pair",
    "gauduchon_weight", "gauduchon_metric", "ricci_form", "wedge_integral",
    "SolverConfig", "SolveResult", "ma_log_residual", "newton_solve", "continuity_solve",
    "EstimateReport", "report", "sweep",
    "MetricJet", "CoordinateChange", "normal_coordinates", "check_cs_chain",
    "check_balanced_coords",
    "PrescriptionResult", "constraint_integral", "prescribe_ricci",
    "__version__",
]


def test_public_api_is_pinned():
    assert matorus.__all__ == PUBLIC_API
