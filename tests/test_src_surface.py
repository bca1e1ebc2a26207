"""The package holds only what a command runs: every module-level function
and class in ``src/subtune`` is named somewhere in the package outside its
own definition, as a name, an attribute or an imported name.  Docstrings
and comments do not count, and neither does a test, so a helper that only
the tests call fails here and belongs under ``tests/``."""

from __future__ import annotations

import ast
from pathlib import Path

import subtune

PACKAGE = Path(subtune.__file__).parent


def _names(node: ast.AST) -> set[str]:
    """Every name ``node`` refers to: loaded or stored names, attribute
    names and the names and aliases of its imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(name for name in (sub.name, sub.asname) if name)
    return out


def _unreferenced(package: Path) -> list[str]:
    """``module.name`` of each module-level function or class in
    ``package`` that no other top-level statement of the package names;
    a statement's own body does not count for its definition."""
    statements = [
        (path.stem, stmt) for path in sorted(package.glob("*.py")) for stmt in ast.parse(path.read_text()).body
    ]
    names = [_names(stmt) for _, stmt in statements]
    unused = []
    for i, (module, stmt) in enumerate(statements):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not any(stmt.name in seen for j, seen in enumerate(names) if j != i):
                unused.append(f"{module}.{stmt.name}")
    return unused


def test_every_module_level_definition_is_used_by_the_package():
    assert _unreferenced(PACKAGE) == []


def test_a_definition_named_only_by_itself_or_a_docstring_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""helper is described here, not called."""\n'
        "import os\n\n\n"
        "def helper():\n    return helper()  # recursion alone is no use\n\n\n"
        "class Kept:\n    pass\n\n\n"
        "def used():\n    return Kept()\n"
    )
    (tmp_path / "b.py").write_text("from .a import used as run\n\nrun()\n")
    assert _unreferenced(tmp_path) == ["a.helper"]
