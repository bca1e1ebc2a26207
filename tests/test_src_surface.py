"""The package holds only what a command runs, and each module keeps its
own private names.  Five rules, checked on the ``ast`` of every
``src/subtune/*.py``:

- every module-level function and class is named somewhere in the package
  outside its own definition, as a name, an attribute or an imported name;
- every method, property or cached property of a class (dunders aside) is
  named somewhere in the package outside its own body, in the same way;
- every defaulted parameter of a function is passed, by keyword or by
  position, by some call inside the package;
- every field of a dataclass or NamedTuple is read as an attribute, or
  named in a string (as ``getattr`` takes it), somewhere in the package;
- no module imports another module's ``_``-prefixed name: a name that
  two modules share is public, and is named so.

Docstrings and comments do not count, and neither does a test, so a
helper, a keyword or a field that only the tests use fails here and belongs
under ``tests/``.  The one exemption is a ``[project.scripts]`` entry point
in ``pyproject.toml``: its parameters are the program's outside input.

The field rule knows a read by its attribute name, not by the class of
the object read, so a field passes whenever any field of its name is read.
``SHARED_FIELDS`` pins the names that two or more record classes share;
each was checked by hand to be read on every class that has it, and a new
shared name fails until it is checked and added."""

from __future__ import annotations

import ast
import tomllib
from pathlib import Path

import subtune

PACKAGE = Path(subtune.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SHARED_FIELDS = {
    "batch_size", "blocks", "cls", "config", "cross_mask", "d_model", "labels", "layer_id",
    "learning_rate", "masft", "model", "n_tokens", "name", "orth_mean", "pair_scale", "params",
    "pretrained_frob_sq", "s", "seed", "spec_mean", "stats", "step", "total", "trainable", "u", "v",
    "warmup_steps", "weights",
}


def _modules(package: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


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
    statements = [(module, stmt) for module, tree in _modules(package).items() for stmt in tree.body]
    names = [_names(stmt) for _, stmt in statements]
    unused = []
    for i, (module, stmt) in enumerate(statements):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not any(stmt.name in seen for j, seen in enumerate(names) if j != i):
                unused.append(f"{module}.{stmt.name}")
    return unused


def _unused_methods(package: Path) -> list[str]:
    """``module.Class.method`` of each method, property or cached property
    in ``package``, dunders aside, that nothing there names outside its own
    body."""
    modules = _modules(package)
    naming = [(id(sub), name) for tree in modules.values() for sub in ast.walk(tree)
              if isinstance(sub, (ast.Name, ast.Attribute, ast.alias)) for name in _names(sub)]
    unused = []
    for module, tree in modules.items():
        for name, fn, in_class in _definitions(tree, module):
            if not in_class or isinstance(fn, ast.ClassDef) or fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            own = {id(sub) for sub in ast.walk(fn)}
            if not any(seen == fn.name and at not in own for at, seen in naming):
                unused.append(name)
    return unused


def _definitions(node: ast.AST, prefix: str, in_class: bool = False):
    """(qualified name, definition, defined in a class body) of every
    function and class under ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            yield name, child, in_class
            yield from _definitions(child, name, isinstance(child, ast.ClassDef))
        else:
            yield from _definitions(child, prefix, in_class)


def _entry_points(pyproject: Path) -> set[str]:
    """``module.function`` of each ``[project.scripts]`` target."""
    scripts = tomllib.loads(pyproject.read_text()).get("project", {}).get("scripts", {})
    out = set()
    for target in scripts.values():
        module, _, function = target.partition(":")
        out.add(f"{module.rpartition('.')[2]}.{function}")
    return out


def _defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef, method: bool) -> list[tuple[int | None, str]]:
    """(position in a call, or None if keyword-only; name) of each
    parameter of ``fn`` that has a default.  A method's first parameter is
    bound, so its call positions start after it."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if method else 0:]
    first = len(positional) - len(args.defaults)
    return ([(i, p.arg) for i, p in enumerate(positional) if i >= first]
            + [(None, p.arg) for p, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None])


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` passes the parameter ``name``: by that keyword, or
    by enough positional arguments (a starred one reaches any position)."""
    if any(keyword.arg == name for keyword in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(arg, ast.Starred) for arg in call.args))


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def _unpassed(package: Path, pyproject: Path) -> list[str]:
    """``module.function(parameter)`` of each defaulted parameter that no
    call in ``package`` to a function of that name passes; the
    ``[project.scripts]`` entry points are exempt."""
    modules = _modules(package)
    calls = [node for tree in modules.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    exempt = _entry_points(pyproject)
    out = []
    for module, tree in modules.items():
        for name, fn, method in _definitions(tree, module):
            if isinstance(fn, ast.ClassDef) or name in exempt:
                continue
            mine = [call for call in calls if _callee(call) == fn.name]
            out += [f"{name}({param})" for position, param in _defaulted(fn, method)
                    if not any(_passes(call, position, param) for call in mine)]
    return out


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring nodes in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                out.add(id(first.value))
    return out


def _is_record(cls: ast.ClassDef) -> bool:
    """A ``@dataclass`` (called or not) or a ``NamedTuple`` subclass."""
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None

    return any(name(d) == "dataclass" for d in cls.decorator_list) or any(name(b) == "NamedTuple" for b in cls.bases)


def _record_fields(package: Path):
    """(``module.Class``, field name) of every field of every dataclass or
    NamedTuple in ``package``."""
    for module, tree in _modules(package).items():
        for name, cls, _ in _definitions(tree, module):
            if isinstance(cls, ast.ClassDef) and _is_record(cls):
                yield from ((name, stmt.target.id) for stmt in cls.body
                            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))


def _unread(package: Path) -> list[str]:
    """``module.Class.field`` of each dataclass or NamedTuple field in
    ``package`` that nothing there reads as an attribute or names in a
    string other than a docstring."""
    read = set()
    for tree in _modules(package).values():
        docstrings = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                read.add(node.value)
    return [f"{cls}.{field}" for cls, field in _record_fields(package) if field not in read]


def _shared_fields(package: Path) -> set[str]:
    """The field names that two or more record classes in ``package`` have."""
    owners: dict[str, set[str]] = {}
    for cls, field in _record_fields(package):
        owners.setdefault(field, set()).add(cls)
    return {field for field, classes in owners.items() if len(classes) > 1}


def _private_imports(package: Path) -> list[str]:
    """``module: from.name`` of each import in ``package`` of a
    ``_``-prefixed (not dunder) name from a module of the package, by a
    relative import or by the package's own name."""
    out = []
    for module, tree in _modules(package).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == package.name):
                source = "." * node.level + (node.module or "")
                out += [f"{module}: {source}.{alias.name}" for alias in node.names
                        if alias.name.startswith("_") and not alias.name.endswith("__")]
    return out


def test_every_module_level_definition_is_used_by_the_package():
    assert _unreferenced(PACKAGE) == []


def test_every_method_and_property_is_used_by_the_package():
    assert _unused_methods(PACKAGE) == []


def test_every_defaulted_parameter_is_passed_by_the_package():
    assert _unpassed(PACKAGE, PYPROJECT) == []


def test_every_record_field_is_read_by_the_package():
    assert _unread(PACKAGE) == []


def test_no_module_imports_another_modules_private_name():
    assert _private_imports(PACKAGE) == []


def test_the_field_names_two_records_share_were_each_checked_by_hand():
    assert _shared_fields(PACKAGE) == SHARED_FIELDS


def test_the_only_exemption_is_the_entry_point():
    assert _entry_points(PYPROJECT) == {"cli.main"}


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


def test_a_default_no_call_passes_is_reported_unless_an_entry_point_takes_it(tmp_path):
    (tmp_path / "a.py").write_text(
        "def run(argv=None, *, quiet=False):\n    return step(1, 2) + step(1, scale=3) + Box().size(4)\n\n\n"
        "def step(x, shift=0, scale=1, tol=1e-5):\n"
        '    """tol is named here and below, never passed."""\n    return (x + shift) * scale  # tol\n\n\n'
        "class Box:\n    def size(self, n, pad=0):\n        return n + pad\n\n"
        "    def area(self, n, pad=0):\n        return self.size(n, pad)\n"
    )
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[project.scripts]\ntool = "pkg.a:run"\n')
    assert _entry_points(pyproject) == {"a.run"}
    # shift by position, scale by keyword, Box.size's pad by position after
    # the bound self; argv and quiet belong to the entry point
    assert _unpassed(tmp_path, pyproject) == ["a.step(tol)", "a.Box.area(pad)"]
    pyproject.write_text('[project]\nname = "pkg"\n')
    assert _unpassed(tmp_path, pyproject) == ["a.run(argv)", "a.run(quiet)", "a.step(tol)", "a.Box.area(pad)"]


def test_a_field_nothing_reads_is_reported_unless_a_string_names_it(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\nfrom typing import NamedTuple\n\n\n"
        "@dataclass(eq=False)\nclass Report:\n"
        '    """spare is described here, never read."""\n\n'
        "    auc: float\n    eer: float\n    spare: float\n\n\n"
        "class Cell(NamedTuple):\n    name: str\n    note: str = ''\n\n\n"
        "def show(r: Report, c: Cell):\n"
        "    r.spare = 0.0  # a store is not a read\n"
        "    return r.auc, getattr(r, 'eer'), c.name\n"
    )
    assert _unread(tmp_path) == ["a.Report.spare", "a.Cell.note"]


def test_a_method_named_only_in_its_own_body_or_a_docstring_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "from functools import cached_property\n\n\n"
        "class Box:\n"
        '    """spare is described here, never called."""\n\n'
        "    def __len__(self):\n        return 0\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    @cached_property\n    def area(self):\n        return self.area  # itself alone is no use\n\n"
        "    def spare(self):\n        return self.size\n\n"
        "    @staticmethod\n    def make():\n        return Box()\n"
    )
    (tmp_path / "b.py").write_text("from .a import Box\n\nBox.make()\n")
    assert _unused_methods(tmp_path) == ["a.Box.area", "a.Box.spare"]


def test_a_field_name_two_records_share_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\nfrom typing import NamedTuple\n\n\n"
        "@dataclass\nclass Report:\n    auc: float\n    budget: int\n\n\n"
        "class Cell(NamedTuple):\n    name: str\n    budget: int\n\n\n"
        "class Plain:\n    auc: float\n"
    )
    (tmp_path / "b.py").write_text(
        "from dataclasses import dataclass\n\n\n@dataclass(frozen=True)\nclass Step:\n    name: str\n"
    )
    assert _shared_fields(tmp_path) == {"budget", "name"}


def test_a_private_name_imported_from_another_module_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\nfrom os import _exit  # not the package's\n\n\n"
        "def _helper():\n    return 1\n\n\ndef run():\n    return _helper()\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a, __name__ as pkg\nfrom .a import _helper, run\n"
        f"from {tmp_path.name}.a import _helper as again\n"
    )
    assert _private_imports(tmp_path) == ["b: .a._helper", f"b: {tmp_path.name}.a._helper"]
