"""Every name a ``src/repro`` module imports is read, and has one home.

No linter ships with the project, so this is the check. A name counts
as read when the module reads it, lists it in ``__all__``, or another
module imports it from there (a re-export). A module's ``__all__``
lists only names it defines. A package ``__init__`` imports only names
in its ``__all__``, and each of them is imported through that package
by README, ``examples/``, ``src/``, ``tests/`` or ``benchmarks/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _bound(node):
    """``(name, line)`` per name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        yield (alias.asname or alias.name).split(".")[0], node.lineno


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _defined(tree) -> set[str]:
    """Names the module's top level binds other than by import."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


def _trees() -> dict[str, tuple[Path, ast.Module]]:
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts): (
            path, ast.parse(path.read_text())
        )
        for path in sorted(SRC.rglob("*.py"))
    }


def _imported_from(tree) -> set[tuple[str, str]]:
    return {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _readme_imports() -> set[tuple[str, str]]:
    blocks = re.findall(
        r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S
    )
    return set().union(*(_imported_from(ast.parse(b)) for b in blocks))


def test_every_import_is_read():
    trees = _trees()
    reexported = set().union(*(_imported_from(t) for _, t in trees.values()))
    unused = []
    for module, (path, tree) in trees.items():
        if path.name == "__init__.py":
            continue
        read = _exported(tree) | {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        }
        unused += [
            f"{path.relative_to(SRC)}:{line}: {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name, line in _bound(node)
            if name not in read and (module, name) not in reexported
        ]
    assert not unused, f"imported but never read: {unused}"


def test_all_lists_only_names_the_module_defines():
    stray = []
    for module, (path, tree) in _trees().items():
        homes = _defined(tree)
        if path.name == "__init__.py":
            homes |= {name for node in tree.body
                      if isinstance(node, (ast.Import, ast.ImportFrom))
                      for name, _ in _bound(node)}
        stray += [f"{module}: {name}" for name in _exported(tree) - homes]
    assert not stray, f"__all__ names defined elsewhere: {stray}"


def test_every_package_reexport_has_an_importer():
    """An ``__init__`` re-exports a name only if something outside it
    imports the name through the package."""
    importers = _readme_imports()
    for folder in ("src", "tests", "examples", "benchmarks"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path.name != "__init__.py":
                importers |= _imported_from(ast.parse(path.read_text()))
    unread = []
    for module, (path, tree) in _trees().items():
        if path.name != "__init__.py":
            continue
        package, exported = module.removesuffix(".__init__"), _exported(tree)
        unread += [
            f"{path.relative_to(SRC)}:{line}: {name}"
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name, line in _bound(node)
            if name not in exported or (package, name) not in importers
        ]
    assert not unread, f"re-exported but not imported through it: {unread}"
