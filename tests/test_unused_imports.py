"""Every name a ``src/repro`` module imports is read.

No linter ships with the project, so this is the check. A name counts
as read when the module reads it, lists it in ``__all__``, or another
module imports it from there (a re-export). Package ``__init__``
modules are exempt: their imports are re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_every_import_is_read():
    trees = {
        ".".join(path.relative_to(SRC).with_suffix("").parts): (
            path, ast.parse(path.read_text())
        )
        for path in sorted(SRC.rglob("*.py"))
    }
    reexported = {
        (node.module, alias.name)
        for _, tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
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
