"""Every ``src/repro`` module has a reader outside the tests.

A module that only tests import serves no table, claim or check, so it
goes. A package ``__init__`` re-export is not a reader, but a name read
through the package counts for the submodule the ``__init__`` takes it
from. Package ``__init__`` and ``__main__`` modules need no reader.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _imports(tree):
    """``(module, name)`` per imported name; ``name`` is None for ``import m``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.module, alias.name) for alias in node.names)


def test_every_module_has_a_reader_outside_the_tests():
    trees, packages = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
            packages.add(".".join(parts))
        trees[".".join(parts)] = ast.parse(path.read_text())
    origin = {
        (package, name): module
        for package in packages
        for module, name in _imports(trees[package])
    }
    read = set()
    for reader, tree in trees.items():
        if reader in packages:
            continue
        for module, name in _imports(tree):
            read.add(origin.get((module, name), module))
            read.add(f"{module}.{name}")  # ``from package import module``
    exempt = packages | {name for name in trees if name.endswith(".__main__")}
    unread = sorted(set(trees) - exempt - read)
    assert not unread, f"no module outside tests/ imports {unread}"
