"""Code that only tests use is deleted or moved to tests/oracles.py.

A module-level private name of the package that nothing in the package
refers to, apart from its own definition, is such code.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mlstar"


def _private_definitions(tree):
    """(name, node) for each private name that a module-level statement binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name


def _references(tree):
    """Every name a module loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unused_private_names(package=PACKAGE):
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    used = set()
    for tree in trees.values():
        used.update(_references(tree))
    return sorted(
        f"{module[:-3]}.{name}"
        for module, tree in trees.items()
        for name, _ in _private_definitions(tree)
        if name.startswith("_") and not name.startswith("__") and name not in used
    )


def test_every_private_name_is_used_in_the_package():
    assert unused_private_names() == []


def test_the_guard_sees_an_unused_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_KEPT = 1\n_DEAD = 2\n\n\ndef _helper():\n    return _KEPT\n\n\n"
        "def public():\n    return _helper()\n"
    )
    (tmp_path / "b.py").write_text("from .a import _helper\n\n\n@_helper\ndef f():\n    pass\n")
    assert unused_private_names(tmp_path) == ["a._DEAD"]
