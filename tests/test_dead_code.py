"""A guard against dead code in the package.

A top-level function, class or constant of a ``src/mtalk`` module, or a
method of one of its classes, is dead when no code of the program names it:
it is named nowhere in ``src/`` (``__init__.py`` and its own definition do
not count) nor in ``perfbench/``, it is not in ``mtalk.__all__``, and it is
not a dunder. Tests do not count as a reader: code that only a test reads
buys the program nothing.

A top-level name counts as named when it is read as a name or an attribute,
imported, or written as a string (the benchmark's tracer names its targets
as strings). A method counts as named when ``.name`` is read, or when the
string ``"Class.name"`` is written. ``HOST_API`` names the few methods
that only a program embedding the package calls.

The check goes by name alone, so it misses a dead method that shares its
name with a live attribute or method of another class: a ``value`` method
next to a live ``.value`` read, say, or a ``model`` property next to a
snapshot's ``model`` field.
"""

from __future__ import annotations

import ast
from pathlib import Path

import mtalk

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "mtalk"

# Methods whose reader is the program that embeds the package, never the
# package itself: a host binds its native factories into a registry it then
# hands to the VM.
HOST_API = frozenset({"NativeRegistry.bind"})


def _trees(root: Path):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(shown name, name, is a method) of the module's top-level functions,
    classes and constants and of its classes' methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, False
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name, False
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, False


def _uses(trees):
    """Names read, attributes read and strings written in trees."""
    names: set[str] = set()
    attrs: set[str] = set()
    strings: set[str] = set()
    for _path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return names, attrs, strings


def dead_definitions() -> list[str]:
    modules = [(p, t) for p, t in _trees(PACKAGE) if p.name != "__init__.py"]
    names, attrs, strings = _uses(modules + list(_trees(REPO / "perfbench")))
    exported = set(mtalk.__all__)
    dead = []
    for path, tree in modules:
        for shown, name, is_method in _definitions(tree):
            if _is_dunder(name) or shown in exported or shown in HOST_API:
                continue
            if is_method:
                used = name in attrs or shown in strings
            else:
                used = name in names or name in attrs or name in strings
            if not used:
                dead.append(f"{path.name}: {shown}")
    return dead


def test_every_definition_in_the_package_has_a_reader():
    assert dead_definitions() == []
