"""The package's public names and error classes are the ones its own code uses.

Every name ``nujd/__init__.py`` imports must be read somewhere in ``src/``,
``bench/`` or ``tools/`` outside its own definition, and every exception or
warning class in ``nujd/errors.py`` must be raised, warned or caught in
``src/`` outside ``errors.py``, so that no library code exists only for the
tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ERRORS = ROOT / "src" / "nujd" / "errors.py"


def _public_names() -> set:
    tree = ast.parse((ROOT / "src" / "nujd" / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _error_classes() -> set:
    return {node.name for node in ast.parse(ERRORS.read_text()).body if isinstance(node, ast.ClassDef)}


def _uses(node, owner, found: set) -> None:
    """Add to ``found`` every name read under ``node`` outside the top-level
    definition of that same name (``owner`` is the enclosing one)."""
    if isinstance(node, ast.Name) and node.id != owner:
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr != owner:
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _uses(child, owner, found)


def _used_names(folders=("src", "bench", "tools"), skip=None) -> set:
    found = set()
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path == skip:
                continue
            for node in ast.parse(path.read_text()).body:
                defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
                _uses(node, node.name if defines else None, found)
    return found


def test_every_public_name_is_used_by_the_program():
    unused = _public_names() - _used_names()
    assert not unused, f"public names only the tests use: {sorted(unused)}"


def test_every_error_class_is_used_by_the_package():
    # an import is not a use: the class must be raised, warned or caught
    unused = _error_classes() - _used_names(("src",), skip=ERRORS)
    assert not unused, f"error classes the package never raises, warns or catches: {sorted(unused)}"
