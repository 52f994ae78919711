"""The package's public names are the ones its own code uses.

Every name ``nujd/__init__.py`` imports must be read somewhere in ``src/``,
``bench/`` or ``tools/`` outside its own definition, so that no library
code exists only for the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names the program keeps for the tests: ``cumulant`` is the scalar reference
# the slice tests compare against, ``circularity_coefficient`` the paper's
# estimator that acceptance criterion 6 checks
TEST_ONLY = {"cumulant", "circularity_coefficient"}


def _public_names() -> set:
    tree = ast.parse((ROOT / "src" / "nujd" / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _uses(node, owner, found: set) -> None:
    """Add to ``found`` every name read under ``node`` outside the top-level
    definition of that same name (``owner`` is the enclosing one)."""
    if isinstance(node, ast.Name) and node.id != owner:
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr != owner:
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _uses(child, owner, found)


def _used_names() -> set:
    found = set()
    for folder in ("src", "bench", "tools"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.parse(path.read_text()).body:
                defines = isinstance(node, (ast.FunctionDef, ast.ClassDef))
                _uses(node, node.name if defines else None, found)
    return found


def test_every_public_name_is_used_by_the_program():
    unused = _public_names() - _used_names() - TEST_ONLY
    assert not unused, f"public names only the tests use: {sorted(unused)}"
