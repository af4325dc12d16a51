"""Package surface: every exported name is read somewhere in the library."""

import ast
from pathlib import Path

import excesslab

SRC = Path(excesslab.__file__).parent


def _names_read(path: Path) -> set[str]:
    """The names a module loads, reads as attributes or imports by name."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_export_has_a_reader_in_the_library():
    # An export that only tests read belongs in tests/conftest.py.
    modules = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    assert modules
    read = set().union(*map(_names_read, modules))
    assert [name for name in excesslab.__all__ if name not in read] == []
