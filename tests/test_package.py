"""Package surface: every exported name is read somewhere in the library."""

import ast
import re
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


def _public_members(path: Path) -> list[str]:
    """Class.name of every public method and property of every public class
    a module defines: a def in the class body, or a name bound to a
    property() call."""
    members = []
    for cls in ast.parse(path.read_text()).body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                names = [item.name]
            elif isinstance(item, ast.Assign) and isinstance(item.value, ast.Call):
                is_property = getattr(item.value.func, "id", None) == "property"
                names = [t.id for t in item.targets if isinstance(t, ast.Name)] if is_property else []
            else:
                names = []
            members += [f"{cls.name}.{name}" for name in names if not name.startswith("_")]
    return members


def _attributes_read(path: Path) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Attribute)}


def test_every_public_method_has_a_reader_in_the_library_or_benchmark():
    # A method or property that only tests call belongs in tests/conftest.py
    # as a function of the object.
    modules = sorted(SRC.glob("*.py"))
    readers = modules + sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    read = set().union(*map(_attributes_read, readers))
    members = [m for path in modules for m in _public_members(path)]
    assert "ProcessModel.level_tail_mass" in members
    assert [m for m in members if m.split(".")[1] not in read] == []


def test_version_matches_pyproject():
    # Python 3.10 has no tomllib, so the version line is read with a regex.
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    assert excesslab.__version__ == declared
