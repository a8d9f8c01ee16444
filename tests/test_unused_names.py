"""No module of the package defines a name that nothing reads.

A def, class or assignment at the top level of a module must be referenced
from a module of the package or from perfbench/*.py, whose workloads drive
the library. The ast finds the references: a name read, an attribute, a
name imported from another module, and a string that is an identifier
(perfbench's traced run names the functions it patches as strings).
__init__.py is left out on both sides: its imports list the package's
public names, and listing a name does not use it. A name that only the
tests read belongs in tests/helpers.py.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "abelsplit"


def defined_names(source: str) -> list[str]:
    """The names a def, class or assignment binds at source's top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for target in targets for n in ast.walk(target)
                      if isinstance(n, ast.Name)]
    return names


def referenced_names(source: str) -> set[str]:
    """Every name source reads, reads as an attribute, imports or spells
    as an identifier string."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.add(node.value)
    return found


def test_every_module_level_name_is_referenced():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    readers = modules + sorted((ROOT / "perfbench").glob("*.py"))
    assert len(modules) > 1 and len(readers) > len(modules)
    read = set().union(*(referenced_names(path.read_text(encoding="utf-8"))
                         for path in readers))
    unread = [f"{path.name}: {name}" for path in modules
              for name in defined_names(path.read_text(encoding="utf-8")) if name not in read]
    assert unread == []
