"""No module of the package imports a name it does not use.

No linter is a dependency, so this is pyflakes' F401 rule, from the ast:
a name bound by an import counts as used when it is read anywhere in the
module. An import whose lines carry "# noqa: F401" is kept on purpose,
and __future__ imports switch on features. __init__.py is left out: its
imports are the package's public names.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "abelsplit"


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, each as 'line: name'."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in read:
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_unused_imports_finds_what_is_not_read():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import json as j\n"
              "from typing import (  # noqa: F401\n    Any)\n"
              "from math import gcd, inf\n"
              "def f(x: inf):\n    return os.sep\n")
    assert unused_imports(source) == ["3: j", "6: gcd"]


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in modules if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
