"""No module of the package imports a name it does not use.

No linter is a dependency, so this is pyflakes' F401 rule, from the ast:
a name bound by an import counts as used when it is read anywhere in the
module, and __future__ imports switch on features. An import whose lines
carry "# noqa: F401" may bind a name the module never reads only if
perfbench's traced() patches that name on the module, which is why the
module imports it. __init__.py is left out: its imports are the
package's public names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "abelsplit"


def traced_names() -> dict[str, set[str]]:
    """The names that perfbench/workloads.py's traced() patches, by the
    file name of their module: from each ("abelsplit.<module>", "<name>",
    ...) tuple in the function, read with the ast."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    traced = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "traced")
    names: dict[str, set[str]] = {}
    for node in ast.walk(traced):
        if isinstance(node, ast.Tuple) and len(node.elts) == 3:
            module, name = node.elts[:2]
            if (isinstance(module, ast.Constant) and isinstance(name, ast.Constant)
                    and module.value.startswith("abelsplit.")):
                names.setdefault(module.value.removeprefix("abelsplit.") + ".py",
                                 set()).add(name.value)
    return names


def unused_imports(source: str, traced: set[str] | frozenset[str] = frozenset()) -> list[str]:
    """The names that source imports and never reads, each as 'line: name',
    but for a name of traced on an import marked "# noqa: F401"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        marked = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in read and not (marked and name in traced):
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_unused_imports_finds_what_is_not_read():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import json as j\n"
              "from typing import (  # noqa: F401\n    Any, Callable)\n"
              "from math import gcd, inf\n"
              "def f(x: inf):\n    return os.sep\n")
    assert unused_imports(source, {"Any", "Callable", "gcd"}) == ["3: j", "6: gcd"]
    # the marker keeps only the traced names of its own import
    assert unused_imports(source, {"Any"}) == ["3: j", "4: Callable", "6: gcd"]
    assert unused_imports(source) == ["3: j", "4: Any", "4: Callable", "6: gcd"]


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    traced = traced_names()
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"),
                                       traced.get(path.name, set()))
             for path in modules if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
