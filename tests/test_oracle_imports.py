"""The oracles in tests/helpers.py share no private code with the library.

An oracle that imports a private library name may run the very code it is
meant to check. The natural-order search is the one exception, and its
docstring says why: it runs the library's row source and engine
(_row_source, _Budget, _exact_covers) to check the branch order and the
rule fixing 1 in S.
"""

import ast
from pathlib import Path

HELPERS = Path(__file__).resolve().parent / "helpers.py"
ALLOWED = {"_Budget", "_exact_covers", "_row_source"}


def test_helpers_import_no_other_private_library_name():
    tree = ast.parse(HELPERS.read_text(encoding="utf-8"))
    private, plain = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("abelsplit"):
            private += [f"{node.module}.{a.name}" for a in node.names
                        if a.name.startswith("_") and a.name not in ALLOWED]
        elif isinstance(node, ast.Import):
            plain += [a.name for a in node.names if a.name.startswith("abelsplit")]
    # a plain import would reach private names by attribute, out of sight
    assert (private, plain) == ([], [])
