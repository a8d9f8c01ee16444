"""The Python floor that pyproject.toml declares holds for the package's syntax."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_module_parses_at_the_declared_python_floor():
    # requires-python = ">=3.m": each module must parse with 3.m's grammar
    declared = re.search(r'^requires-python = ">=3\.(\d+)"$',
                         (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    assert declared is not None
    modules = sorted((ROOT / "src" / "abelsplit").glob("*.py"))
    assert ROOT / "src" / "abelsplit" / "__init__.py" in modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, int(declared[1])))
