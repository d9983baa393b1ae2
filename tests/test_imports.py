"""operadlab is stdlib-only: every import in the package is relative,
names operadlab itself, or names a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "operadlab"


def _imported_modules(path: Path):
    """(line, top-level module name or None for a relative import)."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, None if node.level else node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_operadlab(path):
    foreign = [
        (line, name) for line, name in _imported_modules(path)
        if name is not None and name != "operadlab" and name not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_the_package_is_found():
    assert {"__init__.py", "linalg.py"} <= {p.name for p in PACKAGE.glob("*.py")}
