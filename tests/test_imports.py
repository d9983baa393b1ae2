"""operadlab is stdlib-only: every import in the package is relative,
names operadlab itself, or names a standard-library module; and every
name a module imports is used there."""

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


# the one unused import kept: bench/test_bench.py checks that the tracer patches it there
KEPT_UNUSED = {"complexes.py": ["kernel_basis"]}


def _unused_imports(path: Path) -> list:
    """The names the module's imports bind and nothing in it reads, in
    import order; ``from __future__`` binds nothing."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == KEPT_UNUSED.get(path.name, [])


def test_the_package_is_found():
    assert {"__init__.py", "linalg.py"} <= {p.name for p in PACKAGE.glob("*.py")}
