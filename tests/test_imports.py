"""The package's runtime needs only the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "teachsim").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "teachsim"}


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules a file imports; relative imports
    stay inside the package and are left out."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_every_source_file_is_checked():
    assert "core.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library_and_numpy(path):
    assert imported_modules(path) - ALLOWED == set()
