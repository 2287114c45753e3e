"""Source rules that CI enforces."""

import ast
from pathlib import Path

import deontic

SOURCES = sorted(Path(deontic.__file__).parent.glob("**/*.py"))


def test_no_assert_statements_in_the_package():
    # Checks in the package raise named errors: ``python -O`` strips ``assert``.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
