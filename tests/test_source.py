"""Source rules that CI enforces."""

import ast
import importlib
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


def test_every_exported_name_is_defined():
    # A stale ``__all__`` entry breaks ``from deontic.<module> import *``.
    missing = []
    for path in SOURCES:
        name = "deontic" if path.stem == "__init__" else f"deontic.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{x}" for x in getattr(module, "__all__", ()) if not hasattr(module, x)]
    assert SOURCES and missing == []
