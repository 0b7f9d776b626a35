"""Rules the library source keeps."""

import ast
from pathlib import Path

import periloc


def library_nodes():
    """(module file name, AST node) for every node of every library module."""
    modules = sorted(Path(periloc.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            yield path.name, node


def test_no_assert_statements():
    # invariants are raised errors: `python -O` strips assert statements
    found = [f"{name}:{node.lineno}" for name, node in library_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_raised_assertion_errors():
    # a broken invariant raises RuntimeError; AssertionError reads as a failed assert
    def raises_assertion_error(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"

    found = [
        f"{name}:{node.lineno}"
        for name, node in library_nodes()
        if isinstance(node, ast.Raise) and node.exc is not None and raises_assertion_error(node)
    ]
    assert found == []
