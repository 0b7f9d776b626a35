"""Rules the library source keeps."""

import ast
from pathlib import Path

import periloc


def test_no_assert_statements():
    # invariants are raised errors: `python -O` strips assert statements
    modules = sorted(Path(periloc.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
