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


def import_time_names(tree):
    """Dotted names imported by statements that run when the module loads.

    Imports inside function bodies run on first call, so they are skipped.
    Relative names keep their leading dots (`from . import x` gives `.x`).
    """
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "." if base.strip(".") else ""
            yield base
            yield from (f"{base}{sep}{alias.name}" for alias in node.names)
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_numpy_loaded_on_use():
    # the exact commands start without numpy: only the float engines in
    # `simulate` load it at import, and nothing loads them before first use
    def loaded(name):
        lazy = ("numpy", ".simulate", "periloc.simulate")
        return next((p for p in lazy if name == p or name.startswith(p + ".")), None)

    found = {
        f"{path.name}:{loaded(name)}"
        for path in Path(periloc.__file__).parent.glob("*.py")
        if path.name != "simulate.py"
        for name in import_time_names(ast.parse(path.read_text(encoding="utf-8")))
        if loaded(name)
    }
    assert sorted(found) == []


def test_no_float_interpolation_in_simulate():
    # the sup engines cut the shifts exactly; interpolating the path at every
    # float shift beside those cuts would bring back float-broken ties
    path = Path(periloc.__file__).parent / "simulate.py"
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr == "interp")
        or (isinstance(node, ast.Name) and node.id == "interp")
        or (isinstance(node, ast.alias) and node.name == "interp")
    ]
    assert found == []
