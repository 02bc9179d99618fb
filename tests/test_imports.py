import ast
from pathlib import Path

import pytest

import gridforge

SOURCES = sorted(Path(gridforge.__file__).resolve().parent.glob("*.py"))
# __init__ imports names to re-export them, not to use them
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text())
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(bound) - used) == []


def _loop_names(fn):
    """The names bound by the for statements of a function's own scope.
    Nested functions, lambdas and classes have scopes of their own, and so
    do comprehensions, whose generators are not for statements."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from (n.id for n in ast.walk(node.target)
                        if isinstance(n, ast.Name))
        stack += ast.iter_child_nodes(node)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_loop_rebinds_a_parameter(path):
    # a loop variable named after a parameter overwrites the argument for
    # the rest of the function
    found = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = fn.args
            params = {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p}
            found += [(fn.name, fn.lineno, name)
                      for name in _loop_names(fn) if name in params]
    assert found == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_module_asserts(path):
    # python -O strips assert statements, and every invariant must still
    # raise under it
    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)] == []
