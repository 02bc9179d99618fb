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


def _basis_constructions(tree):
    """(enclosing class and function, line) of each call that makes a
    CanonicalBasis other than by `_replace`: CanonicalBasis(...),
    CanonicalBasis._make(...) or, inside the class, cls(...)."""
    found = []

    def named(node):
        return getattr(node, "id", getattr(node, "attr", None))

    def makes(func, in_class):
        return (named(func) == "CanonicalBasis"
                or named(func) == "_make" and named(func.value) ==
                "CanonicalBasis"
                or in_class and named(func) == "cls")

    def visit(node, where, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = f"{where}.{child.name}" if where else child.name
                visit(child, inner, in_class or (
                    isinstance(child, ast.ClassDef)
                    and child.name == "CanonicalBasis"))
                continue
            if isinstance(child, ast.Call) and makes(child.func, in_class):
                found.append((where, child.lineno))
            visit(child, where, in_class)

    visit(tree, "", False)
    return found


def test_a_canonical_basis_has_one_writer():
    # the rule sees each way of making one outside the writer
    sample = ast.parse("def f(b):\n    return (CanonicalBasis(1), "
                       "m.CanonicalBasis._make(b))\n"
                       "class CanonicalBasis:\n    def g(cls):\n"
                       "        return cls(2)\n")
    assert _basis_constructions(sample) == [
        ("f", 2), ("f", 2), ("CanonicalBasis.g", 5)]
    # in the package only `CanonicalBasis.of` makes one; the builders call
    # it and views are its `_replace`s
    found = [(path.stem, where) for path in SOURCES
             for where, _ in _basis_constructions(ast.parse(path.read_text()))]
    assert found == [("basis", "CanonicalBasis.of")]


def test_only_the_basis_module_reads_stored_tails():
    # the tail format is known only to the module that writes and reads it
    found = [(path.stem, node.lineno) for path in SOURCES
             if path.name != "basis.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "stored"]
    assert found == []
