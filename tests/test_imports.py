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


def _stale_iterables(tree):
    """(line, name) of each for statement whose body rebinds a name its
    iterable reads, as in `for j, c in enumerate(row): ... row = ...`: the
    loop goes on over the old value.  Names bound in a nested function,
    lambda, class or comprehension of the body belong to its own scope."""
    found = []
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor)):
            continue
        read = {n.id for n in ast.walk(loop.iter) if isinstance(n, ast.Name)}
        stack = list(loop.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef, ast.ListComp,
                                 ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp)):
                continue
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and node.id in read):
                found.append((loop.lineno, node.id))
            stack += ast.iter_child_nodes(node)
    return sorted(found)


def test_no_loop_rebinds_what_its_iterable_reads():
    # the rule sees a plain, augmented, unpacked and nested-loop rebinding,
    # and no binding of another scope
    sample = ast.parse(
        "for j, c in enumerate(row):\n    row = f(row)\n"
        "for x in xs[n:]:\n    n += 1\n    a, (b, xs) = g()\n"
        "for y in ys:\n    for ys in y:\n        pass\n"
        "for z in zs:\n    h = lambda zs: zs\n    w = [zs for zs in z]\n"
        "    def k(zs):\n        zs = 1\n")
    assert _stale_iterables(sample) == [(1, "row"), (3, "n"), (3, "xs"),
                                        (6, "ys")]
    found = [(path.stem, line, name) for path in SOURCES
             for line, name in _stale_iterables(ast.parse(path.read_text()))]
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


def _series_reads(tree):
    """(method, name) of each use, inside class CanonicalBasis, of the
    name QSeries or of the attributes `element` and `elements`, the ways a
    method of the class can make a series."""
    found = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef)
                and cls.name == "CanonicalBasis"):
            continue
        for stmt in cls.body:
            where = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id == "QSeries":
                    found.append((where, "QSeries"))
                elif (isinstance(node, ast.Attribute)
                      and node.attr in ("element", "elements")):
                    found.append((where, node.attr))
    return sorted(set(found))


def test_a_canonical_basis_makes_a_series_only_in_element():
    # the rule sees a series made in any other method of the class, and
    # nothing outside it
    sample = ast.parse(
        "class CanonicalBasis:\n"
        "    def __eq__(self, other):\n"
        "        return self.elements == other.elements\n"
        "    def numerators(self, m):\n"
        "        return self.element(m).numerators(0, 1)\n"
        "    def head(self):\n        return QSeries.one(self.prec)\n"
        "class Other:\n"
        "    def f(self, b):\n        return QSeries(b.element(0))\n")
    assert _series_reads(sample) == [
        ("__eq__", "elements"), ("head", "QSeries"), ("numerators", "element")]
    # so equality and window reads stay on the tails: only `element` makes
    # a series, and only `elements` reads it
    found = _series_reads(ast.parse(
        (Path(gridforge.__file__).parent / "basis.py").read_text()))
    assert found == [("element", "QSeries"), ("elements", "element")]


def test_only_the_basis_module_reads_stored_tails():
    # the tail format is known only to the module that writes and reads it
    found = [(path.stem, node.lineno) for path in SOURCES
             if path.name != "basis.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "stored"]
    assert found == []


def _handlers(tree, name):
    """The exception types caught by each outermost try statement of
    function `name`, one list per statement, a tuple clause as a tuple of
    names; a try inside another, or in a nested scope, is not one of
    them."""
    def spelled(node):
        if isinstance(node, ast.Tuple):
            return tuple(ast.unparse(e) for e in node.elts)
        return node and ast.unparse(node)

    def outermost(nodes):
        for node in nodes:
            if isinstance(node, ast.Try):
                yield node
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.Lambda, ast.ClassDef)):
                yield from outermost(ast.iter_child_nodes(node))

    return [[spelled(h.type) for h in stmt.handlers]
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == name
            for stmt in outermost(fn.body)]


def test_one_rule_maps_each_exception_to_its_exit_code():
    # the rule sees a tuple clause, a bare one, the order of clauses and a
    # try inside a loop, and no try inside another or in a nested function
    sample = ast.parse(
        "def run():\n    try:\n        try:\n            f()\n"
        "        except KeyError:\n            pass\n"
        "    except (SynthesisError, IndexError):\n        pass\n"
        "    except ValueError:\n        pass\n"
        "    except Exception:\n        pass\n"
        "def run_all():\n    for fn in fns:\n        try:\n            fn()\n"
        "        except AssertionError:\n            pass\n"
        "        except:\n            pass\n"
        "    def inner():\n        try:\n            h()\n"
        "        except OSError:\n            pass\n")
    assert _handlers(sample, "run") == [
        [("SynthesisError", "IndexError"), "ValueError", "Exception"]]
    assert _handlers(sample, "run_all") == [["AssertionError", None]]
    # `cli.run` gives a ValueError exit 2 and any other exception exit 3,
    # and `acceptance.run_all` reports any exception as a FAIL line
    package = Path(gridforge.__file__).parent
    assert _handlers(ast.parse((package / "cli.py").read_text()), "run") == [
        ["ValueError", "Exception"]]
    assert _handlers(ast.parse((package / "acceptance.py").read_text()),
                     "run_all") == [["Exception"]]
