"""Acceptance suite: every criterion runs at its exact (zero) tolerance
and prints one pass line.  Run with `pytest -s tests/test_acceptance.py`
to see the lines, or `gridforge selftest` for the standalone runner.
"""

import ast
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gridforge
from gridforge import acceptance, qseries
from gridforge.acceptance import CRITERIA
from gridforge.basis import INF, first_element

SRC = str(Path(gridforge.__file__).resolve().parents[1])


@pytest.mark.parametrize("name,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(name, check):
    t0 = time.perf_counter()
    check()
    print(f"PASS criterion {name} ({time.perf_counter() - t0:.1f}s)")


def test_failing_criterion_fails_under_optimize():
    # -O strips assert statements; a criterion made to fail must still
    # report FAIL, and run_all must return False
    code = """
import sys
from gridforge import acceptance
assert False, "assert statements are not stripped"
acceptance.u_of = lambda N, k: 0
acceptance.CRITERIA = tuple(c for c in acceptance.CRITERIA
                            if c[0] == "4 u/v alignment")
sys.exit(0 if acceptance.run_all() else 5)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 5, proc.stderr
    assert proc.stdout.startswith("FAIL criterion 4 u/v alignment")


def test_library_has_no_assert_statements():
    # -O strips assert statements, so every invariant of the library is an
    # explicit raise
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(gridforge.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_only_basis_and_leveldata_evaluate_combos():
    # basis._eval_form evaluates the registry's Combos (forms, the
    # cusp-killing polynomial, first elements); every other module expands
    # registry factors by basis._factor.  A name, attribute, import or
    # definition of it counts.
    found = sorted({path.name
                    for path in Path(gridforge.__file__).parent.glob("*.py")
                    for node in ast.walk(ast.parse(path.read_text()))
                    if "_eval_form" in {getattr(node, field, None) for field
                                        in ("id", "attr", "name", "asname")}})
    assert found == ["basis.py", "leveldata.py"], found


def test_criterion_9_times_a_cold_build(monkeypatch):
    first_element(25, 2, INF, 30)   # leave something in the store
    seen = []
    real = acceptance.build_basis

    def spy(*args):
        seen.append(dict(qseries._store))
        return real(*args)

    monkeypatch.setattr(acceptance, "build_basis", spy)
    acceptance.criterion_9_performance()
    assert seen == [{}]
