"""Tests of the benchmark harness itself (not of gridforge).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stream_is_a_function_of_the_seed(workload):
    a = workloads.stream(workload, 1)
    assert a == workloads.stream(workload, 1)
    assert a != workloads.stream(workload, 2)


def test_stream_sizes_and_keys():
    assert len(workloads.stream("sweep", 0)) == 154
    assert len(workloads.stream("classify", 0)) == 528
    ref = workloads.load_reference()
    for seed in range(20):
        deep = workloads.stream("deep", seed)
        assert len(deep) == workloads.DEEP_PER_CLASS * len(
            workloads.DEEP_CLASSES)
        assert len({N for N, _, _ in deep}) == len(deep)
        for N, k, count in deep:
            assert workloads.DEEP_MIN_COUNT <= count <= workloads.DEEP_MAX_COUNT
            assert workloads.key((N, k)) in ref["deep"]
    for wl in ("sweep", "classify"):
        assert {workloads.key(r) for r in workloads.stream(wl, 3)} \
            == set(ref[wl])


def _span(name, parent, start, end, qseries_s=0.0):
    return spans.Span(name, parent, 0, start, end, qseries_s)


def test_self_time_is_duration_minus_union_of_children():
    tree = [
        _span("root", None, 0.0, 10.0, qseries_s=0.5),
        _span("a", 0, 1.0, 4.0),
        _span("b", 0, 3.0, 6.0),       # overlaps a
        _span("c", 0, 8.0, 9.0),
        _span("a.x", 1, 2.0, 3.0),     # grandchild: covered by a already
        _span("late", 0, 9.5, 11.0),   # runs past its parent: clipped
    ]
    own = spans.self_times(tree)
    # root: 10 - |[1,6] u [8,9] u [9.5,10]| - 0.5 = 10 - 6.5 - 0.5
    assert own[0] == pytest.approx(3.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)
    assert spans.union_length([]) == 0


def test_wrong_or_raising_answers_count_as_failed(monkeypatch):
    from gridforge import cli

    ref = workloads.load_reference()
    reqs = workloads.stream("sweep", 0)[:4]
    answers = iter([
        (0, json.dumps({"fside": [], "gside": [], "duality_residual": "0"})),
        (0, json.dumps({"fside": [], "gside": [], "duality_residual": "1"})),
        (1, "{}"),
        AssertionError("recursion lost the leading term"),
    ])

    def fake_run(argv):
        a = next(answers)
        if isinstance(a, Exception):
            raise a
        code, text = a
        print(text)
        return code

    monkeypatch.setattr(cli, "run", fake_run)
    latencies, failures = child.serve(
        reqs, workloads.issue_sweep,
        lambda req, answer: workloads.check_sweep(req, answer, ref))
    assert len(latencies) == 4
    assert len(failures) == 4
    assert "digest" in failures[0]
    assert "residual" in failures[1]
    assert "exit code 1" in failures[2]
    assert "AssertionError" in failures[3]


def test_right_answers_pass():
    ref = workloads.load_reference()
    reqs = [r for r in workloads.stream("classify", 0) if r[0] <= 4][:20]
    _, failures = child.serve(
        reqs, workloads.issue_classify,
        lambda req, answer: workloads.check_classify(req, answer, ref))
    assert failures == []


TRACED_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import gridforge, spans
from gridforge import basis, cli, traceops
tracer = spans.Tracer()
spans.install(tracer)
assert gridforge.build_grid is basis.build_grid is cli.build_grid
assert traceops.build_basis is basis.build_basis
cli.run(["grid", "--level", "2", "--weight", "0", "--count", "3",
         "--format", "json"])
traceops.trace(4, 2, -2, "inf", 1)
names = sorted({s.name for s in tracer.spans})
m = {k: v for k, (v, _) in spans.layer_metrics(tracer).items()}
print(json.dumps({"names": names, "metrics": m}))
"""


def test_traced_run_patches_every_binding():
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-B", "-c", TRACED_PROBE, str(BENCH)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    for name in ("cli.run", "basis.build_grid", "basis.build_basis",
                 "basis.first_element", "basis.hauptmodul_series",
                 "traceops.trace", "traceops._basis_for",
                 "generators.eta_expand"):
        assert name in doc["names"]
    m = doc["metrics"]
    assert m["qseries.mul.calls"] > 0 and m["qseries.mul.coeff_products"] > 0
    assert 0 < m["basis.build_basis.builds"] <= m["basis.build_basis.calls"]
    assert m["cli.run.self_s"] > 0
    assert m["seedsynth.eliminations"] == 0
