"""The benchmark's sweep, deep and classify streams, answered in process
and checked exactly against `perfbench/reference.json` by the benchmark's
own checks.

Every basis a grid prints is built by the walk, read off another basis or
extended in the store, so a change to any builder shows here as a
coefficient digest that differs, not only in a benchmark run; a change to
`classify` or `empirical_preserves` shows as an answer that differs.
"""

import importlib.util
from pathlib import Path

import pytest

from gridforge import qseries

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

SEED = 3


@pytest.mark.parametrize("workload", ["sweep", "deep", "classify"])
def test_a_benchmark_stream_gives_the_reference_answers(workload,
                                                        monkeypatch):
    # one cold store for the whole stream, as in a benchmark child
    monkeypatch.setattr(qseries, "_store", {})
    monkeypatch.setattr(qseries, "_stats", {})
    reference = workloads.load_reference()
    issue, check = workloads.ISSUE[workload], workloads.CHECK[workload]
    requests = workloads.stream(workload, SEED)
    assert len(requests) == {"sweep": 154, "deep": 9,
                             "classify": 528}[workload]
    for request in requests:
        check(request, issue(request), reference)
