"""Regenerate perfbench/reference.json: the exact answers every benchmark
request is checked against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Each distinct request of every workload is answered once, so the reference
covers every seed.  It records, per request key: the digest of the sweep's
printed grid, the digest of the deep grid's leading block, and the result of
the empirical duality check of classify.  Run it only on a commit whose
answers are known to be right; it refuses to record a nonzero duality
residual or a classification that contradicts the theorem list.  Each deep
level runs in its own process, so the program's caches stay small.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads as w


def sweep() -> dict:
    out = {}
    for req in w.stream("sweep", 0):
        code, text, err = w.issue_sweep(req)
        if code != 0:
            raise SystemExit(f"sweep {req}: exit code {code}: {err}")
        doc = json.loads(text)
        if doc["duality_residual"] != "0":
            raise SystemExit(f"sweep {req}: residual {doc['duality_residual']}")
        out[w.key(req)] = w.sweep_digest(doc)
    return out


def deep_level(N: int) -> dict:
    out = {}
    for k in w.WEIGHTS:
        grid, residual = w.issue_deep((N, k, w.DEEP_MIN_COUNT))
        if residual != 0:
            raise SystemExit(f"deep {(N, k)}: residual {residual}")
        out[w.key((N, k))] = w.deep_digest(grid)
    return out


def deep() -> dict:
    out = {}
    for N in sorted({N for levels in w.DEEP_CLASSES for N in levels}):
        text = subprocess.run(
            [sys.executable, __file__, "deep-level", str(N)],
            check=True, capture_output=True, text=True).stdout
        out.update(json.loads(text))
    return out


def classify() -> dict:
    from gridforge.traceops import theorem_list_preserved

    out = {}
    for req in w.stream("classify", 0):
        c, empirical = w.issue_classify(req)
        if c.preserved != theorem_list_preserved(*req) or (
                empirical is not None and empirical != c.preserved):
            raise SystemExit(f"classify {req}: inconsistent answer")
        out[w.key(req)] = empirical
    return out


def main(argv) -> int:
    if argv[:1] == ["deep-level"]:
        print(json.dumps(deep_level(int(argv[1]))))
        return 0
    ref = {"sweep": sweep(), "deep": deep(), "classify": classify()}
    with open(w.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
