"""gridforge benchmark: one workload, cold processes, exact checks.

    python3 perfbench/run.py --workload sweep|deep|classify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  Each request stream runs in a
fresh child interpreter with cold caches and no bytecode cache, one child
at a time, with a single client issuing requests in a closed loop.  Streams
are repeated (same seed, same stream) until S seconds have been measured;
timings are medians over streams.  Set-up is also timed in SETUP_SAMPLES
extra children that only set up.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and one
traced stream and prints the per-layer metrics of the traced one, plus the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it gives the
per-stream samples and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# Reported times are host-normalized (see README.md): each request's latency
# is scaled by REF_SLICE_S / s, where s is the mean reference-slice time
# measured just before and after it, so a reported time is the time on a host
# that runs a slice in REF_SLICE_S.
REF_SLICE_S = 0.003
# Every run must end within 180 s; no stream is started that the last one
# suggests would end after this many seconds.
BUDGET_S = 160.0


class BenchError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        # An empty, never-written cache location: every module, the standard
        # library's included, is compiled from source in every child, so
        # set-up time does not depend on which .pyc files exist.
        PYTHONPYCACHEPREFIX=str(HERE / ".no-bytecode"),
        PYTHONHASHSEED="0",
    )
    return env


def run_child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    env = _child_env()
    env["GRIDFORGE_BENCH_SPAWN"] = repr(_now())
    proc = subprocess.Popen(
        [sys.executable, "-B", str(HERE / "child.py"), workload, str(seed),
         mode],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - _now()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{mode} child for {workload} ran out of time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child for {workload} exited with "
                         f"code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, p: int) -> float:
    """The p-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[p - 1]


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    started = _now()
    deadline = started + BUDGET_S
    setup_children = [] if trace else [
        run_child(workload, seed, "setup", deadline)
        for _ in range(SETUP_SAMPLES)]
    if trace:
        plain = run_child(workload, seed, "plain", deadline)
        traced = run_child(workload, seed, "traced", deadline)
        streams = [plain, traced]
    else:
        streams = []
        t0 = _now()
        while True:
            s0 = _now()
            streams.append(run_child(workload, seed, "plain", deadline))
            last = _now() - s0
            if _now() - t0 >= seconds or _now() + last > deadline:
                break
    attempted = sum(len(s["latencies"]) for s in streams)
    failures = [f for s in streams for f in s["failures"]]

    def norm(child):
        return REF_SLICE_S / child["slice_s"]

    def scaled(stream):
        """The stream's request latencies, each host-normalized."""
        return [t * REF_SLICE_S / s for t, s in
                zip(stream["latencies"], stream["request_slice_s"])]

    if trace:
        metrics = {name: {"value": v * norm(traced) if u == "s" else v,
                          "unit": u}
                   for name, (v, u) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": sum(scaled(traced)) - sum(scaled(plain)), "unit": "s"}
        metrics["process.peak_rss_mb"] = {"value": plain["peak_rss_mb"],
                                          "unit": "MB"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(
                c["setup_s"] * norm(c) for c in setup_children + streams),
                "unit": "s"},
            "total_s": {"value": statistics.median(
                sum(scaled(s)) for s in streams), "unit": "s"},
        }
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "machine": machine(),
        "streams": len(streams),
        "requests_per_stream": len(streams[0]["latencies"]),
        "latency_ms": [{f"p{p}": 1e3 * percentile(scaled(s), p)
                        for p in (50, 90, 95, 98)} for s in streams],
        "peak_rss_mb": [s["peak_rss_mb"] for s in streams],
        "raw_stream_total_s": [s["total_s"] for s in streams],
        "raw_setup_s": [c["setup_s"] for c in setup_children + streams],
        "slice_s": [c["slice_s"] for c in setup_children + streams],
        "fail_frac": len(failures) / attempted,
        "failures": failures[:10],
        "wall_s": _now() - started,
    }
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "gridforge" / "__init__.py").is_file():
        print(f"error: no gridforge sources under {ROOT / 'src'}; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    try:
        detail, result = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
