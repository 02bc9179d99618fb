"""One cold benchmark process: set up gridforge, answer one request stream
as a closed loop with a single client, and print one JSON line of results.

    python3 -B perfbench/child.py <workload> <seed> setup|plain|traced

`run.py` starts it with GRIDFORGE_BENCH_SPAWN set to the CLOCK_MONOTONIC
reading taken just before the process was started, so that set-up time
includes the interpreter's own start.  In `setup` mode the process exits
once set-up is done.
"""

import gc
import os
import sys
import time

# A reference slice is a fixed exact-arithmetic computation, shaped like the
# program's hot path (Fraction products and sums with growing denominators)
# but independent of it.  Timing slices between requests measures how fast
# the host is running this process right now.
SLICE_PERIOD_S = 0.25


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_slice() -> float:
    """Seconds one reference slice takes now, with the collector paused so
    that the program's heap size does not enter the measurement."""
    from fractions import Fraction

    terms = [Fraction(i * i + 1, i + 2) for i in range(30)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for x in terms:
            for y in terms:
                acc += x * y
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference slices taken between requests, at most every
    SLICE_PERIOD_S, so that each request has a slice at most that old
    from before it and one from after it."""

    def __init__(self):
        self.samples = []
        self._last = None

    def sample(self, force=False) -> float:
        """Take a slice if one is due (or forced); the latest slice time."""
        now = time.perf_counter()
        if force or self._last is None or now - self._last >= SLICE_PERIOD_S:
            self.samples.append(reference_slice())
            self._last = time.perf_counter()
        return self.samples[-1]

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)


def serve(requests, issue, check, on_request=None):
    """Issue each request after the previous one is answered and checked.

    Returns the per-request latencies (the issuing call only, not the
    check) and one message per failed request.  A request fails if it
    raises, of any exception type, or if its answer fails the check.
    """
    latencies, failures = [], []
    for i, req in enumerate(requests):
        if on_request is not None:
            on_request(i)
        error = None
        t0 = time.perf_counter()
        try:
            answer = issue(req)
        except Exception as exc:
            error = exc
        latencies.append(time.perf_counter() - t0)
        if error is None:
            try:
                check(req, answer)
            except Exception as exc:
                error = exc
        if error is not None:
            failures.append(f"{req}: {type(error).__name__}: {error}")
    return latencies, failures


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]

    import gridforge  # noqa: F401  (set-up is defined by this import)
    from gridforge.leveldata import ALL_LEVELS, get_level

    for N in ALL_LEVELS:
        get_level(N)
    setup_s = _now() - float(os.environ["GRIDFORGE_BENCH_SPAWN"])

    import json
    import resource

    host = HostSpeed()
    result = {"setup_s": setup_s}
    if mode == "setup":
        for _ in range(5):
            host.sample(force=True)
    else:
        import workloads
        from gridforge import cli  # noqa: F401  (imported outside any request)

        tracer = None
        if mode == "traced":
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        reference = workloads.load_reference()
        check = workloads.CHECK[workload]
        requests = workloads.stream(workload, seed)

        before = []

        def on_request(i):
            before.append(host.sample())
            if tracer is not None:
                tracer.request = i

        latencies, failures = serve(
            requests, workloads.ISSUE[workload],
            lambda req, answer: check(req, answer, reference), on_request)
        after = before[1:] + [host.sample(force=True)]
        result.update(
            latencies=latencies, failures=failures,
            # per request: the mean of the slices just before and after it
            request_slice_s=[(a + b) / 2 for a, b in zip(before, after)],
            total_s=sum(latencies),
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer)
    result["slice_s"] = host.mean()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
