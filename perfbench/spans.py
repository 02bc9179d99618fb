"""Spans around calls into gridforge's public functions, for the traced run.

`install` wraps each function listed below.  A span records its name, its
parent span, the request it served, its start and end, and (for a few
functions) the call's key.  The QSeries arithmetic is called far too often
for one span per call, so those calls are aggregated instead: per operation
a call count and self time, and per enclosing span the time they took.

A span's self time is its duration minus the part of it that its child
spans cover, minus the QSeries time directly under it.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

perf = time.perf_counter

# (module, function, span name)
FUNCTIONS = (
    ("gridforge.generators", "eisenstein", "generators.eisenstein"),
    ("gridforge.generators", "serre_derivative", "generators.serre_derivative"),
    ("gridforge.generators", "j_function", "generators.j_function"),
    ("gridforge.leveldata", "cusp_killer", "leveldata.cusp_killer"),
    ("gridforge.seedsynth", "synthesize_seed", "seedsynth.synthesize_seed"),
    ("gridforge.seedsynth", "build_family", "seedsynth.build_family"),
    ("gridforge.seedsynth", "row_reduce", "seedsynth.row_reduce"),
    ("gridforge.basis", "hauptmodul_series", "basis.hauptmodul_series"),
    ("gridforge.basis", "first_element", "basis.first_element"),
    ("gridforge.basis", "build_basis", "basis.build_basis"),
    ("gridforge.basis", "build_grid", "basis.build_grid"),
    ("gridforge.basis", "duality_residual", "basis.duality_residual"),
    ("gridforge.traceops", "classify", "traceops.classify"),
    ("gridforge.traceops", "trace", "traceops.trace"),
    ("gridforge.traceops", "empirical_preserves", "traceops.empirical_preserves"),
    ("gridforge.traceops", "_basis_for", "traceops._basis_for"),
    ("gridforge.cli", "run", "cli.run"),
)
# (module, class, method, span name); every eta-quotient expansion, including
# eta_quotient_expand, goes through EtaQuotient.expand.
METHODS = (
    ("gridforge.generators", "EtaQuotient", "expand", "generators.eta_expand"),
)
# Arguments that make up a call's key, for counting distinct keys.
KEY_ARGS = {"basis.first_element": 3, "seedsynth.synthesize_seed": 2}
# QSeries operation -> method
QSERIES_OPS = {"mul": "__mul__", "add": "__add__", "neg": "__neg__",
               "scale": "scale", "inverse": "inverse", "pow": "__pow__"}


@dataclass
class Span:
    name: str
    parent: int | None
    request: int | None
    start: float
    end: float = 0.0
    qseries_s: float = 0.0   # QSeries time directly under this span
    untimed_s: float = 0.0   # the tracer's own bookkeeping under this span
    key: tuple | None = None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    request: int | None = None
    _open: list = field(default_factory=list)     # indices into spans
    _qframes: list = field(default_factory=list)  # [start, covered] per op
    # op -> [calls, self seconds]
    qseries: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0]))
    coeff_products: int = 0

    def wrap(self, name, fn):
        nargs = KEY_ARGS.get(name)

        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None,
                        self.request, 0.0,
                        key=tuple(args[:nargs]) if nargs else None)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf()
                self._open.pop()

        traced.__wrapped__ = fn
        return traced

    def wrap_qseries(self, op, fn):
        stats = self.qseries[op]
        frames = self._qframes

        def traced(*args):
            untimed = 0.0
            if op == "mul":
                t = perf()
                self.coeff_products += _products(*args)
                untimed = perf() - t
            frame = [perf(), 0.0]
            frames.append(frame)
            try:
                return fn(*args)
            finally:
                end = perf()
                frames.pop()
                incl = end - frame[0]
                stats[0] += 1
                stats[1] += incl - frame[1]
                if frames:
                    frames[-1][1] += incl + untimed
                elif self._open:
                    span = self.spans[self._open[-1]]
                    span.qseries_s += incl
                    span.untimed_s += untimed

        traced.__wrapped__ = fn
        return traced


def _products(a, b) -> int:
    """Coefficient products a series product forms, computed from the
    operands' term counts (an upper bound: terms beyond the product's
    precision are skipped)."""
    from gridforge.qseries import QSeries

    if not isinstance(b, QSeries):
        return 0
    return len(a.items()) * len(b.items())


def install(tracer: Tracer):
    """Wrap every listed function, in every gridforge module that binds it.

    `from m import f` copies f into the importing module, so patching only
    the defining module would let calls through the copies escape the
    trace.  Raises if any binding of an original survives.
    """
    for mod, _, _ in FUNCTIONS:
        importlib.import_module(mod)
    modules = [m for name, m in list(sys.modules.items())
               if name == "gridforge" or name.startswith("gridforge.")]
    originals = []
    for mod, attr, name in FUNCTIONS:
        fn = getattr(sys.modules[mod], attr)
        originals.append(fn)
        wrapped = tracer.wrap(name, fn)
        for m in modules:
            for binding, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, binding, wrapped)
    for mod, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules[mod], cls_name)
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
    from gridforge.qseries import QSeries
    for op, attr in QSERIES_OPS.items():
        setattr(QSeries, attr, tracer.wrap_qseries(op, getattr(QSeries, attr)))
    for m in modules:
        for binding, value in vars(m).items():
            if any(value is fn for fn in originals):
                raise RuntimeError(f"{m.__name__}.{binding} escaped tracing")


# -- aggregation -----------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals
    (clipped to the span), its direct QSeries time and tracer bookkeeping."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = union_length(
            (max(a, s.start), min(b, s.end)) for a, b in children[i]
            if min(b, s.end) > max(a, s.start))
        out.append(s.end - s.start - covered - s.qseries_s - s.untimed_s)
    return out


def _has_ancestor(spans, i, name) -> bool:
    p = spans[i].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics, by name, as (value, unit)."""
    spans = tracer.spans
    own = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(own[i] for i in by_name[name])

    def incl_s(name):
        # outermost calls only, so recursion is not counted twice
        return sum(spans[i].end - spans[i].start for i in by_name[name]
                   if not _has_ancestor(spans, i, name))

    m = {}
    for op in QSERIES_OPS:
        n, s = tracer.qseries.get(op, (0, 0.0))
        m[f"qseries.{op}.calls"] = (n, "count")
        m[f"qseries.{op}.self_s"] = (s, "s")
    m["qseries.mul.coeff_products"] = (tracer.coeff_products, "count")

    child_names = defaultdict(set)
    for s in spans:
        if s.parent is not None:
            child_names[s.parent].add(s.name)
    bb = by_name["basis.build_basis"]
    builds = sum(1 for i in bb if "basis.first_element" in child_names[i])
    # first_element and hauptmodul_series are its only traced children
    recursion = sum(own[i] + spans[i].qseries_s for i in bb)
    m["basis.recursion_s"] = (recursion, "s")
    m["basis.build_basis.calls"] = (len(bb), "count")
    m["basis.build_basis.builds"] = (builds, "count")
    m["basis.build_basis.hit_ratio"] = (
        (len(bb) - builds) / len(bb) if bb else 0.0, "ratio")
    fe = by_name["basis.first_element"]
    m["basis.first_element.calls"] = (len(fe), "count")
    m["basis.first_element.distinct_keys"] = (
        len({spans[i].key for i in fe}), "count")
    m["basis.first_element.incl_s"] = (incl_s("basis.first_element"), "s")
    m["basis.hauptmodul_series.incl_s"] = (
        incl_s("basis.hauptmodul_series"), "s")
    m["basis.duality_residual.self_s"] = (
        self_s("basis.duality_residual"), "s")

    elim = sum(1 for i in by_name["seedsynth.build_family"]
               if _has_ancestor(spans, i, "seedsynth.synthesize_seed"))
    seeds = {spans[i].key for i in by_name["seedsynth.synthesize_seed"]}
    m["seedsynth.eliminations"] = (elim, "count")
    m["seedsynth.useful_ratio"] = (len(seeds) / elim if elim else 0.0,
                                   "ratio")
    m["seedsynth.synthesize_seed.calls"] = (
        calls("seedsynth.synthesize_seed"), "count")
    m["seedsynth.synthesize_seed.incl_s"] = (
        incl_s("seedsynth.synthesize_seed"), "s")
    m["seedsynth.row_reduce.incl_s"] = (incl_s("seedsynth.row_reduce"), "s")

    for name in ("generators.eisenstein", "generators.eta_expand",
                 "generators.serre_derivative", "generators.j_function",
                 "leveldata.cusp_killer"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.incl_s"] = (incl_s(name), "s")
    for name in ("traceops.trace", "traceops.empirical_preserves",
                 "traceops._basis_for"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["cli.run.self_s"] = (self_s("cli.run"), "s")
    return m
