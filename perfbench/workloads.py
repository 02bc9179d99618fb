"""Request streams of the three workloads, how each request is issued to
gridforge, and the exact check of each answer.

A stream is a pure function of (workload, seed).  The program sees only the
generated requests; everything gridforge-specific is imported inside the
functions that issue or check a request, so the stream can be built without
importing the program.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

WORKLOADS = ("sweep", "deep", "classify")

# The level lists are part of the workload definition, so they are spelled
# out here rather than read from the program under test.
GENUS_ZERO_LEVELS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25)
ALL_LEVELS = (1,) + GENUS_ZERO_LEVELS
WEIGHTS = tuple(range(-10, 12, 2))

SWEEP_COUNT = 20
CLASSIFY_BOX = 12

# deep: closed-form levels only, so no seed is synthesized.  Building a grid
# costs roughly count**3 times a factor that depends on the level (levels
# with large Hauptmodul coefficients cost several times more) and, by up to
# ~50 %, on the weight.  So that the stream's total work hardly depends on
# the seed, the levels are split into cost classes and each class gives
# DEEP_PER_CLASS requests: seed-drawn distinct levels of the class, counts
# that are a permutation of evenly spaced values in [DEEP_MIN_COUNT,
# DEEP_MAX_COUNT], and one weight from each of as many contiguous bands of
# WEIGHTS (stratified sampling).
DEEP_CLASSES = ((1, 2, 3, 5, 6), (4, 8, 12), (9, 16, 18))
DEEP_PER_CLASS = 3
DEEP_MIN_COUNT, DEEP_MAX_COUNT = 60, 100
# Every deep answer is compared on this many leading elements per side, at
# exponents below DEEP_DIGEST_PREC, which every count >= DEEP_MIN_COUNT
# determines; the reference digests are therefore independent of count.
DEEP_DIGEST_ELEMENTS = DEEP_MIN_COUNT
DEEP_DIGEST_PREC = DEEP_MIN_COUNT + 6

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


class Mismatch(Exception):
    """An answer that differs from the exact expected one."""


def stream(workload: str, seed: int) -> list[tuple]:
    """The workload's requests, in the order the seed gives them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deep":
        reqs = []
        n = DEEP_PER_CLASS
        for levels in DEEP_CLASSES:
            counts = [DEEP_MIN_COUNT + round(i * (DEEP_MAX_COUNT - DEEP_MIN_COUNT)
                                             / (n - 1)) for i in range(n)]
            weights = [rng.choice(WEIGHTS[i * len(WEIGHTS) // n:
                                          (i + 1) * len(WEIGHTS) // n])
                       for i in range(n)]
            rng.shuffle(counts)
            rng.shuffle(weights)
            reqs += zip(rng.sample(levels, n), weights, counts)
        rng.shuffle(reqs)
        return reqs
    # sweep and classify go level by level, in a seed-shuffled level order,
    # and within a level in the paper's order (ascending target level, then
    # ascending weight).  A full shuffle would make the seedsynth and basis
    # caches' rebuild count, and with it total_s, vary by +-30 % from seed
    # to seed; level by level, the rebuilds that the paper's own order
    # causes are all still there.
    levels = list(GENUS_ZERO_LEVELS)
    rng.shuffle(levels)
    if workload == "sweep":
        return [(N, k) for N in levels for k in WEIGHTS]
    if workload == "classify":
        return [(N, M, k) for N in levels
                for M in ALL_LEVELS if N % M == 0 for k in WEIGHTS]
    raise ValueError(f"unknown workload {workload!r}")


# -- issuing requests ------------------------------------------------------
#
# Each function is one request: the public calls it makes are all that is
# timed.  Module attributes are looked up at call time, so a traced run's
# wrappers are seen.

def issue_sweep(req):
    from gridforge import cli

    N, k = req
    argv = ["grid", "--level", str(N), "--weight", str(k),
            "--count", str(SWEEP_COUNT), "--check-duality", "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def issue_deep(req):
    from gridforge import basis

    N, k, count = req
    grid = basis.build_grid(N, k, count)
    return grid, basis.duality_residual(grid, count, count)


def issue_classify(req):
    from gridforge import traceops

    N, M, k = req
    return (traceops.classify(N, M, k),
            traceops.empirical_preserves(N, M, k, box=CLASSIFY_BOX))


ISSUE = {"sweep": issue_sweep, "deep": issue_deep, "classify": issue_classify}


# -- exact checks ----------------------------------------------------------

def key(req) -> str:
    return ",".join(str(x) for x in req)


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_digest(doc: dict) -> str:
    """Digest of every coefficient the grid command printed."""
    return _sha([doc["fside"], doc["gside"]])


def deep_digest(grid) -> str:
    """Digest of the leading elements of both sides below a fixed
    exponent, as exact rational strings."""
    sides = []
    for side in (grid.fside, grid.gside):
        sides.append([
            [m, [[e, str(c)] for e, c in side.element(m).items()
                 if e < DEEP_DIGEST_PREC]]
            for m in list(side.indices)[:DEEP_DIGEST_ELEMENTS]])
    return _sha(sides)


def check_sweep(req, answer, ref):
    code, out, err = answer
    if code != 0:
        raise Mismatch(f"exit code {code}: {err.strip()}")
    doc = json.loads(out)
    if doc["duality_residual"] != "0":
        raise Mismatch(f"duality residual {doc['duality_residual']}")
    if sweep_digest(doc) != ref["sweep"][key(req)]:
        raise Mismatch("coefficient digest differs from the reference")


def check_deep(req, answer, ref):
    grid, residual = answer
    if residual != 0:
        raise Mismatch(f"duality residual {residual}")
    N, k, _ = req
    if deep_digest(grid) != ref["deep"][key((N, k))]:
        raise Mismatch("coefficient digest differs from the reference")


def check_classify(req, answer, ref):
    from gridforge.traceops import theorem_list_preserved

    c, empirical = answer
    if c.preserved != theorem_list_preserved(*req):
        raise Mismatch(f"classify says preserved={c.preserved}, "
                       "against the theorem list")
    if empirical is not None and empirical != c.preserved:
        raise Mismatch(f"empirical check says {empirical}, "
                       f"classify says {c.preserved}")
    if empirical != ref["classify"][key(req)]:
        raise Mismatch(f"empirical check gave {empirical}, reference "
                       f"{ref['classify'][key(req)]}")


CHECK = {"sweep": check_sweep, "deep": check_deep, "classify": check_classify}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
