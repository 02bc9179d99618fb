"""Run the seed search on every (N, k) up to a weight and report its reads.

    PYTHONPATH=src python3 tools/seed_sweep.py [MAX_WEIGHT]

For each level N of the registry and each even k in [2, MAX_WEIGHT]
(default 12) with v_k(N) >= 0, the search `reduce_family` is run at the
least precision it accepts, v + 1, and its seed is checked against the
registry by `seed_of`.  The family's members are the same forms at every
precision, and the elimination reads only q^-J .. q^v, so the counts do
not depend on it.  One line `N k v members read rank seconds` is printed
per case: `members` is the family's size, `read` the number of members
whose row the elimination read before it stopped, `rank` its number of
pivots.  The search succeeds when it raises nothing and its rank is
J + v + 1, a pivot at every exponent of the window; at the first (N, k)
where it does not, the tool names it and exits 1.  At MAX_WEIGHT 12 the
largest families, at (12, 12) and (18, 12), have about 1.5 million
members and need some 4 GB.
"""

from __future__ import annotations

import sys
import time
from unittest import mock

from gridforge import seedsynth
from gridforge.leveldata import ALL_LEVELS, v_of
from gridforge.seedsynth import (POLE_BOUND, SynthesisError, reduce_family,
                                 seed_of)


class _Counted:
    """A member series that counts the reads of its numerator row."""

    def __init__(self, series, reads: list[int]):
        self.series, self.reads = series, reads
        self.denominator = series.denominator

    def numerators(self, lo: int, hi: int):
        self.reads[0] += 1
        return self.series.numerators(lo, hi)


def _search(N: int, k: int, v: int) -> tuple[int, int, int]:
    """The family's size, the members read and the rank of one search."""
    reads = [0]
    row_reduce = seedsynth.row_reduce

    def counted(members, e_min, e_cap):
        wrapped = ((label, _Counted(s, reads)) for label, s in members)
        return row_reduce(wrapped, e_min, e_cap)

    with mock.patch.object(seedsynth, "row_reduce", counted):
        reduced = reduce_family(N, k, v + 1)
    seed_of(reduced, v + 1)
    fam, pivots = reduced
    return len(fam.members), reads[0], len(pivots)


def main(argv: list[str]) -> int:
    max_weight = int(argv[0]) if argv else 12
    for N in ALL_LEVELS:
        for k in range(2, max_weight + 1, 2):
            v = v_of(N, k)
            if v < 0:
                continue
            start = time.perf_counter()
            try:
                members, read, rank = _search(N, k, v)
            except SynthesisError as err:
                print(f"search failed at level {N} weight {k}: {err}")
                return 1
            print(f"{N} {k} {v} {members} {read} {rank} "
                  f"{time.perf_counter() - start:.2f}", flush=True)
            if rank != POLE_BOUND + v + 1:
                print(f"search failed at level {N} weight {k}: rank {rank}, "
                      f"not {POLE_BOUND + v + 1}")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
