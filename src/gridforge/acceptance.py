"""The acceptance suite: nine end-to-end criteria with one pass/fail line
each, runnable via pytest or the command line's `selftest`.

Every comparison is exact; there are no tolerances anywhere.  Checks
raise explicitly, so they hold under `python -O` as well.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub

from gridforge import basis as basis_mod
from gridforge.basis import (
    HAT,
    INF,
    CanonicalBasis,
    build_basis,
    build_grid,
    duality_residual,
)
from gridforge.leveldata import (
    ALL_LEVELS,
    CONFORMANCE,
    GENUS_ZERO_LEVELS,
    certificates,
    get_level,
    registry_dump,
    u_of,
    v_of,
)
from gridforge.qseries import clear_store
from gridforge.seedsynth import synthesize_seed
from gridforge.traceops import (
    classify,
    empirical_preserves,
    genfun_check,
    genfun_closed_form,
    theorem_list_preserved,
    trace,
)

SWEEP_WEIGHTS = tuple(range(-10, 12, 2))


def _require(ok: bool, detail: object = "") -> None:
    """A criterion's check: raise AssertionError (also under -O) if not ok."""
    if not ok:
        raise AssertionError(detail)


def _recursion(N: int, k: int, space: str, count: int,
               prec: int) -> CanonicalBasis:
    """The weight k <= 0 basis by the Hauptmodul recursion, each element
    cut to q^prec once it is built: the oracle that criterion 3 and the
    tests compare the anti-diagonal walk and the transposed sides with."""
    work = prec + count - 1
    psi, first = basis_mod._inputs(N, k, space, count, prec, work)
    # Element j is q^-(m0+j) + sum_y tails[j][y] q^(B+1+y), B the gap bound
    # and m0 = -B, known modulo q^(work-j): each multiplication by psi
    # loses one term.
    tails = [first]
    psi_rev = psi[::-1]
    top = len(psi) - 1
    for i in range(1, count):
        prev = tails[-1]
        # the tail part of psi * element i-1, from q^B on
        conv = [sum(map(mul, prev, psi_rev[top - n:]))
                for n in range(len(prev))]
        # Gap form: clearing q^s with element -s touches only q^s and the
        # tail, so every clearing coefficient is read off the product.
        # Element j leads with q^-(m0+j), where the product's coefficient
        # is psi[i-j], plus the tail's q^B term for j = 0.
        tail = list(map(add, psi[i + 1:], conv[1:]))
        for j in range(i):
            c = psi[i - j] + (conv[0] if j == 0 else 0)
            if c:
                tail = list(map(sub, tail, map(mul, repeat(c), tails[j])))
        tails.append(tail)
    return CanonicalBasis.of(N, k, space, prec, tails)


# The published level-1 grid of weights 0 and 2: LEVEL_ONE_GRID[m-1][n-1]
# is a(m, n), the coefficient of q^n in f_{0,m}; g_{2,n} has -a(m, n) at
# q^m.
LEVEL_ONE_GRID = (
    (196884, 21493760, 864299970),
    (42987520, 40491909396, 8504046600192),
    (2592899910, 12756069900288, 9529320689550144),
)


def _require_level_one_grid(f_of, g_of) -> None:
    """f_of(m) for m in 1..3 is q^-m plus row m of LEVEL_ONE_GRID at q^1..q^3
    and g_of(n) is q^-n minus its column n, each read once."""
    for i, row in enumerate(LEVEL_ONE_GRID, 1):
        got = [f_of(i).coeff(n) for n in (-i, 1, 2, 3)]
        _require(got == [1, *row], f"f_{{0,{i}}}: {got} != {[1, *row]}")
        col = [1, *(-r[i - 1] for r in LEVEL_ONE_GRID)]
        got = [g_of(i).coeff(m) for m in (-i, 1, 2, 3)]
        _require(got == col, f"g_{{2,{i}}}: {got} != {col}")


def criterion_1_level_one_grid():
    """Weight-0/2 level-1 grid coefficients match the published values."""
    f = build_basis(1, 0, INF, 4, 20)
    g = build_basis(1, 2, HAT, 4, 20)
    _require_level_one_grid(f.element, g.element)
    _require(f.element(0).items() == ((0, Fraction(1)),))


def criterion_2_appendix_conformance():
    """Every registry generator expansion matches its pinned prefix, and
    the corrected-data levels carry paper_typo flags."""
    for N, weight, expected in CONFORMANCE:
        hi = max(expected)
        if weight is None:
            series = basis_mod.hauptmodul_series(N, hi + 1)
            label = f"level {N} Hauptmodul"
        else:
            series = basis_mod.level_form(N, weight, hi + 1)
            label = f"level {N} weight {weight} form"
        for e in range(min(expected), hi + 1):
            want = Fraction(expected.get(e, 0))
            got = series.coeff(e)
            _require(got == want, f"{label} at q^{e}: {got} != {want}")
    for N in (6, 9):
        _require(any("paper_typo" in fl for fl in get_level(N).flags), N)
    dump = registry_dump()
    flagged = {lv["level"] for lv in dump["levels"] if lv["flags"]}
    _require({6, 9} <= flagged)


def criterion_3_duality_sweep():
    """Exact duality residual 0 on a 20x20 box for every genus-zero level
    and every even weight in [-10, 10].  A grid reads its weight >= 2 side
    off the other as its negated transpose, so its residual is zero by
    construction; that side must equal a direct run of the recursion, which
    checks the duality of the source as built (walked, or for a hat source
    read off the inf basis)."""
    for N in GENUS_ZERO_LEVELS:
        for k in SWEEP_WEIGHTS:
            grid = build_grid(N, k, 20)
            side = grid.fside if k >= 2 else grid.gside
            ref = _recursion(N, side.k, side.space, 20, side.prec)
            _require(side == ref,
                     f"derived side at N={N}, k={k} differs from the "
                     f"recursion")
            r = duality_residual(grid, 20, 20)
            _require(r == 0, f"duality residual {r} at N={N}, k={k}")


def criterion_4_uv_alignment():
    """u(N,2-k) = -v(N,k)-1 for all levels, and vanishing-order
    monotonicity |v(N)| >= |v(M)|, |u(N)| >= |u(M)| for genus-zero M | N."""
    for N in ALL_LEVELS:
        for k in range(-20, 22, 2):
            _require(u_of(N, 2 - k) == -v_of(N, k) - 1, (N, k))
    for N in GENUS_ZERO_LEVELS:
        for M in [m for m in GENUS_ZERO_LEVELS if N % m == 0]:
            for k in range(-20, 22, 2):
                _require(abs(v_of(N, k)) >= abs(v_of(M, k)), (N, M, k))
                _require(abs(u_of(N, k)) >= abs(u_of(M, k)), (N, M, k))


def criterion_5_trace_examples():
    """The published level-4 and level-2 trace expansions; the level-4
    traces of weights 0 and 2 to level 1 are the level-1 grid.

    One coefficient is corrected: the weight-8 level-1 element with a
    simple pole has q-coefficient 28404 (the source prints 28240, which
    contradicts its own duality data; see the decisions ledger).
    """
    _require(trace(4, 1, 0, INF, 0).expansion.items() == ((0, Fraction(1)),))
    _require_level_one_grid(lambda m: trace(4, 1, 0, INF, m).expansion,
                            lambda n: trace(4, 1, 2, HAT, n).expansion)

    cases_2 = {
        2: ((1, 8), ((-2, 1), (-1, 8), (0, -65760), (1, -87553952))),
        3: ((1, -12), ((-3, 1), (-1, -12), (0, -1044480),
                       (1, -22875832242))),
        4: ((1, -64), ((-4, 1), (-1, -64), (0, -7895520),
                       (1, -1969010000640))),
    }
    for m, (corr, pairs) in cases_2.items():
        rep = trace(2, 1, -6, INF, m)
        _require(rep.combination == ((m, Fraction(1)),
                                     (corr[0], Fraction(corr[1]))), m)
        for n, c in pairs:
            _require(rep.expansion.coeff(n) == c, (m, n))
    _require(trace(2, 1, 8, HAT, -1).expansion.is_zero)
    g0 = trace(2, 1, 8, HAT, 0).expansion
    _require([g0.coeff(n) for n in (0, 1, 2, 3)] == [1, 480, 61920, 1050240])
    g1 = trace(2, 1, 8, HAT, 1).expansion
    _require([g1.coeff(n) for n in (-1, 1, 2, 3)] ==
             [1, 28404, 87326720, 22876173090])


def criterion_6_classification():
    """classify matches the theorem's explicit list everywhere, and
    with direct 12x12 duality of the traced grids wherever principal-part
    matching applies on both sides."""
    for N in GENUS_ZERO_LEVELS:
        for M in [m for m in ALL_LEVELS if N % m == 0]:
            for k in SWEEP_WEIGHTS:
                c = classify(N, M, k)
                _require(c.preserved == theorem_list_preserved(N, M, k),
                         (N, M, k))
                e = empirical_preserves(N, M, k, box=12)
                if e is not None:
                    _require(e == c.preserved, (N, M, k, c.preserved, e))


def criterion_7_seed_synthesis():
    """The five seed certificates equal their re-derivation by row
    reduction.  Their levels' grids at the certified weights are in the
    duality sweep of criterion 3."""
    certified_keys = sorted(certificates())
    _require(len(certified_keys) == 5, certified_keys)
    for N, k in certified_keys:
        derived = synthesize_seed(N, k, 40)
        certified = basis_mod.level_form(N, k, 40)
        _require(certified == derived,
                 f"certificate of level {N} weight {k} differs from its "
                 f"re-derivation")


def criterion_8_generating_functions():
    """The traced generating-function identities on both sides for the
    level-2 weight -6 grid, and the closed form of the grid generating
    function on every level for k in {0, 2, 4}, modulo q^max(12, |v|+2)."""
    _require(genfun_check(2, 1, -6, 15, side="k"))
    _require(genfun_check(2, 1, -6, 15, side="dual"))
    for N in ALL_LEVELS:
        for k in (0, 2, 4):
            _require(genfun_closed_form(N, k, max(12, abs(v_of(N, k)) + 2)),
                     (N, k))


def criterion_9_performance():
    """50 level-25 weight-2 basis elements at precision 120 inside 30 s,
    built cold, with exact rational coefficients throughout."""
    clear_store()
    t0 = time.perf_counter()
    b = build_basis(25, 2, INF, 50, 120)
    dt = time.perf_counter() - t0
    _require(dt < 30, f"build took {dt:.1f}s")
    _require(b.count == 50 and b.prec == 120)
    for _, c in b.element(b.m0 + 49).items():
        _require(isinstance(c, Fraction))


CRITERIA = (
    ("1 level-1 grid coefficients", criterion_1_level_one_grid),
    ("2 appendix conformance", criterion_2_appendix_conformance),
    ("3 duality sweep", criterion_3_duality_sweep),
    ("4 u/v alignment", criterion_4_uv_alignment),
    ("5 trace examples", criterion_5_trace_examples),
    ("6 trace classification", criterion_6_classification),
    ("7 seed synthesis", criterion_7_seed_synthesis),
    ("8 generating functions", criterion_8_generating_functions),
    ("9 performance", criterion_9_performance),
)


def run_all(out=print) -> bool:
    """Run every criterion, emit one line each, return overall success."""
    ok = True
    for name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            fn()
            out(f"PASS criterion {name} ({time.perf_counter() - t0:.1f}s)")
        except AssertionError as exc:
            ok = False
            out(f"FAIL criterion {name}: {exc}")
    return ok
