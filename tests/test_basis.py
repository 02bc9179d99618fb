import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gridforge
from gridforge import basis as basis_mod
from gridforge import qseries, seedsynth
from gridforge.basis import (
    HAT,
    INF,
    IntegralityError,
    build_basis,
    build_grid,
    duality_residual,
    first_element,
    gap_bound,
    hauptmodul_series,
    level_form,
)
from gridforge.leveldata import (
    ALL_LEVELS,
    CONFORMANCE,
    CertificateError,
    Combo,
    PinnedPrefixError,
    certificates,
    cusp_killer,
    get_level,
    u_of,
    v_of,
)
from gridforge.generators import EtaQuotient, eisenstein
from gridforge.qseries import PrecisionError, QSeries
from gridforge.traceops import _basis_for, empirical_preserves, trace


def coeffs(series, exps):
    return [series.coeff(e) for e in exps]


def test_level_five_weight_zero_walkthrough():
    b = build_basis(5, 0, INF, 4, 25)
    assert b.element(0) == QSeries.one(25)
    assert coeffs(b.element(1), (-1, 1, 2)) == [1, 9, 10]
    assert coeffs(b.element(2), (-2, 1, 2)) == [1, 20, 21]
    assert coeffs(b.element(3), (-3, 1, 2)) == [1, -90, 288]


def test_level_five_weight_two_hat():
    g = build_basis(5, 2, HAT, 3, 25)
    assert coeffs(g.element(1), (-1, 1, 2, 3)) == [1, -9, -20, 90]
    assert coeffs(g.element(2), (-2, 1, 2, 3)) == [1, -10, -21, -288]
    assert coeffs(g.element(3), (-3, 1, 2, 3)) == [1, 30, -192, -144]


def test_level_one_grid_prefixes():
    f = build_basis(1, 0, INF, 3, 20)
    assert coeffs(f.element(2), (1, 2, 3)) == \
        [42987520, 40491909396, 8504046600192]
    g = build_basis(1, 2, HAT, 3, 20)
    assert coeffs(g.element(3), (1, 2, 3)) == \
        [-864299970, -8504046600192, -9529320689550144]


def test_level_four_grid_prefixes():
    grid = build_grid(4, 0, 4)
    assert coeffs(grid.fside.element(1), (1, 2, 3, 4, 5)) == \
        [20, 0, -62, 0, 216]
    assert coeffs(grid.fside.element(2), (2, 4, 6)) == [276, -2048, 11202]
    assert coeffs(grid.gside.element(3), (1, 3, 5)) == [62, -4928, 86385]


def test_level_two_weight_minus_six_forms():
    grid = build_grid(2, -6, 5)
    f = grid.fside
    assert coeffs(f.element(2), (-2, -1, 0, 1)) == [1, 8, -224, 2144]
    assert coeffs(f.element(3), (-3, -1, 0, 1)) == [1, -12, 4096, -98226]
    assert coeffs(f.element(4), (-4, -1, 0, 1)) == [1, -64, -31200, 1817856]
    g = grid.gside
    assert coeffs(g.element(-1), (1, 2, 3, 4)) == [1, -8, 12, 64]
    assert coeffs(g.element(0), (0, 2, 3, 4)) == [1, 224, -4096, 31200]
    # the q^4 value is forced by duality against f_{-6,4} above
    assert coeffs(g.element(1), (-1, 2, 3, 4)) == [1, -2144, 98226, -1817856]


def test_first_element_examples():
    assert first_element(5, 0, INF, 15) == QSeries.one(15)
    hat52 = first_element(5, 2, HAT, 10)
    assert coeffs(hat52, (-1, 1, 2, 3)) == [1, -9, -20, 90]
    inf13 = first_element(13, 12, INF, 20)
    assert coeffs(inf13, (14, 15, 16, 17, 18)) == [1, 2, 5, 10, 20]


@pytest.mark.parametrize("N, k, space, prec", [(18, 10, INF, 30),
                                               (25, 12, INF, 30),
                                               (18, 10, HAT, 23)])
def test_first_element_below_its_lead_is_a_precision_error(N, k, space,
                                                           prec):
    lead = v_of(N, k) if space == INF else u_of(N, k)
    assert lead == prec
    with pytest.raises(PrecisionError,
                       match=rf"level {N} weight {k} {space} .* prec {prec} "):
        first_element(N, k, space, prec)
    assert first_element(N, k, space, prec + 1) == \
        QSeries({lead: 1}, prec + 1)


def reference_first_element(N, k, space, prec):
    """The first element as it was built before it became a Combo: the
    INF element times the cusp killer for HAT, and F_base^l * F_k' for
    INF, each at a working precision derived by hand from the factors'
    valuations."""
    v = v_of(N, k)
    if space == HAT:
        # the cusp killer (valuation -deg) times the INF element (valuation
        # v), each known to work, is known to work - max(deg, -v)
        deg = get_level(N).cusp_count - 1
        work = prec + max(deg, -v)
        inf = reference_first_element(N, k, INF, work)
        return (inf * cusp_killer(N, work)).truncate(prec)
    seed = get_level(N).seed
    power, kp = seed.split(k)
    v_base = v_of(N, seed.base_weight)
    # base^power (valuation power*v_base) is known to work - (1-power)*v_base
    # for either sign of power; times F_kp (valuation v_kp, known to work)
    # that is work - max(0, (1-power)*v_base - v_kp)
    work = prec + max(0, (1 - power) * v_base - v_of(N, kp))
    if power >= 0:
        out = level_form(N, seed.base_weight, work) ** power
    else:
        # the base's inverse is known to 2*v_base terms less than the base
        out = level_form(N, seed.base_weight, work).inverse() ** -power
    return (out * level_form(N, kp, work)).truncate(prec)


def first_element_cases():
    """Every level, even k in [-20, 20], both spaces, at the precisions
    B + 1, B + 7 and max(B, 0) + 40 for the gap bound B."""
    for N in ALL_LEVELS:
        for k in range(-20, 21, 2):
            for space in (INF, HAT):
                B = gap_bound(N, k, space)
                for prec in (B + 1, B + 7, max(B, 0) + 40):
                    yield N, k, space, prec


def test_first_elements_match_the_hand_derived_precisions():
    cases = list(first_element_cases())
    assert len(cases) == 1890
    # QSeries equality compares the precision as well as the coefficients
    for case in cases:
        assert first_element(*case) == reference_first_element(*case), case


@pytest.mark.parametrize("N", ALL_LEVELS)
def test_first_element_factors_are_asked_for_no_more_than_needed(
        N, monkeypatch):
    # each factor is asked for exactly as many terms as the product needs,
    # so one term fewer of any one kind of factor leaves the product short
    real = basis_mod._factor
    for kind in ("form", "cusp", "phi", "eis", "eta"):
        shortened = []

        def short(N, factor, prec):
            if factor[0] == kind:
                shortened.append(factor)
                prec -= 1
            return real(N, factor, prec)

        monkeypatch.setattr(basis_mod, "_factor", short)
        for k in (-4, 2, 6):
            for space in (INF, HAT):
                monkeypatch.setattr(qseries, "_store", {})
                shortened.clear()
                prec = max(gap_bound(N, k, space), 0) + 12
                try:
                    first_element(N, k, space, prec)
                except PrecisionError:
                    assert shortened, (kind, k, space)
                else:
                    assert not shortened, (kind, k, space)


def test_form_products_are_known_as_far_as_asked(monkeypatch):
    # Delta(z) * Delta(2z) * E4 * (1 + 3 psi^2) on level 2: factors of
    # valuations 1, 2 and 0 times a polynomial in psi
    delta1, delta2 = EtaQuotient({1: 24}), EtaQuotient({2: 24})
    factors = (("eta", delta1), ("eta", delta2), ("eis", 4, 1))
    combo = Combo(((1, factors, 0), (3, factors, 2)))
    psi = hauptmodul_series(2, 40)
    want = (delta1.expand(40) * delta2.expand(40) * eisenstein(4, 40)
            * (QSeries.one(40) + (psi * psi).scale(3)))
    for prec in (1, 4, 10, 20):
        assert basis_mod._eval_form(2, 0, combo, prec) == \
            want.truncate(prec), prec
    # and no further: one term fewer of either kind of factor is one short
    real = basis_mod._factor
    for kind in ("eta", "eis"):
        monkeypatch.setattr(basis_mod, "_factor", lambda N, f, prec: real(
            N, f, prec - (f[0] == kind)))
        assert basis_mod._eval_form(2, 0, combo, 10).prec == 9, kind


@pytest.mark.parametrize("N", ALL_LEVELS[1:])
def test_cusp_killer_expands_the_hauptmodul_as_far_as_it_needs(
        N, monkeypatch):
    # P(psi) has degree deg = cusp_count - 1, and psi^deg is known as far
    # beyond its valuation -deg as psi is beyond -1
    deg = get_level(N).cusp_count - 1
    for prec in (1, 9, 30):
        monkeypatch.setattr(qseries, "_store", {})
        assert cusp_killer(N, prec).prec == prec
        assert qseries._store[("haupt", N)][1].prec == prec + deg - 1


def test_registry_forms_below_their_lead(monkeypatch):
    # a request that determines none of a form's terms still returns the
    # zero series at the precision asked for, for a product of registry
    # forms (level 13, weights 8 and 10) too
    for N in ALL_LEVELS:
        for w in get_level(N).seed.forms:
            v = v_of(N, w)
            monkeypatch.setattr(qseries, "_store", {})
            full = level_form(N, w, max(v, 0) + 3)
            for prec in range(0, max(v, 0) + 3):
                monkeypatch.setattr(qseries, "_store", {})
                got = level_form(N, w, prec)
                assert got == full.truncate(prec), (N, w, prec)


def test_first_element_negative_weights():
    s = first_element(2, -6, INF, 12)
    assert coeffs(s, (-2, -1, 0, 1)) == [1, 8, -224, 2144]
    s3 = first_element(3, -2, INF, 12)
    assert s3.valuation() == v_of(3, -2) == -1
    s18 = first_element(18, -4, INF, 12)
    assert s18.valuation() == v_of(18, -4) == -12


def test_gap_form():
    for N, k, space in [(5, 0, INF), (2, 8, HAT), (6, -2, INF),
                        (13, 4, INF), (25, 2, HAT), (1, -6, INF)]:
        b = build_basis(N, k, space, 6, max(30, abs(v_of(N, k)) + 12))
        bound = v_of(N, k) if space == INF else u_of(N, k)
        for m in b.indices:
            e = b.element(m)
            assert e.coeff(-m) == 1
            for s in range(-m + 1, bound + 1):
                assert e.coeff(s) == 0, (N, k, space, m, s)


def test_gap_form_check_covers_the_whole_gap():
    b = build_basis(6, -2, INF, 4, 30)

    def with_term(m, s):
        e = b.element(m) + QSeries({s: 1}, b.prec)
        return dataclasses.replace(b, elements=tuple(
            e if i == m else b.element(i) for i in b.indices))

    basis_mod._verify_gap_form(b)
    for m in b.indices:
        for s in range(-m + 1, b.gap_bound + 1):
            with pytest.raises(AssertionError,
                               match=f"index {m}, exponent {s}$"):
                basis_mod._verify_gap_form(with_term(m, s))
        basis_mod._verify_gap_form(with_term(m, b.gap_bound + 1))


def test_weight_zero_inf_starts_with_constant():
    for N in (1, 5, 9, 16):
        b = build_basis(N, 0, INF, 2, 20)
        assert b.m0 == 0
        assert b.element(0) == QSeries.one(b.prec)


def test_hat_elements_reduce_against_inf_basis():
    # a hat element is a weight-k form with poles only at infinity, so
    # matching its coefficients through the gap bound against the full
    # basis must reproduce it exactly
    for N, k in [(5, 2), (4, 0), (8, 4)]:
        v = v_of(N, k)
        hat = build_basis(N, k, HAT, 3, 30)
        count_needed = 3 + (v - u_of(N, k)) + v + 1
        inf = build_basis(N, k, INF, max(count_needed, 1), 30)
        for m in hat.indices:
            g = hat.element(m)
            combo = QSeries.zero(30)
            for j in range(g.valuation(), v + 1):
                c = g.coeff(j)
                if c:
                    combo = combo + inf.element(-j).scale(c)
            assert g == combo, (N, k, m)


def test_duality_examples():
    g5 = build_grid(5, 0, 3)
    assert duality_residual(g5, 3, 3) == 0
    assert g5.fside.element(2).coeff(1) == 20
    assert g5.gside.element(1).coeff(2) == -20
    g1 = build_grid(1, 0, 3)
    assert duality_residual(g1, 3, 3) == 0
    assert g1.fside.element(1).coeff(2) == 21493760
    assert g1.gside.element(2).coeff(1) == -21493760
    assert duality_residual(g5, 0, 0) == 0


def reference_residual(grid, m_max, n_max):
    """max |a_k(m,n) + b_{2-k}(n,m)|, coefficient by coefficient in
    Fraction arithmetic."""
    return max((abs(grid.fside.element(m).coeff(n)
                    + grid.gside.element(n).coeff(m))
                for m in grid.fside.indices[:m_max]
                for n in grid.gside.indices[:n_max]), default=Fraction(0))


def test_duality_residual_of_rational_grids():
    # bases are integral, so only a perturbed grid reaches the residual's
    # arithmetic with denominators
    grid = build_grid(5, 0, 4)
    rng = random.Random(3)
    for _ in range(30):
        sides = []
        for side in (grid.fside, grid.gside):
            sides.append(dataclasses.replace(side, elements=tuple(
                e + QSeries({rng.randrange(-1, 6): Fraction(
                    rng.randrange(-9, 10), rng.randrange(1, 7))}, e.prec)
                if rng.random() < 0.5 else e for e in side.elements)))
        perturbed = dataclasses.replace(grid, fside=sides[0], gside=sides[1])
        for box in ((4, 4), (3, 2), (0, 4)):
            assert duality_residual(perturbed, *box) == \
                reference_residual(perturbed, *box)


def test_duality_residual_guards():
    g = build_grid(5, 0, 3)
    with pytest.raises(PrecisionError):
        duality_residual(g, 10, 10)
    with pytest.raises(ValueError):
        duality_residual(g, -1, 2)


def test_duality_box_past_the_grid_precision_is_named():
    # count 6 at precision 6: the level-5 weight-0 box reads the f-side at
    # the g-indices 1..6, so a 6x6 box reads q^6, one past the precision,
    # and a 6x5 box stops at q^5
    g = build_grid(5, 0, 6, 6)
    assert duality_residual(g, 6, 5) == 0
    with pytest.raises(PrecisionError,
                       match=r"box 6x6 of level 5 weight 0 reads q\^6 of "
                             r"the inf side, known only mod q\^6"):
        duality_residual(g, 6, 6)


def _cut(basis, count, prec):
    """The basis's first `count` elements, each cut to prec."""
    return dataclasses.replace(basis, prec=prec, elements=tuple(
        e.truncate(prec) for e in basis.elements[:count]))


def _recursion(N, k, space, count, prec):
    """The recursion's basis of the key, every element cut to prec."""
    return _cut(basis_mod._build(N, k, space, count, prec), count, prec)


def _derived_side(grid):
    """The side of the grid derived by Bol's identity, and the recursion's
    basis of the same key, cut to the grid's count and precision."""
    side = grid.gside if grid.k <= 0 else grid.fside
    return side, _recursion(grid.N, side.k, side.space, side.count,
                            side.prec)


@pytest.mark.parametrize("N", ALL_LEVELS)
def test_derived_bases_equal_the_recursion(N, monkeypatch):
    # every weight >= 2 key is derived from the other space of weight 2 - k;
    # n_low is the number of its elements that come from the recursion
    monkeypatch.setattr(qseries, "_store", {})
    cases = [(1, 2, HAT, 1, 0), (1, 2, HAT, 3, 1)] if N == 1 else []
    for k in (2, 4, 8, 12):
        for space in (INF, HAT):
            B = gap_bound(N, k, space)
            n_low = max(0, 2 * B + 1)
            for count in sorted({1, n_low, n_low + 1, n_low + 5} - {0}):
                cases += [(N, k, space, count, prec)
                          for prec in (B + 1, B + 2, qseries.DEFAULT_PREC)]
    for N, k, space, count, prec in cases:
        # each case is derived at its own size, not cut from a larger entry
        qseries._store.pop(("basis", N, k, space), None)
        assert build_basis(N, k, space, count, prec) == _recursion(
            N, k, space, count, prec), (k, space, count, prec)


def test_warm_grids_are_store_hits(counting_builds, monkeypatch):
    grids = {(N, k): build_grid(N, k, 10) for N, k in ((1, 4), (13, -2))}
    derivations = []
    real = basis_mod._bol_build

    def derive(*args):
        derivations.append(args)
        return real(*args)

    monkeypatch.setattr(basis_mod, "_bol_build", derive)
    monkeypatch.setattr(qseries, "_stats", {})
    counting_builds.clear()
    for (N, k), grid in grids.items():
        assert build_grid(N, k, 10) == grid
        side = grid.gside if k <= 0 else grid.fside
        assert build_basis(N, side.k, side.space, 7, side.prec - 2) == \
            _cut(side, 7, side.prec - 2)
    assert counting_builds == {} and derivations == []
    assert qseries.store_stats() == {"basis": {"hits": 6, "misses": 0}}


def test_every_stored_basis_is_the_recursions(monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    for N, k in ((1, 4), (6, -2), (13, 8)):
        build_grid(N, k, 12)
    assert empirical_preserves(4, 2, -2) is True
    assert empirical_preserves(9, 1, 2) is False
    trace(10, 5, 4, HAT, 3)
    stored = [(key, size) for key, (size, _) in qseries._store.items()
              if key[0] == "basis"]
    assert {k >= 2 for (_, _, k, _), _ in stored} == {True, False}
    for key, (count, prec) in stored:
        assert _cut(qseries._store[key][1], count, prec) == _recursion(
            *key[1:], count, prec), key


@pytest.mark.parametrize("N", ALL_LEVELS)
def test_derived_side_equals_the_recursion(N, monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    for k in range(-10, 14, 2):
        side, ref = _derived_side(build_grid(N, k, 20))
        assert side == ref, k


@pytest.mark.parametrize("N, k, count", [(1, 8, 80), (16, -10, 100)])
def test_derived_side_equals_the_recursion_at_depth(N, k, count,
                                                    monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    side, ref = _derived_side(build_grid(N, k, count))
    assert side == ref


def _add_to_source(monkeypatch, key, i, j):
    """Start from an empty store, and add q^j to element i of every
    recursion result of the (N, k, space) key."""
    real = basis_mod._build

    def build(*key_size):
        b = real(*key_size)
        if key_size[:3] != key:
            return b
        elements = list(b.elements)
        s = elements[i - b.m0]
        elements[i - b.m0] = s + QSeries({j: 1}, s.prec)
        return dataclasses.replace(b, elements=tuple(elements))

    monkeypatch.setattr(qseries, "_store", {})
    monkeypatch.setattr(basis_mod, "_build", build)


@pytest.mark.parametrize("N, k", [(1, -4), (4, -2), (5, 0), (13, 4),
                                  (9, 6)])
def test_duality_cannot_see_a_diagonal_error_of_a_derived_grid(
        N, k, monkeypatch):
    # Add 1 to one coefficient a(i, j) of a source element.  The derived
    # element t_i moves by j^e / (-i)^e at q^j, e = 1 - w odd; duality pairs
    # a(i, j) with the unmoved b(j, i) off the diagonal, but on it the two
    # moves cancel, and only the cross-check with the recursion sees them.
    w, space = (k, INF) if k <= 0 else (2 - k, HAT)
    Bs = gap_bound(N, w, space)
    # i is the first derived index, and the box reaches the target's 2i
    i = max(Bs + 1, -Bs)
    count = max(8, -3 * Bs + 1)
    for j in (2 * i, i):
        with monkeypatch.context() as mp:
            _add_to_source(mp, (N, w, space), i, j)
            grid = build_grid(N, k, count)
            side, ref = _derived_side(grid)
        assert side != ref
        if j == i:
            assert duality_residual(grid, count, count) == 0
        else:
            assert duality_residual(grid, count, count) > 0


def test_non_integral_derived_element_raises(monkeypatch):
    # e = 1 at weight 0, so q^3 added to the source's f_{0,2} moves the
    # derived g_{2,2} by 3/(-2) q^3, from -288 to -579/2
    _add_to_source(monkeypatch, (5, 0, INF), 2, 3)
    with pytest.raises(IntegralityError,
                       match=r"derived element of level 5 weight 2 hat "
                             r"index 2 prec 13 has the non-integral "
                             r"coefficient -579/2 at q\^3"):
        build_grid(5, 0, 6, 13)


def test_build_basis_precision_audit():
    with pytest.raises(PrecisionError,
                       match="level 18 weight 8 inf with count 10: "
                             "need prec >= 25, got 12"):
        build_basis(18, 8, INF, 10, 12)
    assert build_basis(18, 8, INF, 10, 25).element(-24).coeff(24) == 1


@pytest.mark.parametrize("N", ALL_LEVELS)
def test_bases_at_the_gap_bound_floor(N, monkeypatch):
    # the recursion runs at prec + count - 1, so the least precision past
    # the gap bound already gives every element exactly
    for k in (-10, -2, 0, 4, 10):
        for space in (INF, HAT):
            floor = gap_bound(N, k, space) + 1
            for count in (1, 6):
                monkeypatch.setattr(qseries, "_store", {})
                got = build_basis(N, k, space, count, floor)
                monkeypatch.setattr(qseries, "_store", {})
                high = build_basis(N, k, space, count, floor + 30)
                assert got.elements == tuple(
                    e.truncate(floor) for e in high.elements), (k, space)


def test_store_stats_count_basis_hits_and_misses(monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    monkeypatch.setattr(qseries, "_stats", {})
    for count, prec in ((5, 20), (3, 20), (5, 30), (4, 25)):
        build_basis(2, 0, INF, count, prec)
    # the grid asks for its derived g-side first, a miss, whose derivation
    # asks for the f-side at count 5 + 1, a miss; the grid's own request
    # for the f-side at count 5 is then a hit
    build_grid(2, 0, 5)
    assert qseries.store_stats()["basis"] == {"hits": 3, "misses": 4}


def test_basis_element_range_guard():
    b = build_basis(5, 0, INF, 3, 20)
    with pytest.raises(IndexError,
                       match=r"index 5 of level 5 weight 0 inf outside"):
        b.element(5)


@pytest.mark.parametrize("call", [
    lambda: build_basis(5, 0, "cusp", 3),
    lambda: first_element(5, 0, "cusp"),
    lambda: trace(10, 5, 0, "cusp", 1),
    lambda: _basis_for(5, 0, "cusp", 3, 20),
], ids=["build_basis", "first_element", "trace", "basis_for"])
def test_unknown_space_is_refused(call):
    with pytest.raises(ValueError, match="got 'cusp'"):
        call()


def test_grid_index_alignment():
    for N, k in [(2, -6), (13, 4), (18, 0)]:
        g = build_grid(N, k, 4)
        assert g.gside.m0 == v_of(N, k) + 1
        assert g.fside.m0 == u_of(N, 2 - k) + 1


class _Asked(Exception):
    pass


def test_grid_default_precision_matches_the_four_term_bound(monkeypatch):
    def ask(N, k, space, count, prec):
        raise _Asked(prec)

    monkeypatch.setattr(basis_mod, "build_basis", ask)
    for N in ALL_LEVELS:
        for k in range(-20, 21, 2):
            v, u = v_of(N, k), u_of(N, 2 - k)
            for count in range(1, 31):
                # the two sides' old precision floors count + |B| + 5
                old = max(count + abs(v) + 5, count + abs(u) + 5,
                          v + count + 6, -v + count + 6)
                with pytest.raises(_Asked) as got:
                    build_grid(N, k, count)
                assert got.value.args == (old,), (N, k, count)


def test_conformance_table():
    for N, weight, expected in CONFORMANCE:
        hi = max(expected)
        series = (hauptmodul_series(N, hi + 1) if weight is None
                  else level_form(N, weight, hi + 1))
        for e in range(min(expected), hi + 1):
            assert series.coeff(e) == Fraction(expected.get(e, 0)), \
                (N, weight, e)


def test_vanishing_rule_below_leading_index():
    # b_{2-k}(n, m) = 0 whenever m < -n: every coefficient of a basis
    # element below its leading exponent vanishes, the leading one is 1,
    # and the gap through the bound is clear
    for N, k in [(2, -6), (5, 0), (13, 4), (18, 2)]:
        grid = build_grid(N, k, 6)
        for n in grid.gside.indices:
            g = grid.gside.element(n)
            assert g.valuation() == -n
            for m in range(-n + 1, grid.gside.gap_bound + 1):
                assert g.coeff(m) == 0


def reference_basis(N, k, space, count, prec):
    """The recursion on Fraction-valued QSeries, written independently of
    the integer kernel: multiply by the Hauptmodul, then subtract earlier
    elements to clear every coefficient from the new leading term through
    the gap bound.  Returns the elements at their working precision."""
    B = v_of(N, k) if space == INF else u_of(N, k)
    m0 = -B
    work = prec + count + 6
    psi = hauptmodul_series(N, work + count + abs(m0) + 2)
    elements = [first_element(N, k, space, work)]
    for m in range(m0 + 1, m0 + count):
        p = psi * elements[-1]
        for s in range(-(m - 1), B + 1):
            c = p.coeff(s)
            if c:
                p = p - elements[-s - m0].scale(c)
        elements.append(p)
    return elements


def assert_matches_reference(N, k, space, count, monkeypatch):
    prec = count + abs(gap_bound(N, k, space)) + 5
    monkeypatch.setattr(qseries, "_store", {})
    got = build_basis(N, k, space, count, prec)
    built = basis_mod._build(N, k, space, count, prec).elements
    want = reference_basis(N, k, space, count, prec)
    assert len(built) == len(want) == count
    # the recursion gives element j exactly as far as it determines it, and
    # every coefficient it gives is the reference's
    for j, (w, e) in enumerate(zip(built, want)):
        assert w.prec == prec + count - 1 - j <= e.prec, (N, k, space, j)
        assert w == e.truncate(w.prec), (N, k, space, j)
    for g, e in zip(got.elements, want):
        assert g == e.truncate(prec), (N, k, space)


@pytest.mark.parametrize("N", ALL_LEVELS)
def test_kernel_matches_reference_recursion(N, monkeypatch):
    for space in (INF, HAT):
        for k in (-10, -4, 0, 2, 6, 10):
            assert_matches_reference(N, k, space, 4, monkeypatch)


def test_kernel_matches_reference_at_larger_count(monkeypatch):
    assert_matches_reference(1, 0, INF, 25, monkeypatch)
    assert_matches_reference(13, 4, HAT, 25, monkeypatch)


class _Forgetful(dict):
    """A series store that keeps nothing, so every request is built cold."""

    def __setitem__(self, key, value):
        pass


def test_warm_store_gives_the_cold_first_elements(monkeypatch):
    requests = []
    for N in ALL_LEVELS:
        for k in range(-10, 13, 2):
            for space in (INF, HAT):
                lead = v_of(N, k) if space == INF else u_of(N, k)
                requests += [(N, k, space, max(lead, 0) + d) for d in (4, 16)]
    monkeypatch.setattr(qseries, "_store", _Forgetful())
    cold = {r: first_element(*r) for r in requests}
    # shuffled, each key is asked for its two precisions in either order
    monkeypatch.setattr(qseries, "_store", {})
    monkeypatch.setattr(qseries, "_stats", {})
    random.Random(4).shuffle(requests)
    for r in requests:
        assert first_element(*r) == cold[r], r
    stats = qseries.store_stats()
    assert "first" not in stats
    for kind in ("form", "cusp"):
        assert stats[kind]["hits"] > 0 and stats[kind]["misses"] > 0, kind


def test_each_build_asks_for_one_first_element(counting_builds,
                                               monkeypatch):
    # perfbench/spans.py counts a build_basis call as a build when one of
    # its direct children is a first_element call, so every build asks for
    # exactly one first element, and no first element asks for another
    real_build, real_first = basis_mod._build, basis_mod.first_element
    open_calls, callers = [], []

    def build(*args):
        open_calls.append("_build")
        try:
            return real_build(*args)
        finally:
            open_calls.pop()

    def first(*args):
        callers.append(tuple(open_calls))
        open_calls.append("first_element")
        try:
            return real_first(*args)
        finally:
            open_calls.pop()

    monkeypatch.setattr(basis_mod, "_build", build)
    monkeypatch.setattr(basis_mod, "first_element", first)
    for N in ALL_LEVELS:
        for k in (-4, 0, 2, 6):
            build_grid(N, k, 5)
    builds = sum(counting_builds.values())
    # one build of each grid's source, and one of the low elements of the
    # other side for the 44 grids whose source gap bound is negative
    assert builds == len(ALL_LEVELS) * 4 + 44
    assert callers == [("_build",)] * builds


def test_a_cold_grid_builds_its_source_once(counting_builds):
    # the source is asked for once, at every element the derivation reads,
    # so the store does not rebuild it for one more element
    build_grid(1, 0, 5)
    assert counting_builds == {(1, 0, INF): 1}


def test_cached_basis_does_not_overclaim_precision(monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    build_basis(2, 0, INF, 10, 30)
    b = build_basis(2, 0, INF, 10, 46)
    assert b.prec == 46
    assert all(e.prec == 46 for e in b.elements)
    b.element(b.m0 + 9).coeff(45)
    monkeypatch.setattr(qseries, "_store", {})
    assert build_basis(2, 0, INF, 10, 46) == b


def test_cache_entry_only_grows(counting_builds):
    for count, prec in ((10, 30), (5, 46), (10, 30)):
        b = build_basis(2, 0, INF, count, prec)
        assert b.count == count and b.prec == prec
    # the second request rebuilt the entry at count 10 and prec 46, which
    # covers the third
    assert counting_builds == {(2, 0, INF): 2}
    size, entry = qseries._store[("basis", 2, 0, INF)]
    assert size == (10, 46) and (entry.count, entry.prec) == size
    # a larger count at a lower precision keeps the precision already built
    for count, prec in ((12, 30), (10, 46), (3, 20)):
        b = build_basis(2, 0, INF, count, prec)
        assert b.count == count and b.prec == prec
    assert counting_builds == {(2, 0, INF): 3}
    assert qseries._store[("basis", 2, 0, INF)][0] == (12, 46)


def test_cached_entries_have_one_precision(monkeypatch):
    # the last element is the least precise, and it is known exactly to
    # the precision its entry records
    monkeypatch.setattr(qseries, "_store", {})
    rng = random.Random(5)
    for _ in range(30):
        N, k, space = rng.choice([(2, 0, INF), (5, -4, HAT), (9, 4, INF)])
        count = rng.randrange(1, 16)
        prec = gap_bound(N, k, space) + 1 + rng.randrange(0, count + 30)
        build_basis(N, k, space, count, prec)
        for key, (size, entry) in qseries._store.items():
            if key[0] == "basis":
                assert entry.elements[-1].prec == entry.prec, key
                assert (entry.count, entry.prec) == size, key


def test_rebuilds_keep_the_requested_precision(counting_builds,
                                               monkeypatch):
    for count in (10, 12, 14):
        build_basis(2, 0, INF, count, 30)
    assert counting_builds == {(2, 0, INF): 3}
    warm = qseries._store[("basis", 2, 0, INF)]
    monkeypatch.setattr(qseries, "_store", {})
    build_basis(2, 0, INF, 14, 30)
    assert warm == qseries._store[("basis", 2, 0, INF)]


@pytest.mark.parametrize("N, k", [(1, 0), (5, 0), (2, -6), (9, 4)])
def test_recursion_expands_the_hauptmodul_as_far_as_it_reads(N, k,
                                                             monkeypatch):
    count, prec = 10, 30
    monkeypatch.setattr(qseries, "_store", {})
    basis_mod._build(N, k, INF, count, prec)
    # the recursion reads psi up to q^(work+m0-2)
    work, m0 = prec + count - 1, -v_of(N, k)
    assert qseries._store[("haupt", N)][1].prec == work + m0 - 1


def test_warm_cache_gives_the_cold_bases(monkeypatch):
    keys = [(2, 0, INF), (5, -4, HAT), (13, 4, INF)]
    assert (13, 4) in certificates()
    rng = random.Random(11)
    requests = []
    for N, k, space in keys:
        for _ in range(12):
            count = rng.randrange(1, 16)
            floor = gap_bound(N, k, space) + 1
            requests.append((N, k, space, count,
                             floor + rng.randrange(0, count + 30)))
    rng.shuffle(requests)
    monkeypatch.setattr(qseries, "_store", {})
    warm = [build_basis(*r) for r in requests]
    for r, got in zip(requests, warm):
        monkeypatch.setattr(qseries, "_store", {})
        cold = build_basis(*r)
        assert got == cold, r
        assert [e.prec for e in got.elements] == [r[4]] * r[3], r


def test_non_integral_first_element_raises(monkeypatch):
    real = basis_mod.first_element

    def halved(N, k, space, prec):
        s = real(N, k, space, prec)
        return s + QSeries({s.valuation() + 2: Fraction(1, 2)}, prec)

    monkeypatch.setattr(qseries, "_store", {})
    monkeypatch.setattr(basis_mod, "first_element", halved)
    with pytest.raises(IntegralityError,
                       match=r"level 5 weight 0 inf index 0 prec 27.*"
                             r"1/2 at q\^2"):
        build_basis(5, 0, INF, 3, 25)


def test_runtime_path_never_synthesizes(monkeypatch):
    def forbidden(*args, **kw):
        raise AssertionError("seed synthesis on the runtime path")

    for name in ("synthesize_seed", "build_family", "row_reduce"):
        monkeypatch.setattr(seedsynth, name, forbidden)
    monkeypatch.setattr(qseries, "_store", {})
    for N, k in certificates():
        assert duality_residual(build_grid(N, k, 20), 20, 20) == 0, (N, k)
    pinned = {(N, k): exp for N, k, exp in CONFORMANCE}
    for k in (8, 10):
        s = level_form(13, k, 30)
        assert all(s.coeff(e) == c for e, c in pinned[(13, k)].items())


def test_perturbed_certificate_fails_pinned_prefix(perturb_certificate):
    perturb_certificate(7, 4)
    with pytest.raises(PinnedPrefixError, match="level 7 weight 4"):
        level_form(7, 4, 20)
    with pytest.raises(PinnedPrefixError):
        build_grid(7, 4, 5)


def _with_factor(cert, old, new):
    return dataclasses.replace(cert, terms=tuple(
        (c, tuple(new if f == old else f for f in factors), j)
        for c, factors, j in cert.terms))


def test_certificate_prefix_must_reach_the_maximal_order(
        install_certificate):
    cert = certificates()[(13, 6)]
    v = v_of(13, 6)
    # the seed leads with q^v, so the prefix pinned below q^v is empty
    short = tuple((e, c) for e, c in cert.expected if e < v)
    install_certificate(13, 6, dataclasses.replace(cert, expected=short))
    with pytest.raises(CertificateError, match="does not determine"):
        level_form(13, 6, 20)


def test_certificate_factor_levels_must_divide_the_level(
        install_certificate):
    cert = certificates()[(7, 4)]
    install_certificate(7, 4, _with_factor(cert, ("eis", 4, 1),
                                           ("eis", 4, 2)))
    with pytest.raises(CertificateError,
                       match="level 2, which does not divide 7"):
        level_form(7, 4, 20)


def test_certificate_rejects_e2_factors(install_certificate):
    # E2(dz) is not modular, so the valence argument does not cover it
    cert = certificates()[(7, 4)]
    install_certificate(7, 4, _with_factor(cert, ("eis", 4, 1),
                                           ("eis", 2, 7)))
    with pytest.raises(CertificateError,
                       match=r"factor \('eis', 2, 7\) is not phi_n"):
        level_form(7, 4, 20)


@pytest.mark.parametrize("factor", [("eta", EtaQuotient({1: 16, 2: -8})),
                                    ("form", 2)], ids=["eta", "form"])
def test_certificate_rejects_other_factor_kinds(factor, install_certificate):
    cert = certificates()[(7, 4)]
    install_certificate(7, 4, _with_factor(cert, ("eis", 4, 1), factor))
    with pytest.raises(CertificateError, match="is not phi_n"):
        level_form(7, 4, 20)


def test_certificate_terms_must_have_the_seed_weight(install_certificate):
    cert = certificates()[(7, 4)]
    install_certificate(7, 4, _with_factor(cert, ("eis", 4, 1),
                                           ("eis", 6, 1)))
    with pytest.raises(CertificateError, match="has weight 6"):
        level_form(7, 4, 20)


def test_pinned_prefix_check_survives_optimize():
    code = """
import sys
from gridforge.basis import level_form
from gridforge.leveldata import PinnedPrefixError, certificates, get_level
assert False, "assert statements are not stripped"
cert = certificates()[(13, 6)]
c, factors, j = cert.terms[-1]
bad = type(cert)((*cert.terms[:-1], (c * 2, factors, j)), cert.expected)
get_level(13).seed.forms[6] = bad
try:
    level_form(13, 6, 20)
except PinnedPrefixError:
    sys.exit(5)
"""
    src = str(Path(gridforge.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 5, proc.stderr
