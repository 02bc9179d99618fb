import hashlib
import inspect
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import gridforge
from gridforge import basis as basis_mod
from gridforge import qseries, seedsynth
from gridforge import traceops as traceops_mod
from gridforge.acceptance import SWEEP_WEIGHTS, _recursion
from gridforge.basis import (
    HAT,
    INF,
    CanonicalBasis,
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
    GENUS_ZERO_LEVELS,
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
    # each factor, and psi for the powers of the cusp-killing polynomial,
    # is asked for exactly as many terms as the product needs, so one term
    # fewer of any one kind of factor, or of psi, leaves the product short
    real, real_psi = basis_mod._factor, basis_mod.hauptmodul_series
    shortened = []

    def short_factor(kind):
        def short(N, factor):
            v, expand = real(N, factor)
            if factor[0] != kind:
                return v, expand

            def expand_short(prec):
                shortened.append(factor)
                return expand(prec - 1)
            return v, expand_short
        return kind, "_factor", short

    def short_psi(N, prec):
        shortened.append("psi")
        return real_psi(N, prec).truncate(prec - 1)

    for kind, name, short in [
            *map(short_factor, ("form", "phi", "eis", "eta")),
            ("psi", "hauptmodul_series", short_psi)]:
        monkeypatch.setattr(basis_mod, "_factor", real)
        monkeypatch.setattr(basis_mod, "hauptmodul_series", real_psi)
        monkeypatch.setattr(basis_mod, name, short)
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


def test_factor_valuations_are_the_valuations_of_their_expansions():
    # _eval_form's precision rule rests on the valuation _factor gives
    # beside each expansion: each factor of the registry forms, each form
    # and seed base a first element multiplies in and each seed-synthesis
    # atom, expanded through its valuation v, has valuation exactly v
    checked = 0
    for N in ALL_LEVELS:
        seed = get_level(N).seed
        factors = {("eta", seed.base)}
        for w, form in seed.forms.items():
            factors.add(("form", w))
            factors.update(f for _, fs, _ in form.terms for f in fs)
        factors.update(f for _, _, f in seedsynth._atoms(N))
        for f in factors:
            v, expand = basis_mod._factor(N, f)
            s = expand(v + 1)
            assert s.prec == v + 1 and s.valuation() == v, (N, f)
        checked += len(factors)
    assert checked == 319


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
        def short(N, f, kind=kind):
            v, expand = real(N, f)
            return v, lambda prec: expand(prec - (f[0] == kind))
        monkeypatch.setattr(basis_mod, "_factor", short)
        assert basis_mod._eval_form(2, 0, combo, 10).prec == 9, kind


def test_eval_form_equals_direct_arithmetic():
    # Combos with constant polynomials, cancelling constants and repeated
    # factors on level 2, against the same sums taken term by term
    e4, psi = eisenstein(4, 40), hauptmodul_series(2, 40)
    one = QSeries.one(40)
    cases = [
        (((Fraction(3, 7), (), 0),), one.scale(Fraction(3, 7))),
        (((2, (), 0), (3, (), 1), (-1, (), 2)),
         one.scale(2) + psi.scale(3) - psi * psi),
        (((1, (), 0), (-1, (), 0)), QSeries.zero(40)),
        (((1, (("eis", 4, 1),), 0), (-1, (("eis", 4, 1),), 0)),
         QSeries.zero(40)),
        (((5, (("eis", 4, 1), ("eis", 4, 1)), 1),), (e4 * e4 * psi).scale(5)),
    ]
    for terms, want in cases:
        for prec in (1, 5, 30):
            got = basis_mod._eval_form(2, 0, Combo(terms), prec)
            assert got == want.truncate(prec), (terms, prec)


def test_evaluated_series_keep_their_digest(monkeypatch):
    # str() of every registry form and cusp killer at prec 40 and of every
    # first element at prec B + 1 and max(40, B + 1), evaluated from an
    # empty store; the digest was taken before the evaluator lost its
    # constant-polynomial branch
    monkeypatch.setattr(qseries, "_store", {})
    texts = []
    for N in ALL_LEVELS:
        texts += [str(level_form(N, w, 40))
                  for w in sorted(get_level(N).seed.forms)]
        texts.append(str(cusp_killer(N, 40)))
        for k in range(-10, 13, 2):
            for space in (INF, HAT):
                B = gap_bound(N, k, space)
                texts += [str(first_element(N, k, space, prec))
                          for prec in (B + 1, max(40, B + 1))]
    assert len(texts) == 783
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "c9e6dfec61d189ce2180c7d015dc67a26662bd19f2fbf5bf92fce296f0e9d0db")


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


def add_to_tail(basis, m, e, c=1):
    """The basis with c * q^e added to element m, for an exponent e past
    the gap bound: one entry of one stored tail changes."""
    i, j = m - basis.m0, e - basis.gap_bound - 1
    assert 0 <= i < basis.count and 0 <= j < basis.prec - basis.gap_bound - 1
    tails = list(basis.stored)
    tail = list(tails[i])
    tail[j] += c
    tails[i] = tuple(tail)
    return basis._replace(stored=tuple(tails))


def test_the_writer_cuts_each_row_and_refuses_a_short_one():
    b = build_basis(6, -2, INF, 4, 30)
    n = b.prec - b.gap_bound - 1
    rows = [tail[:n] for tail in b.stored[:b.count]]
    # a row longer than the precision needs is cut to it
    assert CanonicalBasis.of(6, -2, INF, 30, [*rows[:-1], rows[-1] + (5,)]) \
        == b
    for i, m in enumerate(b.indices):
        short = [*rows[:i], rows[i][:-1], *rows[i + 1:]]
        with pytest.raises(
                AssertionError,
                match=f"index {m} of level 6 weight -2 inf .* prec 30$"):
            CanonicalBasis.of(6, -2, INF, 30, short)


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
    # an empty box compares nothing
    for box in ((0, 0), (0, 3), (3, 0)):
        assert duality_residual(g5, *box) == 0, box


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
            for m in side.indices:
                if rng.random() < 0.5:
                    side = add_to_tail(
                        side, m, rng.randrange(side.gap_bound + 1, 6),
                        Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
            sides.append(side)
        perturbed = grid._replace(fside=sides[0], gside=sides[1])
        for box in ((4, 4), (3, 2), (0, 4)):
            assert duality_residual(perturbed, *box) == \
                reference_residual(perturbed, *box)


def test_box_residual():
    # a 2x3 box: row i of a against column i of b, so only the pair
    # a[0][2] + b[2][0] = 3 - 10 is off
    a = [[1, 2, 3], [4, 5, 6]]
    b = [[-1, -4], [-2, -5], [-10, -6]]
    assert basis_mod._box_residual(a, b) == 7
    b[2][0] = -3
    assert basis_mod._box_residual(a, b) == 0
    a = [[Fraction(1, 2), 3]]
    b = [[Fraction(-1, 3)], [-3]]
    assert basis_mod._box_residual(a, b) == Fraction(1, 6)
    for a, b in (([], []), ([[], []], []), ([], [[], [], []])):
        assert basis_mod._box_residual(a, b) == 0


@pytest.mark.parametrize("N, k", [(1, -4), (4, -2), (5, 0), (13, 4),
                                  (9, 6)])
def test_duality_residual_sees_an_error_of_the_transposed_side(N, k):
    # the transposed side is read on its own, so 1 added to one of its
    # coefficients in the box moves one pair, by exactly 1
    count = 6
    grid = build_grid(N, k, count)
    name = "gside" if k <= 0 else "fside"
    side = getattr(grid, name)
    other = grid.fside if k <= 0 else grid.gside
    window = other.indices
    assert duality_residual(grid, count, count) == 0
    for m in (side.m0, side.m0 + count - 1):
        for e in (window[0], window[-1]):
            bad = grid._replace(**{name: add_to_tail(side, m, e)})
            assert duality_residual(bad, count, count) == 1, (m, e)


def test_duality_residual_guards():
    g = build_grid(5, 0, 3)
    # a box past a side's count, which slicing its indices would shrink,
    # is refused, an empty one included
    for box in ((10, 10), (0, 4), (4, 0)):
        with pytest.raises(PrecisionError, match="exceeds built count"):
            duality_residual(g, *box)
    with pytest.raises(ValueError):
        duality_residual(g, -1, 2)


def test_duality_box_past_the_grid_precision_is_named():
    # count 6 at precision 6: the level-5 weight-0 box reads the f-side at
    # the g-indices 1..6, so a 6x6 box reads q^6, one past the precision,
    # and a 6x5 box stops at q^5; the f-side's first element refuses it.
    # An empty box reads no coefficient.
    g = build_grid(5, 0, 6, 6)
    assert duality_residual(g, 6, 5) == 0
    assert duality_residual(g, 0, 6) == duality_residual(g, 6, 0) == 0
    with pytest.raises(PrecisionError,
                       match=r"^coefficient q\^6 of basis index 0 of level 5 "
                             r"weight 0 inf not determined at prec 6$"):
        duality_residual(g, 6, 6)


def _cut(basis, count, prec):
    """The basis's first `count` elements, each cut to prec."""
    return basis._replace(prec=prec, count=count)


def _derived_side(grid):
    """The side of the grid read off the other as its transpose, and the
    recursion's basis of the same key at the grid's count and precision."""
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
        assert build_basis(N, k, space, count, prec) == \
            _recursion(N, k, space, count, prec), \
            (k, space, count, prec)


def bol_basis(N, k, space, count, prec):
    """The weight k >= 2 basis by Bol's identity, without duality.

    With D = q d/dq and e = k - 1, D^e maps the other space, of weight
    2 - k, into this one.  That space has elements s_m = q^-m +
    sum a(m, n) q^n in gap form through Bs, and this one gap bound
    -Bs - 1, so matching principal parts gives, for m >= -Bs,

        t_m = [D^e s_m - sum_{n=Bs+1, n!=0}^{-Bs-1} n^e a(m, n) t_-n] / (-m)^e.

    The low elements Bs+1 .. -Bs-1, index 0 among them, and the source
    come from the recursion."""
    e, other = k - 1, HAT if space == INF else INF
    Bs = gap_bound(N, 2 - k, other)
    m0 = Bs + 1
    n_low = min(count, max(0, -2 * Bs - 1))
    elements = list(_recursion(N, k, space, n_low, prec).elements
                    if n_low else ())
    if n_low < count:
        source = _recursion(N, 2 - k, other, count + 2 * Bs + 1,
                                      max(prec, Bs + 1))
    for m in range(m0 + n_low, m0 + count):
        s = t = source.element(m)
        for _ in range(e):
            t = t.derive()
        for n in range(Bs + 1, -Bs):
            if n and s.coeff(n):
                t = t - elements[-n - m0].scale(n ** e * s.coeff(n))
        elements.append(t.scale(Fraction(1, (-m) ** e)).truncate(prec))
    return tuple(elements)


@pytest.mark.parametrize("N", ALL_LEVELS)
def test_bol_identity_gives_the_built_bases(N, monkeypatch):
    # Bol's identity is a second derivation of every weight >= 2 basis,
    # independent of both the transpose and the recursion
    monkeypatch.setattr(qseries, "_store", {})
    for k in (2, 4, 8, 12):
        for space in (INF, HAT):
            prec = 20 + abs(gap_bound(N, k, space)) + 6
            assert build_basis(N, k, space, 20, prec).elements == \
                bol_basis(N, k, space, 20, prec), (k, space)


def test_warm_grids_are_store_hits(counting_builds, monkeypatch):
    grids = {(N, k): build_grid(N, k, 10) for N, k in ((1, 4), (13, -2))}
    transposes = []
    real = basis_mod._transpose

    def transpose(*args):
        transposes.append(args)
        return real(*args)

    monkeypatch.setattr(basis_mod, "_transpose", transpose)
    monkeypatch.setattr(qseries, "_stats", {})
    counting_builds.clear()
    for (N, k), grid in grids.items():
        assert build_grid(N, k, 10) == grid
        side = grid.gside if k <= 0 else grid.fside
        assert build_basis(N, side.k, side.space, 7, side.prec - 2) == \
            _cut(side, 7, side.prec - 2)
    assert counting_builds == {} and transposes == []
    # each grid asks for its source once more, to cover both sides
    assert qseries.store_stats() == {
        "basis": {"hits": 8, "misses": 0, "rebuilds": 0, "extends": 0}}


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
        assert _cut(qseries._store[key][1], count, prec) == \
            _recursion(*key[1:], count, prec), key


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
    build of the weight k <= 0 (N, k, space) key, by its builder."""
    name = "_walk" if key[2] == INF else "_hat_from_inf"
    real = getattr(basis_mod, name)

    def build(*key_size):
        b = real(*key_size)
        return add_to_tail(b, i, j) if key_size[:3] == key else b

    monkeypatch.setattr(qseries, "_store", {})
    monkeypatch.setattr(basis_mod, name, build)


@pytest.mark.parametrize("N, k", [(1, -4), (4, -2), (5, 0), (13, 4),
                                  (9, 6)])
def test_duality_cannot_see_a_diagonal_error_of_a_derived_grid(
        N, k, monkeypatch):
    # Add 1 to one coefficient a(i, j) of a source element.  The transposed
    # side reads it as -b(j, i), so the pair a(i, j) + b(j, i) that duality
    # checks stays zero on the diagonal j = i and in every other cell of
    # the box, and only the cross-check with the recursion sees the error.
    w, space = (k, INF) if k <= 0 else (2 - k, HAT)
    Bs = gap_bound(N, w, space)
    # i is the first index past both gaps, and the box reaches the target's
    # 2i; (-Bs, Bs + 1) is the source's first element and tail coefficient
    i = max(Bs + 1, -Bs)
    count = max(8, -3 * Bs + 1)
    for cell in ((i, 2 * i), (i, i), (i + 2, i + 1), (-Bs, Bs + 1)):
        with monkeypatch.context() as mp:
            _add_to_source(mp, (N, w, space), *cell)
            grid = build_grid(N, k, count)
            side, ref = _derived_side(grid)
        assert side != ref, cell
        assert duality_residual(grid, count, count) == 0, cell


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
    # the grid's covering request for its f-side at count 11 extends it;
    # its own f-side request is then a hit, and its g-side a miss whose
    # transpose asks for the f-side at count 11, a hit
    build_grid(2, 0, 5)
    assert qseries.store_stats()["basis"] == {"hits": 4, "misses": 4,
                                              "rebuilds": 0, "extends": 2}


def test_store_stats_count_extends_apart_from_rebuilds(monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    monkeypatch.setattr(qseries, "_stats", {})
    # a stored weight k <= 0 inf key grows by its walk, by count and then
    # by precision
    for count, prec in ((4, 12), (10, 12), (10, 30)):
        build_basis(5, -2, INF, count, prec)
    # a stored hat key is rebuilt; each build reads the inf key, d = 1
    # element longer, as a hit
    for count, prec in ((4, 12), (8, 20)):
        build_basis(5, -2, HAT, count, prec)
    assert qseries.store_stats()["basis"] == {"hits": 2, "misses": 5,
                                              "rebuilds": 1, "extends": 2}


def test_a_request_for_no_element_is_refused():
    with pytest.raises(ValueError, match="^count must be >= 1$"):
        build_basis(5, 0, INF, 0, 20)
    with pytest.raises(ValueError, match="^count must be >= 1$"):
        build_grid(5, 0, 0)


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


def _direct_build(N, k, space, count, prec):
    """The basis built past the store: by the walk for weight k <= 0, and
    by the recursion for k >= 2, whose store entries are transposes."""
    build = basis_mod._walk if k <= 0 else _recursion
    return build(N, k, space, count, prec)


def assert_matches_reference(N, k, space, count, monkeypatch):
    prec = count + abs(gap_bound(N, k, space)) + 5
    monkeypatch.setattr(qseries, "_store", {})
    got = build_basis(N, k, space, count, prec)
    built = _direct_build(N, k, space, count, prec).elements
    want = reference_basis(N, k, space, count, prec)
    assert len(built) == len(want) == count
    # every element is cut to prec, and every coefficient given is the
    # reference's
    for j, (w, e) in enumerate(zip(built, want)):
        assert w.prec == prec <= e.prec, (N, k, space, j)
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
    # the cusp-killing polynomial is evaluated on each call, not stored
    assert "first" not in stats and "cusp" not in stats
    assert stats["form"]["hits"] > 0 and stats["form"]["misses"] > 0


def test_each_build_asks_for_one_first_element(counting_builds,
                                               monkeypatch):
    # perfbench/spans.py counts a build_basis call as a build when one of
    # its direct children is a first_element call, so every build asks for
    # exactly one first element, and no first element asks for another
    real_first = basis_mod.first_element
    open_calls, callers = [], []
    for name in ("_walk", "_hat_from_inf"):
        def build(*args, name=name, real=getattr(basis_mod, name)):
            open_calls.append(name)
            try:
                return real(*args)
            finally:
                open_calls.pop()

        monkeypatch.setattr(basis_mod, name, build)

    def first(*args):
        callers.append(tuple(open_calls))
        open_calls.append("first_element")
        try:
            return real_first(*args)
        finally:
            open_calls.pop()

    monkeypatch.setattr(basis_mod, "first_element", first)
    for N in ALL_LEVELS:
        for k in (-4, 0, 2, 6):
            build_grid(N, k, 5)
    # one build of each grid's source, which the other side is read off,
    # and of each inf key a hat source is read off: the weight 2 and 6
    # grids' hat sources read the weight 0 and -4 inf keys, which grow for
    # them where their entries are too small
    assert set(counting_builds) == {(N, k, space) for N in ALL_LEVELS
                                    for k in (-4, 0) for space in (INF, HAT)}
    assert all(n == 1 if key[2] == HAT else n <= 2
               for key, n in counting_builds.items())
    # the hat builder's inf build is its own call of build_basis
    assert len(callers) == sum(counting_builds.values())
    assert all(c and "first_element" not in c for c in callers)


def test_a_cold_grid_builds_its_source_once(counting_builds):
    # the source is asked for once, at every element either side reads, so
    # the store does not rebuild it for one more element or one more term;
    # (16, 6, 10, 14) rebuilds if the transpose asks for it first
    cases = [(N, k, 20, None) for N in GENUS_ZERO_LEVELS
             for k in SWEEP_WEIGHTS]
    for N, k, _, _ in cases[:]:
        v = v_of(N, k)
        least = max(v, -v - 1) + 1
        cases += [(N, k, count, prec) for count in (6, 10)
                  for prec in (least, least + 3)]
    cases.append((16, 6, 10, 14))
    for N, k, count, prec in cases:
        qseries._store.clear()
        counting_builds.clear()
        build_grid(N, k, count, prec)
        # a hat source is read off the inf key of its weight, built once
        w = min(k, 2 - k)
        want = {(N, w, INF): 1} if k <= 0 else {(N, w, HAT): 1, (N, w, INF): 1}
        assert counting_builds == want, (N, k, count, prec)


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
                assert len(entry.stored) == entry.count, key
                assert {len(t) for t in entry.stored} == \
                    {entry.prec - entry.gap_bound - 1}, key
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


def _count_series_made(monkeypatch):
    """A list that gains one item per QSeries constructed from now on."""
    made = []
    for name in ("from_row",):
        real = getattr(QSeries, name).__func__

        def wrapped(cls, *args, _real=real, _name=name, **kwargs):
            made.append(_name)
            return _real(cls, *args, **kwargs)

        monkeypatch.setattr(QSeries, name, classmethod(wrapped))
    real_init = QSeries.__init__

    def init(self, *args, **kwargs):
        made.append("__init__")
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(QSeries, "__init__", init)
    return made


def test_bases_compare_by_their_tails(monkeypatch):
    # a view of a larger entry against a fresh walk of the same 60
    # elements: equality reads the tails, cut to the view's count and
    # precision, and makes no series
    monkeypatch.setattr(qseries, "_store", {})
    key = (2, 0, INF)
    entry = build_basis(*key, 80, 90)
    view = build_basis(*key, 60, 70)
    fresh = basis_mod._walk(*key, 60, 70)
    made = _count_series_made(monkeypatch)
    assert view.stored is not fresh.stored
    assert view == fresh and fresh == view
    for m, e in ((0, 1), (30, 40), (59, 69)):
        assert add_to_tail(fresh, m, e) != view, (m, e)
    assert _cut(add_to_tail(entry, 0, 80), 60, 70) == fresh
    assert _cut(add_to_tail(entry, 70, 40), 60, 70) == fresh
    assert made == []


@pytest.mark.parametrize("key", [(2, 0, INF), (5, -4, HAT), (13, 4, INF)])
def test_a_covered_request_copies_nothing_until_an_element_is_read(
        key, monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    B = gap_bound(*key)
    build_basis(*key, 12, B + 40)
    made = _count_series_made(monkeypatch)
    b = build_basis(*key, 8, B + 25)
    assert made == []
    for reads, m in enumerate(b.indices, 1):
        b.element(m)
        assert len(made) == reads, (m, made)
    # at the entry's own size too, each read makes its one series
    read = len(made)
    whole = build_basis(*key, 12, B + 40)
    for m in whole.indices:
        whole.element(m)
    assert len(made) == read + whole.count


def test_every_view_equals_a_build_at_its_request(monkeypatch):
    # grids, traced duality checks and a hat trace ask for bases of
    # overlapping keys at many sizes, so most requests are views of
    # entries built for an earlier, larger or later request
    monkeypatch.setattr(qseries, "_store", {})
    monkeypatch.setattr(qseries, "_stats", {})
    seen = []
    real = basis_mod.build_basis

    def recording(*request):
        b = real(*request)
        seen.append((request, b))
        return b

    monkeypatch.setattr(basis_mod, "build_basis", recording)
    monkeypatch.setattr(traceops_mod, "build_basis", recording)
    for N, k, count in ((1, 2, 14), (6, -2, 10), (13, 4, 6)):
        build_grid(N, k, count)
    assert empirical_preserves(4, 2, -2) is True
    assert empirical_preserves(9, 1, 2) is False
    # a level-4 weight-4 basis at a higher precision than the traces above
    trace(4, 2, 4, HAT, 3)
    assert qseries.store_stats()["basis"]["rebuilds"] > 0
    # the level-1 grid leaves entries more precise than the traces ask for
    assert any(len(b.stored[-1]) > b.prec - b.gap_bound - 1
               for _, b in seen)
    for (N, k, space, count, prec), got in seen:
        want = _direct_build(N, k, space, count, prec)
        assert got == want, (N, k, space, count, prec)
        assert [got.element(m) for m in got.indices] == \
            [want.element(m) for m in want.indices], (N, k, space, count)
        pairs = [(m, Fraction(m - got.m0 + 2, 3)) for m in got.indices]
        for cut in (prec - 1, prec + 5):
            assert QSeries.combination(
                ((c, got.element(m)) for m, c in pairs), cut) == \
                QSeries.combination(
                    ((c, want.element(m)) for m, c in pairs), cut), (N, k, cut)
        # a window is read uncut below prec, and not at all past it
        for m in got.indices:
            for lo in (-m, prec - 3):
                assert got.numerators(m, lo, prec) == \
                    want.element(m).numerators(lo, prec), (N, k, m, lo)
            with pytest.raises(PrecisionError):
                got.numerators(m, prec - 1, prec + 1)


def test_a_window_past_the_view_precision_names_the_element(monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    # the entry is known further than the view, which still refuses
    build_basis(4, 0, INF, 5, 50)
    view = build_basis(4, 0, INF, 5, 10)
    with pytest.raises(PrecisionError,
                       match=r"^coefficient q\^39 of basis index 1 of level 4 "
                             r"weight 0 inf not determined at prec 10$"):
        view.numerators(1, 0, 40)
    assert view.numerators(1, 0, 10) == \
        view.element(1).numerators(0, 10)
    assert view.numerators(1, 40, 40) == []


@pytest.mark.parametrize("N", ALL_LEVELS)
def test_the_tail_reader_reads_what_the_element_holds(N, monkeypatch):
    # a walked weight and a transposed one, in both spaces; every window
    # from below the lead q^-m up to the precision, empty ones included
    monkeypatch.setattr(qseries, "_store", {})
    for k, space in ((-2, INF), (-2, HAT), (4, INF), (4, HAT)):
        B = gap_bound(N, k, space)
        b = build_basis(N, k, space, 4, max(B + 1, 0) + 6)
        for m in b.indices:
            e = b.element(m)
            for lo in range(-m - 2, b.prec + 1):
                for hi in range(lo, b.prec + 1):
                    assert b.numerators(m, lo, hi) == e.numerators(lo, hi), \
                        (k, space, m, lo, hi)


@pytest.mark.parametrize("N, k, space", [(1, 0, INF), (6, -2, HAT),
                                         (13, -4, INF), (18, 4, INF),
                                         (25, 2, HAT)])
def test_the_builders_hand_over_int_tails_and_make_no_series(
        N, k, space, monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    count, prec = 6, gap_bound(N, k, space) + 12
    builders = [basis_mod._transpose]
    if k <= 0:
        # the inputs are series; given them, the builders make none
        # (the walk and the recursion read the first element to q^reach,
        # reach <= prec + count - 1, from q^(B+1) on)
        B = gap_bound(N, k, space)
        psi, top = basis_mod._inputs(N, k, space, count, prec,
                                     prec + count - 1)
        monkeypatch.setattr(basis_mod, "_inputs", lambda *args: (
            psi, top[:args[-1] - B - 1]))
        builders = [basis_mod._walk, _recursion]
    else:
        # the source is a store hit from here on
        build_basis(N, k, space, count, prec)
    made = _count_series_made(monkeypatch)
    for build in builders:
        b = build(N, k, space, count, prec)
        assert made == [], build
        assert type(b.stored) is tuple and len(b.stored) == count
        assert all(type(t) is tuple and len(t) == prec - b.gap_bound - 1
                   and all(type(x) is int for x in t) for t in b.stored)


def test_a_view_outlives_the_rebuild_of_its_entry(monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    key = (5, -4, HAT)
    build_basis(*key, 9, 30)
    view = build_basis(*key, 4, 20)
    before = [view.element(m) for m in view.indices]
    build_basis(*key, 14, 45)
    assert qseries._store[("basis", *key)][0] == (14, 45)
    assert [view.element(m) for m in view.indices] == before
    assert view == build_basis(*key, 4, 20)


@pytest.mark.parametrize("N, k", [(1, 0), (5, 0), (2, -6), (9, 4)])
def test_recursion_expands_the_hauptmodul_as_far_as_it_reads(N, k,
                                                             monkeypatch):
    count, prec = 10, 30
    monkeypatch.setattr(qseries, "_store", {})
    _recursion(N, k, INF, count, prec)
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


def walk_cases():
    """Every level, even k in [-10, 0] and both spaces, at each (count, prec)
    whose prec reaches past the gap bound B."""
    for N in ALL_LEVELS:
        for k in range(-10, 1, 2):
            for space in (INF, HAT):
                B = gap_bound(N, k, space)
                for count, prec in ((1, B + 1), (3, B + 2), (12, 30), (25, 25),
                                    (5, 60), (40, 20), (30, 70)):
                    if prec > B:
                        yield N, k, space, count, prec


WALK_CASES = list(walk_cases())


@pytest.mark.parametrize("N", ALL_LEVELS)
def test_walk_equals_the_recursion(N):
    assert len(WALK_CASES) == 1260
    for case in WALK_CASES:
        if case[0] == N:
            assert basis_mod._walk(*case) == _recursion(*case), case


# (1, 0, inf, 100, 100) is wide: on its diagonal 198 the cell the division
# gives, a(98, 100), lies one column past the last column kept
@pytest.mark.parametrize("N, k, space, count, prec", [
    (1, 0, INF, 100, 106), (16, -10, INF, 100, 126), (18, -6, HAT, 100, 131),
    (12, -2, HAT, 105, 114), (1, 0, INF, 100, 100)])
def test_walk_equals_the_recursion_at_depth(N, k, space, count, prec):
    assert basis_mod._walk(N, k, space, count, prec) == \
        _recursion(N, k, space, count, prec)


# the stride t of each level's psi and first elements, where it is not 1:
# the translation z -> z + 1/t normalizes Gamma_0(N)
STRIDES = {4: 2, 8: 2, 12: 2, 9: 3, 18: 3, 16: 4}


@pytest.mark.parametrize("N", ALL_LEVELS)
def test_the_recursion_vanishes_off_the_stride(N):
    # q -> zeta_t q fixes the space and the canonical elements are unique,
    # so a(m, n) = 0 unless t | m + n: a fact of the recursion, the oracle,
    # not of the walk, which skips those cells
    count, prec = 20, 40
    for k in range(-10, 1, 2):
        for space in (INF, HAT):
            B = gap_bound(N, k, space)
            t = basis_mod._stride(*basis_mod._inputs(
                N, k, space, count, prec, prec + count - 1))
            assert t == STRIDES.get(N, 1), (k, space)
            built = _recursion(N, k, space, count, prec)
            for m in built.indices:
                row = built.numerators(m, B + 1, prec)
                assert not any(c for n, c in enumerate(row, B + 1)
                               if (m + n) % t), (k, space, m)


def tall_cases():
    """Every level, even k in [-10, 0] and both spaces, at shapes with
    prec >= m0 + count + 2, whose diagonals from 2 (m0 + count) on are
    walked down: counts 1 to 5 up to prec 200, and the first diagonal so
    walked, prec = m0 + count + 2, at larger counts."""
    for N in ALL_LEVELS:
        for k in range(-10, 1, 2):
            for space in (INF, HAT):
                m0 = -gap_bound(N, k, space)
                for count, prec in ((1, 200), (2, 60), (3, 90), (5, 100),
                                    (4, m0 + 6), (12, m0 + 14),
                                    (20, m0 + 22)):
                    if prec > -m0:
                        yield N, k, space, count, prec


TALL_CASES = list(tall_cases())


@pytest.mark.parametrize("N", ALL_LEVELS)
def test_walk_equals_the_recursion_on_tall_shapes(N):
    assert len(TALL_CASES) == 1260
    for case in TALL_CASES:
        if case[0] == N:
            assert basis_mod._walk(*case) == _recursion(*case), case


def _mutant_walk(old, new):
    """basis._walk with one piece of its source replaced."""
    source = textwrap.dedent(inspect.getsource(basis_mod._walk))
    assert source.count(old) == 1, old
    namespace = dict(vars(basis_mod))
    exec(compile(source.replace(old, new), basis_mod.__file__, "exec"),
         namespace)
    return namespace["_walk"]


WALK_FAILURE = r"anti-diagonal walk of level \d+ weight -?\d+ (inf|hat) " \
               r"index -?\d+ prec \d+ (has a non-integral|misses the first)"


def _read_psi_off_by_one(monkeypatch):
    """Make both builders read the Hauptmodul with psi_7 one too large."""
    real = basis_mod._inputs

    def off_by_one(*args):
        psi, first = real(*args)
        psi = list(psi)
        psi[8] += 1
        return psi, first

    monkeypatch.setattr(basis_mod, "_inputs", off_by_one)


@pytest.mark.parametrize("N, k, space, count, prec", [
    (1, -6, HAT, 30, 36), (5, -4, HAT, 30, 40), (13, -2, INF, 30, 36),
    (4, -4, HAT, 30, 40), (9, -2, INF, 30, 36)])
def test_walk_raises_on_a_wrong_hauptmodul_coefficient(N, k, space, count,
                                                       prec, monkeypatch):
    # the recursion turns a wrong psi_s into a wrong basis; the walk's
    # divisions and its check against the first element refuse it.  At
    # level 4 psi_7 is on the stride 2; at level 9 it is off the stride 3,
    # which then drops to 1.
    right = _recursion(N, k, space, count, prec)
    _read_psi_off_by_one(monkeypatch)
    assert _recursion(N, k, space, count, prec) != right
    with pytest.raises(AssertionError, match=WALK_FAILURE):
        basis_mod._walk(N, k, space, count, prec)


@pytest.mark.parametrize("N, k, space, i", [
    (4, -4, HAT, 2), (9, -2, INF, 0), (16, -6, INF, 1), (12, -2, HAT, 4),
    (4, 0, INF, 0), (9, 0, HAT, 3)])
def test_walk_refuses_or_follows_an_off_stride_first_element(N, k, space, i,
                                                             monkeypatch):
    # one coefficient of the first element off the stride drops it to 1, so
    # the walk either refuses the inputs or builds what the recursion builds
    # from them
    count, prec = 30, 40
    real = basis_mod._inputs

    def off_stride(*args):
        psi, top = real(*args)
        assert (i + 1) % STRIDES[N] and basis_mod._stride(psi, top) > 1
        top = list(top)
        top[i] += 1
        return psi, top

    monkeypatch.setattr(basis_mod, "_inputs", off_stride)
    try:
        walked = basis_mod._walk(N, k, space, count, prec)
    except AssertionError as exc:
        assert re.match(WALK_FAILURE, str(exc)), exc
    else:
        assert walked == _recursion(N, k, space, count, prec)


@pytest.mark.parametrize("N", [1, 5, 13])
def test_walk_cannot_see_a_wrong_hauptmodul_at_weight_zero(N, monkeypatch):
    # With first element 1 the elements are the Faber polynomials of psi,
    # whose coefficients satisfy m a(n, m) = n a(m, n) for every psi, so a
    # wrong psi_s passes the walk as it passes the recursion
    right = _recursion(N, 0, INF, 30, 36)
    _read_psi_off_by_one(monkeypatch)
    wrong = _recursion(N, 0, INF, 30, 36)
    assert wrong != right
    assert basis_mod._walk(N, 0, INF, 30, 36) == wrong


@pytest.mark.parametrize("N, k, space, count, prec", [
    (5, -4, HAT, 30, 40), (13, -2, INF, 30, 36), (16, -10, INF, 50, 76)])
def test_walk_raises_on_a_wrong_correction_term(N, k, space, count, prec):
    assert gap_bound(N, k, space) < -1
    walk = _mutant_walk("sum(map(mul, weighted[m], mirrored[n]))",
                        "sum(map(mul, weighted[m], mirrored[n])) + 1")
    with pytest.raises(AssertionError, match=WALK_FAILURE):
        walk(N, k, space, count, prec)


@pytest.mark.parametrize("shape", [
    (5, 0, INF, 101, 106), (18, -10, INF, 20, 56), (5, 0, INF, 1, 200),
    (2, -2, HAT, 5, 60)], ids=["deep", "sweep", "tall", "tall-hat"])
def test_every_weight_nonpositive_miss_runs_the_walk(shape, monkeypatch):
    # a deep grid's source, a sweep grid's source with gap bound -30, and
    # two tall shapes, prec >> m0 + count; a hat miss walks only the inf
    # key it is read off, at d = v - u more elements and through q^(v+1)
    monkeypatch.setattr(qseries, "_store", {})
    ran = []
    real = basis_mod._walk

    def walk(*args):
        ran.append(args)
        return real(*args)

    monkeypatch.setattr(basis_mod, "_walk", walk)
    build_basis(*shape)
    N, k, space, count, prec = shape
    v = v_of(N, k)
    d = v - gap_bound(N, k, space)
    assert ran == [(N, k, INF, count + d, max(prec, v + 2))]


def _walk_steps(*args):
    """basis._walk(*args), and what it computes: ("K", M, n) for each call
    K(M, n), the chain step between a(M, n+1) and a(M+1, n) in either
    direction, and ("exact", M, n) for each exact division, which gives
    a(M, n)."""
    codes = {c for c in basis_mod._walk.__code__.co_consts
             if getattr(c, "co_name", None) in ("K", "exact")}
    assert len(codes) == 2
    steps = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            steps.append((frame.f_code.co_name, frame.f_locals["M"],
                          frame.f_locals["n"]))

    sys.setprofile(profile)
    try:
        out = basis_mod._walk(*args)
    finally:
        sys.setprofile(None)
    return out, steps


# stride and non-stride levels, gap bound 0 and below, both spaces
GROWTH_KEYS = [(1, 0, INF), (5, 0, INF), (13, -4, INF), (4, 0, INF),
               (9, -4, INF), (5, -2, HAT), (4, 0, HAT), (16, -6, HAT)]


@pytest.mark.parametrize("key", GROWTH_KEYS, ids=str)
@pytest.mark.parametrize("grown", [
    lambda m0: (14, 10), lambda m0: (6, 25), lambda m0: (12, 22),
    lambda m0: (8, m0 + 8 + 12)], ids=["count", "prec", "both", "tall"])
def test_a_growing_walk_equals_a_fresh_walk(key, grown):
    # from 6 elements to q^10: by count only, by prec only, by both, and
    # into a tall shape, prec >= m0 + count + 2
    N, k, space = key
    B = gap_bound(N, k, space)
    old = basis_mod._walk(*key, 6, 10)
    size = grown(-B)
    fresh, fresh_steps = _walk_steps(*key, *size)
    grew, steps = _walk_steps(*key, *size, old)
    assert grew == fresh
    # no step relates two coefficients of old's rectangle, and no division
    # gives one of them
    def known(M, n):
        return -B <= M < -B + 6 and B < n < 10

    for name, M, n in steps:
        cells = [(M, n)] if name == "exact" else [(M, n + 1), (M + 1, n)]
        assert not all(known(*cell) for cell in cells), (name, M, n)
    # each diagonal the rectangle meets saves at least its known
    # coefficients but one, those off the stride being zeros in both walks
    t = STRIDES.get(N, 1)
    cells = [(M, n) for M in range(-B, -B + 6) for n in range(B + 1, 10)
             if (M + n) % t == 0]
    assert len(fresh_steps) - len(steps) >= \
        len(cells) - len({M + n for M, n in cells})


def test_a_store_entry_grows_by_its_walk(monkeypatch):
    # every miss on a stored weight k <= 0 inf key hands the walk the entry
    # it replaces, and the grown entry is the fresh walk's
    monkeypatch.setattr(qseries, "_store", {})
    real = basis_mod._walk
    olds = []

    def walk(*args):
        olds.append(args[5:])
        return real(*args)

    monkeypatch.setattr(basis_mod, "_walk", walk)
    rng = random.Random(7)
    for N, k in [(2, 0), (9, -2), (25, -6)]:
        sizes = []
        for _ in range(6):
            count, prec = rng.randrange(1, 20), rng.randrange(1, 40)
            entry = qseries._store.get(("basis", N, k, INF))
            del olds[:]
            b = build_basis(N, k, INF, count, prec)
            sizes.append((count, prec))
            size, grown = qseries._store[("basis", N, k, INF)]
            if entry is None:
                assert olds == [()]
            elif entry[1] is grown:
                assert olds == []
            else:
                assert olds == [(entry[1],)]
            assert grown == real(N, k, INF, *size), (N, k, sizes)
            assert b == real(N, k, INF, count, prec), (N, k, sizes)


@pytest.mark.parametrize("N", ALL_LEVELS)
def test_the_hat_builder_equals_the_hat_walk(N, monkeypatch):
    for k in range(-10, 1, 2):
        u = gap_bound(N, k, HAT)
        for count, prec in ((1, u + 1), (5, u + 3), (12, u + 12),
                            (20, u + 30)):
            monkeypatch.setattr(qseries, "_store", {})
            assert basis_mod._hat_from_inf(N, k, HAT, count, prec) == \
                basis_mod._walk(N, k, HAT, count, prec), (k, count, prec)


def test_no_hat_miss_runs_the_walk_of_a_hat_key(monkeypatch):
    # cold and growing hat requests, directly and through grids of both
    # signs of weight, walk only inf keys
    monkeypatch.setattr(qseries, "_store", {})
    real = basis_mod._walk
    spaces = []

    def walk(*args):
        spaces.append(args[2])
        return real(*args)

    monkeypatch.setattr(basis_mod, "_walk", walk)
    for N in ALL_LEVELS:
        for k in (-6, -2, 0):
            u = gap_bound(N, k, HAT)
            for count, prec in ((3, u + 2), (9, u + 5), (4, u + 20)):
                build_basis(N, k, HAT, count, prec)
        for k in (-4, 2, 8):
            build_grid(N, k, 10)
    assert spaces and set(spaces) == {INF}


def _outcome(build, *args):
    """The outcome of build(*args): "ok", or the name of the
    AssertionError it raised."""
    try:
        build(*args)
    except AssertionError as exc:
        return type(exc).__name__
    return "ok"


def _hat_outcomes(N, k, count, prec, psi=None):
    """The outcomes of the hat walk and of the hat builder on a cold store,
    with the Hauptmodul replaced by `psi` when one is given."""
    outcomes = []
    for build in (basis_mod._walk, basis_mod._hat_from_inf):
        qseries._store.clear()
        if psi is not None:
            qseries._store[("haupt", N)] = ((psi.prec,), psi)
        outcomes.append(_outcome(build, N, k, HAT, count, prec))
    return outcomes


@pytest.mark.parametrize("N", ALL_LEVELS)
def test_the_hat_builder_refuses_a_wrong_cusp_polynomial_as_the_walk(
        N, monkeypatch):
    # +1 on one coefficient of the cusp-killing polynomial: both builders
    # raise, or neither does, on every shape (a mutated lead makes the
    # first element not monic; any other stays in the inf space)
    monkeypatch.setattr(qseries, "_store", {})
    real = basis_mod.get_level
    poly = real(N).cusp_poly
    for i in range(len(poly)):
        level = real(N)._replace(cusp_poly=tuple(
            c + (j == i) for j, c in enumerate(poly)))
        monkeypatch.setattr(basis_mod, "get_level",
                            lambda n: level if n == N else real(n))
        for k in (-4, 0):
            u = gap_bound(N, k, HAT)
            for count, prec in ((1, u + 1), (5, u + 3), (12, u + 12),
                                (20, u + 30)):
                walk, hat = _hat_outcomes(N, k, count, prec)
                assert walk == hat, (i, k, count, prec)
                assert (walk != "ok") == (i == len(poly) - 1)


@pytest.mark.parametrize("N", ALL_LEVELS)
def test_the_hat_builder_refuses_a_wrong_hauptmodul_as_the_walk(
        N, monkeypatch):
    # psi + q^3 or psi + q^5: on the widest shape both builders raise, or
    # neither does.  On narrower ones the hat walk checks less than the
    # walk of the inf basis the builder reads (count + d elements through
    # q^(v+1)), so the builder refuses wherever the walk does, and more.
    monkeypatch.setattr(qseries, "_store", {})
    raised = 0
    for e in (3, 5):
        psi = hauptmodul_series(N, 200)
        psi = psi + QSeries({e: 1}, psi.prec)
        for k in (0, -2):
            u = gap_bound(N, k, HAT)
            walk, hat = _hat_outcomes(N, k, 20, u + 30, psi)
            assert walk == hat, (e, k)
            raised += walk != "ok"
            for count, prec in ((1, u + 1), (5, u + 3), (12, u + 12)):
                walk, hat = _hat_outcomes(N, k, count, prec, psi)
                assert walk == "ok" or hat == walk, (e, k, count, prec)
    # weight -2 is refused on every level; the hat elements of weight 0
    # are polynomials in psi, and no check of either builder sees psi move
    assert raised == 2


def test_the_hat_builder_checks_the_first_element(monkeypatch):
    # the inf basis is stored first, so that only the hat builder reads
    # the first element with its q^(v+1) coefficient moved
    monkeypatch.setattr(qseries, "_store", {})
    build_basis(5, -2, INF, 40, 40)
    real = basis_mod._inputs

    def moved(*args):
        psi, top = real(*args)
        return psi, top[:-1] + [top[-1] + 1]

    monkeypatch.setattr(basis_mod, "_inputs", moved)
    with pytest.raises(AssertionError,
                       match=r"^hat basis of level 5 weight -2 hat read off "
                             r"inf misses the first element's coefficient "
                             r"at q\^-1$"):
        build_basis(5, -2, HAT, 10, 20)


def test_the_hat_builder_check_survives_optimize():
    code = """
import sys
from gridforge import basis
assert False, "assert statements are not stripped"
basis.build_basis(5, -2, basis.INF, 40, 40)
real = basis._inputs

def moved(*args):
    psi, top = real(*args)
    return psi, top[:-1] + [top[-1] + 1]

basis._inputs = moved
try:
    basis.build_basis(5, -2, basis.HAT, 10, 20)
except AssertionError as exc:
    if "read off inf misses the first element" in str(exc):
        sys.exit(5)
"""
    src = str(Path(gridforge.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 5, proc.stderr


@pytest.mark.parametrize("N, k", [(1, 0), (5, 0), (2, -6), (9, -4)])
def test_walk_reads_as_far_as_the_recursion(N, k, monkeypatch):
    count, prec = 40, 30
    work, m0 = prec + count - 1, -v_of(N, k)
    for build in (basis_mod._walk, _recursion):
        monkeypatch.setattr(qseries, "_store", {})
        build(N, k, INF, count, prec)
        assert qseries._store[("haupt", N)][1].prec == work + m0 - 1


@pytest.mark.parametrize("shape, reach", [
    # m0 + count: the square of the requested rows
    ((5, 0, INF, 30, 25), 30), ((9, -4, INF, 20, 12), 24),
    # prec = m0 + count + 1, the widest shape no diagonal is walked down in
    ((1, 0, INF, 20, 21), 21), ((13, -2, HAT, 6, 12), 12),
    # prec >= m0 + count + 2: work = prec + count - 1, as the recursion
    ((5, 0, INF, 3, 25), 27), ((2, -2, HAT, 5, 60), 64),
    ((18, -10, INF, 2, 34), 35)])
def test_walk_asks_for_the_first_element_as_far_as_it_reads(
        shape, reach, monkeypatch):
    N, k, space, count, prec = shape
    asked, psi_prec = [], []
    real = basis_mod.first_element

    def first(*args):
        # the Hauptmodul is asked for first; a hat first element may expand
        # it further for its cusp-killing polynomial
        psi_prec.append(qseries._store[("haupt", N)][1].prec)
        asked.append(args)
        return real(*args)

    monkeypatch.setattr(qseries, "_store", {})
    monkeypatch.setattr(basis_mod, "first_element", first)
    basis_mod._walk(*shape)
    assert asked == [(N, k, space, reach)]
    # the Hauptmodul is read to q^(work + m0 - 2), as the recursion reads it
    work, m0 = prec + count - 1, -gap_bound(N, k, space)
    assert psi_prec == [work + m0 - 1]


def test_non_integral_first_element_raises_in_the_walk(monkeypatch):
    real = basis_mod.first_element

    def halved(N, k, space, prec):
        s = real(N, k, space, prec)
        return s + QSeries({s.valuation() + 2: Fraction(1, 2)}, prec)

    monkeypatch.setattr(qseries, "_store", {})
    monkeypatch.setattr(basis_mod, "first_element", halved)
    with pytest.raises(IntegralityError,
                       match=r"level 5 weight 0 inf index 0 prec 30.*"
                             r"1/2 at q\^2"):
        basis_mod._walk(5, 0, INF, 30, 25)


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
    return cert._replace(terms=tuple(
        (c, tuple(new if f == old else f for f in factors), j)
        for c, factors, j in cert.terms))


def test_certificate_prefix_must_reach_the_maximal_order(
        install_certificate):
    cert = certificates()[(13, 6)]
    v = v_of(13, 6)
    # the seed leads with q^v, so the prefix pinned below q^v is empty
    short = tuple((e, c) for e, c in cert.expected if e < v)
    install_certificate(13, 6, cert._replace(expected=short))
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
