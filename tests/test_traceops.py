from fractions import Fraction
from operator import ge

import pytest

from gridforge import basis as basis_mod
from gridforge import qseries, traceops
from gridforge.basis import HAT, INF, build_basis, gap_bound
from gridforge.leveldata import ALL_LEVELS, GENUS_ZERO_LEVELS, u_of, v_of
from gridforge.qseries import QSeries
from gridforge.traceops import (
    classify,
    empirical_preserves,
    genfun_check,
    genfun_closed_form,
    mk_trivial,
    obstructions,
    sk_trivial,
    theorem_list_preserved,
    trace,
)


def test_triviality_predicates():
    assert mk_trivial(1, 2)
    assert mk_trivial(1, -4)
    assert not mk_trivial(1, 0)
    assert not mk_trivial(2, 0)
    assert mk_trivial(2, -2)
    assert sk_trivial(2, 6)
    assert not sk_trivial(2, 8)
    assert sk_trivial(1, 14)
    assert not sk_trivial(1, 12)
    assert sk_trivial(3, 4)
    assert not sk_trivial(3, 6)
    assert sk_trivial(5, 2)
    assert not sk_trivial(5, 4)


@pytest.mark.parametrize("check, counterpart, args", [
    (theorem_list_preserved, classify, (5, 3, 0)),
    (theorem_list_preserved, classify, (11, 1, 0)),
    (theorem_list_preserved, classify, (4, 2, 1)),
    (sk_trivial, mk_trivial, (5, 3)),
    (sk_trivial, mk_trivial, (11, 3)),
])
def test_predicates_refuse_what_their_counterparts_refuse(check, counterpart,
                                                          args):
    with pytest.raises(ValueError) as expected:
        counterpart(*args)
    with pytest.raises(ValueError) as refused:
        check(*args)
    assert str(refused.value) == str(expected.value)


def test_trace_level_four_weight_zero():
    r = trace(4, 1, 0, INF, 1, 10)
    assert r.applicable and r.method == "principal_part_mod_constants"
    assert [r.expansion.coeff(i) for i in (-1, 0, 1, 2, 3)] == \
        [1, 0, 196884, 21493760, 864299970]


def test_trace_level_two_weight_minus_six():
    r = trace(2, 1, -6, INF, 2, 10)
    assert r.combination == ((2, Fraction(1)), (1, Fraction(8)))
    assert [r.expansion.coeff(i) for i in (-2, -1, 0, 1)] == \
        [1, 8, -65760, -87553952]


def test_trace_hat_zero_and_nonzero():
    assert trace(2, 1, 8, HAT, -1, 10).expansion.is_zero
    g1 = trace(2, 1, 8, HAT, 1, 10).expansion
    assert [g1.coeff(i) for i in (-1, 1, 2, 3)] == \
        [1, 28404, 87326720, 22876173090]


def test_trace_identity():
    r = trace(5, 5, 4, INF, 3, 20)
    assert r.method == "identity"
    assert r.combination == ((3, Fraction(1)),)
    assert r.expansion == build_basis(5, 4, INF, 6, 20).element(3)


def test_trace_not_applicable():
    r = trace(2, 1, 8, INF, -2, 10)
    assert not r.applicable and "M_8(1)" in r.reason
    r2 = trace(2, 1, 12, HAT, -2, 10)
    assert not r2.applicable and "S_12(1)" in r2.reason


def test_trace_divisibility_guard():
    with pytest.raises(ValueError, match="does not divide"):
        trace(10, 4, 0, INF, 1, 10)


def test_trace_principal_part_soundness():
    # the result matches the input at every exponent up to the target gap
    for N, M, k, space in [(2, 1, -6, INF), (4, 2, -2, INF), (6, 3, -4, INF),
                           (2, 1, 8, HAT), (4, 1, 2, HAT), (10, 5, 2, HAT)]:
        b_n = v_of(N, k) if space == INF else u_of(N, k)
        b_m = v_of(M, k) if space == INF else u_of(M, k)
        src = build_basis(N, k, space, 3, max(20, b_m + 8))
        for m in src.indices:
            rep = trace(N, M, k, space, m, max(20, b_m + 8))
            assert rep.applicable
            for j in range(-m, b_m + 1):
                assert rep.expansion.coeff(j) == src.element(m).coeff(j), \
                    (N, M, k, space, m, j)


def test_trace_linearity_of_matching():
    # principal-part matching is linear: match a combination directly and
    # compare with the combination of traced elements
    N, M, k = 2, 1, -6
    b_m = v_of(M, k)
    src = build_basis(N, k, INF, 4, 25)
    tgt = build_basis(M, k, INF, 8, 25)
    alpha, beta = Fraction(3), Fraction(-7, 2)
    s = src.element(2).scale(alpha) + src.element(4).scale(beta)
    direct = QSeries.zero(25)
    for j in range(s.valuation(), b_m + 1):
        c = s.coeff(j)
        if c:
            direct = direct + tgt.element(-j).scale(c)
    combo = trace(N, M, k, INF, 2, 25).expansion.scale(alpha) + \
        trace(N, M, k, INF, 4, 25).expansion.scale(beta)
    assert direct == combo


def test_one_rule_decides_when_principal_parts_determine_a_trace():
    # the rule against its earlier spellings: M_k(M) = 0 on the full space,
    # S_k(M) = 0 on the subspace, and the constants at weight 0
    for M in ALL_LEVELS:
        for k in range(-20, 21, 2):
            for space, trivial, held in ((INF, mk_trivial, "M"),
                                         (HAT, sk_trivial, "S")):
                method, reason = traceops._trace_method(M, k, space)
                if trivial(M, k):
                    assert (method, reason) == ("principal_part", "")
                elif space == INF and k == 0:
                    assert (method, reason) == (
                        "principal_part_mod_constants", "")
                else:
                    assert (method, reason) == (
                        "none", "trace not determined by principal part: "
                        f"{held}_{k}({M}) != 0"), (M, k, space)


def test_empirical_duality_decides_where_both_sides_are_principal_parts():
    for N in GENUS_ZERO_LEVELS:
        for M in [m for m in ALL_LEVELS if N % m == 0]:
            for k in range(-10, 11, 2):
                undecided = M != N and not (mk_trivial(M, k)
                                            and sk_trivial(M, 2 - k))
                assert (empirical_preserves(N, M, k, box=1) is None) \
                    == undecided, (N, M, k)


def test_classify_examples():
    assert classify(2, 1, -4).preserved
    c = classify(2, 1, -6)
    assert not c.preserved and c.case == "f-side"
    assert classify(7, 7, 10).preserved
    c2 = classify(5, 1, 2)
    assert not c2.preserved and c2.case == "g-side"


def test_classify_matches_theorem_list():
    for N in GENUS_ZERO_LEVELS:
        for M in [m for m in ALL_LEVELS if N % m == 0]:
            for k in range(-10, 12, 2):
                assert classify(N, M, k).preserved == \
                    theorem_list_preserved(N, M, k), (N, M, k)


def test_empirical_agreement_sample():
    for N, M, k in [(2, 1, -6), (2, 1, -4), (3, 1, -2), (4, 2, -2),
                    (5, 1, -2), (6, 2, -4), (9, 3, -2), (2, 1, 2)]:
        e = empirical_preserves(N, M, k, box=8)
        assert e is not None
        assert e == classify(N, M, k).preserved, (N, M, k)
    # weight 0 is outside strict principal-part applicability
    assert empirical_preserves(4, 1, 0) is None


# keys is the number of weight <= 0 keys a check builds: one per level
# it reads, since every weight >= 2 basis is read off one of them
@pytest.mark.parametrize("check, keys", [
    (lambda: empirical_preserves(4, 2, -2), 2),
    (lambda: empirical_preserves(2, 1, -4), 2),
    (lambda: genfun_check(4, 1, 4, 10, side="dual"), 2),
    (lambda: not obstructions(18, 1, 10).is_empty, 2),
    (lambda: not obstructions(3, 1, -10).is_empty, 2),
    (lambda: genfun_closed_form(4, 2, 8), 1),
    (lambda: genfun_closed_form(25, 4, 12), 1),
], ids=["empirical-4-2-m2", "empirical-2-1-m4", "genfun-4-1-4-dual",
        "obstructions-18-1-10", "obstructions-3-1-m10", "closed-form-4-2",
        "closed-form-25-4"])
def test_index_sweeps_build_each_basis_once(check, keys, counting_builds):
    assert check()
    builds = counting_builds
    assert len(builds) == keys, builds
    assert all(n == 1 for n in builds.values()), builds


@pytest.mark.parametrize("N, M, k", [(2, 1, -4), (4, 2, -2), (9, 3, -2)])
def test_empirical_duality_asks_only_for_the_box_it_reads(N, M, k,
                                                          monkeypatch):
    # the traced box reads each side below q^need; a basis request above
    # that must be one build_basis itself requires
    box = 12
    need = max(-u_of(N, 2 - k), -v_of(N, k)) + box
    asked = []

    def recording(*request):
        asked.append(request)
        return build_basis(*request)

    monkeypatch.setattr(traceops, "build_basis", recording)
    assert empirical_preserves(N, M, k, box) is not None
    assert asked
    for r in asked:
        assert r[4] <= max(gap_bound(*r[:3]) + 1, need), r


def _applicable_triples():
    """Every non-identity (N, M, k) with N genus zero and even k in
    [-10, 10] whose traces principal-part matching gives on both sides."""
    return [(N, M, k) for N in GENUS_ZERO_LEVELS for M in ALL_LEVELS
            if N % M == 0 and M != N for k in range(-10, 11, 2)
            if mk_trivial(M, k) and sk_trivial(M, 2 - k)]


def _box_from_traces(N, M, k, box):
    """The duality box read off full trace() expansions: a[i][j] =
    a(m_i, n_j) of the traced f-family and b[j][i] = b(n_j, m_i) of the
    traced g-family."""
    f_ind = range(-v_of(N, k), -v_of(N, k) + box)
    g_ind = range(-u_of(N, 2 - k), -u_of(N, 2 - k) + box)
    need = max(f_ind.start, g_ind.start) + box
    tf = (trace(N, M, k, INF, m, need).expansion for m in f_ind)
    tg = (trace(N, M, 2 - k, HAT, n, need).expansion for n in g_ind)
    return ([[s.coeff(n) for n in g_ind] for s in tf],
            [[s.coeff(m) for m in f_ind] for s in tg])


def _single_trace_requests(N, M, k, space, indices, prec):
    """The basis requests of one trace() per index, top index first: the
    source through the element's index, and the target through the largest
    index its principal part names, which is the element's own when its
    pole q^-m lies at or below the target's gap bound."""
    b_n, b_m = gap_bound(N, k, space), gap_bound(M, k, space)
    for m in reversed(indices):
        build_basis(N, k, space, max(m + b_n + 1, 1),
                    max(prec, b_m + 1, b_n + 1))
        if -m <= b_m:
            build_basis(M, k, space, m + b_m + 1, max(prec, b_m + 1))


@pytest.mark.parametrize("box", [1, 5, 12])
def test_traced_box_equals_the_box_of_full_traces(box, monkeypatch):
    # coefficient by coefficient against the full traces; and on a cold
    # store the windowed box builds what one trace() per index built, at
    # the same sizes in the same order
    triples = _applicable_triples()
    assert len(triples) == 88
    real_cached = basis_mod.cached

    def misses_of(compute):
        monkeypatch.setattr(qseries, "_store", {})
        monkeypatch.setattr(qseries, "_stats", {})
        misses = []

        def cached(key, need, build):
            entry = qseries._store.get(key)
            if entry is None or not all(map(ge, entry[0], need)):
                misses.append((key, need))
            return real_cached(key, need, build)

        monkeypatch.setattr(basis_mod, "cached", cached)
        return compute(), misses

    for N, M, k in triples:
        f_ind = range(-v_of(N, k), -v_of(N, k) + box)
        g_ind = range(-u_of(N, 2 - k), -u_of(N, 2 - k) + box)
        need = max(f_ind.start, g_ind.start) + box
        windowed, new = misses_of(
            lambda: traceops._traced_box(N, M, k, box))
        _, old = misses_of(lambda: (
            _single_trace_requests(N, M, k, INF, f_ind, need),
            _single_trace_requests(N, M, 2 - k, HAT, g_ind, need)))
        assert new == old, (N, M, k)
        assert windowed == _box_from_traces(N, M, k, box), (N, M, k)
        assert all(type(x) is int for rows in windowed for row in rows
                   for x in row)
        a, b = windowed
        assert empirical_preserves(N, M, k, box) == all(
            a[i][j] + b[j][i] == 0 for i in range(box) for j in range(box))


# on (4, 2, -2) the traced f_{-2,m}, m = 1 .. 12, are read at the box's
# g-indices q^0 .. q^11, and the part of f_{-2,1} is the level-2 element of
# index 1 once; the target is known to q^13
@pytest.mark.parametrize("exponent, preserved", [(11, False), (12, True)],
                         ids=["inside", "above"])
def test_empirical_duality_reads_a_target_coefficient_inside_the_box(
        exponent, preserved, monkeypatch):
    real = traceops._basis_for
    hits = []

    def perturbed(N, k, sp, max_index, prec):
        b = real(N, k, sp, max_index, prec)
        if (N, k, sp) != (2, -2, INF):
            return b
        hits.append(b.prec)
        first, *rest = b.stored
        assert b.m0 == 1 and first.prec > 12
        return b._replace(stored=(first + QSeries({exponent: 1}, first.prec),
                                  *rest))

    assert empirical_preserves(4, 2, -2)
    monkeypatch.setattr(traceops, "_basis_for", perturbed)
    assert empirical_preserves(4, 2, -2) is preserved
    assert hits == [13]


@pytest.mark.parametrize("N, M, k", [(4, 2, -2), (2, 1, -4), (9, 3, -2)])
def test_empirical_duality_asks_for_each_basis_once(N, M, k, monkeypatch):
    # the source and the target of each side, each once at its top index,
    # and no single-index trace
    asked, traced = [], []

    def recording(*request):
        asked.append(request[:3])
        return build_basis(*request)

    monkeypatch.setattr(traceops, "build_basis", recording)
    monkeypatch.setattr(traceops, "trace", lambda *a: traced.append(a))
    assert empirical_preserves(N, M, k) is not None
    assert asked == [(N, k, INF), (M, k, INF),
                     (N, 2 - k, HAT), (M, 2 - k, HAT)]
    assert not traced
    assert genfun_check(2, 1, -6, 15)
    assert not traced


def test_trace_below_the_first_index_names_the_space():
    # the weight-0 hat space of level 5 starts at index 1, as u = -1
    with pytest.raises(ValueError,
                       match="index 0 at level 5 weight 0 hat$"):
        trace(5, 1, 0, HAT, 0)


def test_empty_checks_raise():
    with pytest.raises(ValueError, match="box must be >= 1"):
        empirical_preserves(4, 2, -2, box=0)
    with pytest.raises(ValueError, match="box must be >= 1"):
        empirical_preserves(5, 5, 0, box=-1)
    for side in ("k", "dual", "both"):
        with pytest.raises(ValueError, match="max index P must be >= 1"):
            genfun_check(2, 1, -6, -3, side=side)
    with pytest.raises(ValueError, match="max index P must be >= 1"):
        genfun_check(2, 1, -6, 0)
    with pytest.raises(ValueError, match="max index P must be >= 1"):
        genfun_closed_form(4, 0, 0)
    # side (B) compares q^r for r in [v, P), side (A) p^r in [-v-1, P); at
    # level 4, v = k/2
    for N, k, side, least, P in ((4, 16, "B", 9, 8), (4, 20, "B", 11, 8),
                                 (4, -18, "A", 9, 8), (4, -20, "A", 10, 8),
                                 (18, 6, "B", 19, 18)):
        with pytest.raises(ValueError, match=rf"side \({side}\) must be >= "
                                             rf"{least}, got {P}"):
            genfun_closed_form(N, k, P)
    assert genfun_closed_form(4, 14, 8)
    assert genfun_closed_form(4, -16, 8)
    assert genfun_closed_form(18, 6, 19)
    # the weight-(-6) identity at level 1 starts at index 1
    with pytest.raises(ValueError, match="weight -6 identity must be >= 2"):
        genfun_check(2, 1, -6, 1, side="k")
    assert empirical_preserves(4, 2, -2, box=1)
    assert genfun_check(2, 1, -6, 1, side="dual")


def test_odd_weight_is_refused_on_an_identity_pair():
    # the identity pair returned before the weight was checked
    for N, M in ((4, 4), (4, 2), (1, 1)):
        for check in (empirical_preserves, obstructions, classify):
            with pytest.raises(ValueError, match="^weight must be even$"):
                check(N, M, 3)
        with pytest.raises(ValueError, match="^weight must be even$"):
            genfun_check(N, M, -3, 8)


def test_obstruction_examples():
    ob = obstructions(2, 1, -6, 15)
    assert len(ob.pairs) == 1
    p = ob.pairs[0]
    assert p.side == "f"
    assert (p.f_level, p.f_weight, p.f_index) == (1, -6, 1)
    assert (p.g_level, p.g_weight, p.g_index) == (2, 8, -1)
    assert [p.g.coeff(i) for i in (1, 2, 3)] == [1, -8, 12]
    assert obstructions(2, 1, -4, 15).is_empty
    assert obstructions(4, 1, 0, 15).is_empty
    assert obstructions(5, 5, 8, 15).is_empty


def test_obstruction_classify_consistency():
    for N in (2, 3, 4, 5, 6, 8, 9):
        for M in [m for m in ALL_LEVELS if N % m == 0 and m != N]:
            for k in (-6, -4, -2, 0, 2, 4):
                assert obstructions(N, M, k, 12).is_empty == \
                    classify(N, M, k).preserved, (N, M, k)


def test_genfun_check_level_two():
    assert genfun_check(2, 1, -6, 15, side="k")
    assert genfun_check(2, 1, -6, 15, side="dual")
    assert genfun_check(2, 1, -6, 15, side="both")


def test_genfun_check_identity_trace():
    assert genfun_check(5, 5, -2, 8)
    assert genfun_check(13, 13, 4, 6)


def test_genfun_check_nonempty_dual_obstruction():
    assert genfun_check(2, 1, 8, 12, side="dual")
    assert genfun_check(4, 1, 4, 10, side="dual")


@pytest.mark.parametrize("args, calls, store", [
    ((2, 1, -6, 15, "both"), 8, (6, 2)),
    ((4, 1, 4, 10, "dual"), 5, (3, 0)),
    ((25, 1, -10, 12, "k"), 3, (3, 0)),
], ids=["2-1-m6-both", "4-1-4-dual", "25-1-m10-k"])
def test_genfun_check_asks_for_the_dual_family_once(args, calls, store,
                                                    monkeypatch):
    # the obstruction family's dual elements come from one request at its
    # top index, not one request per index
    monkeypatch.setattr(qseries, "_store", {})
    monkeypatch.setattr(qseries, "_stats", {})
    real = traceops._basis_for
    asked = []

    def recording(*request):
        asked.append(request[:3])
        return real(*request)

    monkeypatch.setattr(traceops, "_basis_for", recording)
    assert genfun_check(*args)
    assert len(asked) == calls, asked
    basis = qseries.store_stats()["basis"]
    assert (basis["misses"], basis["rebuilds"]) == store
    if args == (25, 1, -10, 12, "k"):
        assert asked.count((25, 12, HAT)) == 1


def test_genfun_check_requires_applicable_side():
    with pytest.raises(ValueError, match="not checkable"):
        genfun_check(2, 1, 8, 10, side="k")


@pytest.mark.parametrize("side, space, index", [("k", INF, 3),
                                                 ("dual", HAT, 2)])
def test_genfun_check_fails_on_a_perturbed_trace(side, space, index,
                                                 monkeypatch):
    # the matched principal part of one index names its own level-M
    # element once more, so that one trace is off by that element
    real = traceops._principal_parts
    hits = []

    def perturbed(N, M, k, sp, indices, prec):
        parts, target = real(N, M, k, sp, indices, prec)
        if sp != space or index not in indices:
            return parts, target
        hits.append(index)
        i = indices.index(index)
        parts[i] = [*parts[i], (index, 1)]
        return parts, target

    assert genfun_check(2, 1, -6, 15, side=side)
    monkeypatch.setattr(traceops, "_principal_parts", perturbed)
    assert not genfun_check(2, 1, -6, 15, side=side)
    assert not genfun_check(2, 1, -6, 15, side="both")
    assert hits


def test_genfun_check_fails_on_a_short_trace(monkeypatch):
    # a trace known one term below the working precision must fail the
    # check instead of comparing fewer coefficients
    real = traceops._principal_parts

    def short(N, M, k, sp, indices, prec):
        parts, target = real(N, M, k, sp, indices, prec)
        return parts, target._replace(prec=prec - 1)

    monkeypatch.setattr(traceops, "_principal_parts", short)
    assert not genfun_check(2, 1, -6, 15, side="k")


def _closed_form_prec(N, k):
    return max(8, abs(v_of(N, k)) + 2)


@pytest.mark.parametrize("N", [1, 4, 13, 18, 25])
def test_closed_form(N):
    for k in (-2, 0, 2, 4):
        assert genfun_closed_form(N, k, _closed_form_prec(N, k)), k
    assert genfun_closed_form(N, 0, 2)


# the weight-k family, and the weight-(2-k) one vanishing at the other cusps
@pytest.mark.parametrize("N, k", [(4, 2), (13, 4), (25, -2)],
                         ids=["4-2", "13-4", "25-m2"])
@pytest.mark.parametrize("family", ["f", "g"])
def test_closed_form_fails_on_a_perturbed_basis(N, k, family, monkeypatch):
    key = (N, k, INF) if family == "f" else (N, 2 - k, HAT)
    real = traceops._basis_for
    hits = []

    def perturbed(N, k, sp, max_index, prec):
        b = real(N, k, sp, max_index, prec)
        if (N, k, sp) != key:
            return b
        hits.append(b.m0)
        # one added term at the second element's first tail exponent
        first, second, *rest = b.elements
        second = second + QSeries({b.gap_bound + 1: 1}, second.prec)
        return b._replace(stored=(first, second, *rest))

    P = _closed_form_prec(N, k)
    assert genfun_closed_form(N, k, P)
    monkeypatch.setattr(traceops, "_basis_for", perturbed)
    assert not genfun_closed_form(N, k, P)
    assert hits


@pytest.mark.parametrize("N, k", [(4, 2), (13, 4), (25, -2)],
                         ids=["4-2", "13-4", "25-m2"])
@pytest.mark.parametrize("short", ["f-index", "f-prec", "g-index", "g-prec",
                                   "psi"])
def test_closed_form_asks_for_what_it_reads(N, k, short, monkeypatch):
    # each family to index P at precision P + 1 and psi to q^(2P-1); one
    # index, one term or one psi term less and the check cannot hold
    P = _closed_form_prec(N, k)
    family, _, what = short.partition("-")
    real_basis, real_psi = traceops._basis_for, traceops.hauptmodul_series

    def basis_for(N, k, space, max_index, prec):
        if space == (INF if family == "f" else HAT):
            max_index -= what == "index"
            prec -= what == "prec"
        return real_basis(N, k, space, max_index, prec)

    monkeypatch.setattr(traceops, "_basis_for", basis_for)
    monkeypatch.setattr(traceops, "hauptmodul_series", lambda N, prec: (
        real_psi(N, prec - (short == "psi"))))
    if what == "index":
        with pytest.raises(IndexError):
            genfun_closed_form(N, k, P)
    else:
        assert not genfun_closed_form(N, k, P)


def test_closed_form_fails_on_a_short_hauptmodul(monkeypatch):
    # psi * b_r needs psi to q^(P+r); known only to q^(P+1), the check must
    # fail instead of comparing fewer coefficients
    N, k, P = 4, 2, 8
    real = traceops.hauptmodul_series
    monkeypatch.setattr(traceops, "hauptmodul_series",
                        lambda N, prec: real(N, prec).truncate(P + 1))
    assert not genfun_closed_form(N, k, P)
