import random

import pytest

from gridforge import seedsynth
from gridforge.basis import level_form
from gridforge.leveldata import ALL_LEVELS, certificates, get_level, v_of
from gridforge.qseries import PrecisionError, QSeries
from gridforge.seedsynth import (
    POLE_BOUND,
    SynthesisError,
    _atoms,
    build_family,
    derive_certificate,
    family_audit,
    reduce_family,
    row_reduce,
    seed_of,
    synthesize_seed,
    weight_pool,
)
from test_leveldata import L10_W4_CERTIFICATE

CERTIFIED = sorted(certificates())

PINNED = {
    (7, 4): {2: 1, 3: 3, 4: 8, 5: 11},
    (10, 2): {2: 1, 3: 0, 4: 3, 5: -4, 6: 4, 7: 0, 8: 7},
    (10, 4): {6: 1, 7: -2, 8: 3, 9: -6, 10: 11},
    (13, 4): {4: 1, 5: 1, 6: 3, 7: 3, 8: 4, 9: 6},
    (13, 6): {6: 1, 7: 2, 8: 4, 9: 6, 10: 13, 11: 16},
    (25, 2): {4: 1, 5: 0, 6: 1, 7: 0, 8: 0, 9: 2, 10: 0, 11: 0, 12: 0,
              13: 0, 14: 3, 15: 0, 16: 2},
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_synthesized_seed_prefixes(key):
    N, k = key
    s = synthesize_seed(N, k, 30)
    for e, c in PINNED[key].items():
        assert s.coeff(e) == c, (N, k, e)


def test_five_seeds_are_certified():
    # the sixth pinned seed, (10, 4), is the eta quotient of its level's base
    assert CERTIFIED == sorted(set(PINNED) - {(10, 4)})


# each pinned seed, the (10, 4) eta quotient too, against its re-derivation
@pytest.mark.parametrize("N,k", sorted(PINNED))
def test_certificate_equals_synthesis(N, k):
    assert level_form(N, k, 100) == synthesize_seed(N, k, 100)


@pytest.mark.parametrize("N,k", sorted(PINNED))
def test_certificate_terms_are_rederived(N, k):
    # (10, 4) against the certificate it was stored as
    terms = (L10_W4_CERTIFICATE if (N, k) == (10, 4)
             else certificates()[(N, k)].terms)
    assert derive_certificate(N, k) == terms


def test_certificate_of_a_non_certificate_member_is_refused(monkeypatch):
    # with only the eta atoms left, the weight-8 family of level 2 is
    # seed2w4^2 times Hauptmodul powers; its top pivot, seed2w4^2 at the
    # maximal vanishing order, is reached, but no certificate factor
    # spells the eta quotient
    real = seedsynth._atoms
    monkeypatch.setattr(seedsynth, "_atoms", lambda N, exclude=(): [
        atom for atom in real(N, exclude) if atom[2][0] == "eta"])
    with pytest.raises(SynthesisError,
                       match=r"level 2 weight 8 needs the member "
                             r"seed2w4\*seed2w4, which is not a product"):
        derive_certificate(2, 8)


@pytest.mark.parametrize("N,k", [(2, 4), (3, 4), (3, 6), (5, 4), (6, 2),
                                 (7, 6), (13, 12)])
def test_synthesis_reproduces_closed_forms(N, k):
    # the target's tower base is excluded from the spanning family, and
    # here the seed is no single member of it (as phi_5 is at (5, 2)), so
    # the elimination derives it: a genuine oracle-equivalence check
    fam, pivots = reduce_family(N, k, 25)
    assert len(pivots[-1][2]) > 1
    assert seed_of((fam, pivots), 25) == level_form(N, k, 25)


@pytest.mark.parametrize("N, k, J", [(2, 4, 3), (7, 4, 2), (10, 2, 6),
                                     (13, 6, 1), (25, 4, 4)])
def test_family_members_are_known_exactly_to_prec(N, k, J):
    # the working precisions are exact: one term less of psi or of either
    # pool leaves a member short
    fam = build_family(N, k, J, 20)
    assert {s.prec for _, s in fam.members} == {20}


def test_family_members_respect_pole_bound():
    fam = build_family(13, 4, 2, 24)
    for label, s in fam.members:
        if not s.is_zero:
            assert s.valuation() >= -2, label


def test_family_contains_expected_members():
    labels = [label for label, _ in build_family(7, 4, 0, 12).members]
    assert "E4(1z)" in labels and "E4(7z)" in labels
    assert any(l.startswith("phi7*phi7") for l in labels)
    labels10 = [label for label, _ in build_family(10, 2, 0, 12).members]
    for want in ("phi2", "phi5", "phi10"):
        assert want in labels10


def test_row_reduction_is_order_independent():
    # the pivot exponents and the top pivot's series, the seed, do not
    # depend on the order of the members; the tags that spell it do
    fam = build_family(10, 2, 6, 30)
    members = list(fam.members)
    cap = min(s.prec for _, s in members)

    def reduced(ordered):
        pivots = row_reduce(ordered, -6, cap)
        top = QSeries.combination(
            [(c, ordered[i][1]) for i, c in pivots[-1][2]], cap)
        return [e for e, _, _ in pivots], top

    base = reduced(members)
    rng = random.Random(99)
    for _ in range(3):
        shuffled = members[:]
        rng.shuffle(shuffled)
        assert reduced(shuffled) == base


@pytest.mark.parametrize("N,k", sorted(PINNED))
def test_each_pivot_is_its_tagged_combination(N, k):
    # each pivot is sum c*member_i over its (i, c) tags, monic at its
    # exponent, with no c zero, and so is each derived certificate term
    v = v_of(N, k)
    fam, pivots = reduce_family(N, k, v + 1)
    assert [e for e, _, _ in pivots] == list(range(-POLE_BOUND, v + 1))
    for e, label, tags in pivots:
        assert all(c for _, c in tags)
        assert fam.members[tags[-1][0]][0] == label
        s = QSeries.combination([(c, fam.members[i][1]) for i, c in tags],
                                v + 1)
        assert (s.valuation(), s.coeff(e)) == (e, 1)
    assert all(c for c, _, _ in derive_certificate(N, k))


class Unread:
    def numerators(self, lo, hi):
        raise AssertionError("a member past a full window was read")


def test_the_elimination_stops_at_a_full_window(monkeypatch):
    # once every exponent of the window holds a pivot, no member after is
    # read: the one here is known only below q^1
    members = [("a", QSeries({0: 1, 1: 2}, 5)), ("b", QSeries({1: 1}, 5)),
               ("short", QSeries({0: 1}, 1))]
    assert row_reduce(members, 0, 2) == [(0, "a", ((0, 1),)),
                                         (1, "b", ((1, 1),))]
    # and the seed search leaves the rest of its family unread
    real = seedsynth.build_family

    def trailing(*args, **kw):
        fam = real(*args, **kw)
        return fam._replace(members=fam.members + (("unread", Unread()),))

    monkeypatch.setattr(seedsynth, "build_family", trailing)
    assert synthesize_seed(7, 4, 20) == level_form(7, 4, 20)


def test_a_family_short_of_the_valence_bound_is_refused(monkeypatch):
    # a family of one holomorphic member has its one pivot at q^0, short of
    # v_4(7) = 2
    real = seedsynth.build_family
    monkeypatch.setattr(seedsynth, "build_family", lambda *args, **kw:
                        real(*args, **kw)._replace(
                            members=real(*args, **kw).members[:1]))
    with pytest.raises(SynthesisError,
                       match=r"^row reduction reached vanishing order 0, "
                             r"not the registry maximum 2, for level 7 "
                             r"weight 4 \(pole bound 10\)$"):
        synthesize_seed(7, 4, 20)


def test_row_reduction_does_not_read_an_undetermined_coefficient_as_zero():
    # p is known only below q^2, so whether it has a pivot at q^2 .. q^4
    # is not determined
    members = [("p", QSeries({-3: 1}, 2)), ("q", QSeries({1: 1}, 9))]
    with pytest.raises(PrecisionError):
        row_reduce(members, 0, 5)
    assert [(e, label) for e, label, _ in row_reduce(members, 0, 2)] == \
        [(1, "q")]


def test_the_seed_search_stops_at_the_valence_bound(monkeypatch):
    # a nonzero member vanishes to order at most v, so the family is built
    # to max(prec, v + 1) and eliminated on the exponents through v only
    precs, caps = [], []
    real_build, real_reduce = seedsynth.build_family, seedsynth.row_reduce

    def build(N, k, J, prec, exclude=()):
        precs.append(prec)
        return real_build(N, k, J, prec, exclude)

    def reduce(members, e_min, e_cap):
        caps.append(e_cap)
        return real_reduce(members, e_min, e_cap)

    monkeypatch.setattr(seedsynth, "build_family", build)
    monkeypatch.setattr(seedsynth, "row_reduce", reduce)
    for N, k in CERTIFIED:
        v = v_of(N, k)
        for run, prec in ((lambda: synthesize_seed(N, k, 60), max(60, v + 1)),
                          (lambda: derive_certificate(N, k), v + 1)):
            precs.clear()
            caps.clear()
            run()
            assert (precs, caps) == ([prec], [v + 1]), (N, k)


def test_synthesis_rejects_negative_vanishing():
    with pytest.raises(ValueError):
        synthesize_seed(5, -2, 20)


def test_synthesis_refuses_a_precision_short_of_the_seed_lead(monkeypatch):
    # v_4(18) = 12: the seed is q^12 + O(q^13), so prec 12 determines none
    # of its terms, and the family is not built
    monkeypatch.setattr(seedsynth, "build_family", None)
    with pytest.raises(PrecisionError,
                       match=r"^seed of level 18 weight 4 starts at q\^12, so "
                             r"prec 12 determines none of its terms: need "
                             r"prec >= 13$"):
        synthesize_seed(18, 4, 12)


def test_family_rejects_bad_weight():
    with pytest.raises(ValueError):
        build_family(5, 0, 4, 20)


def test_weight_pool_exclusion():
    with_seed = [l for l, _ in weight_pool(5, 4, 20)]
    without = [l for l, _ in weight_pool(5, 4, 20, exclude=((5, 4),))]
    assert any(l.startswith("seed5w4") for l in with_seed)
    assert not any(l.startswith("seed5w4") for l in without)


@pytest.mark.parametrize("N", ALL_LEVELS)
def test_atom_labels_are_unique(N):
    # weight_pool walks non-decreasing atom indices, so it gives each
    # multiset of atoms once, under one label, only if no two atoms share
    # a label
    for exclude in ((), *(((N, w),) for w in get_level(N).seed.forms)):
        labels = [label for label, _, _ in _atoms(N, exclude)]
        assert len(labels) == len(set(labels)), (N, exclude)
    pool = [label for label, _ in weight_pool(N, 4, 6)]
    assert len(pool) == len(set(pool)), N


def test_family_audit_shape():
    audit = family_audit(7, 4, J=2, prec=20)
    assert audit["level"] == 7 and audit["weight"] == 4
    assert audit["rank"] >= 1
    assert audit["max_vanishing_achieved"] is not None
    assert all("label" in m and "valuation" in m for m in audit["members"])


def test_family_audit_matches_synthesis_family():
    audit = family_audit(7, 6, prec=20)
    labels = [m["label"] for m in audit["members"]]
    assert audit["pole_bound"] == POLE_BOUND
    assert not any(l.startswith("seed7w6") for l in labels)
    assert labels == [l for l, _ in reduce_family(7, 6, 20)[0].members]
