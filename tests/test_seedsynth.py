import random

import pytest

from gridforge import seedsynth
from gridforge.basis import level_form
from gridforge.leveldata import ALL_LEVELS, certificates, get_level
from gridforge.seedsynth import (
    POLE_BOUND,
    SynthesisError,
    _atoms,
    _seed_family,
    build_family,
    derive_certificate,
    family_audit,
    row_reduce,
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


@pytest.mark.parametrize("N,k", [(2, 4), (3, 4), (3, 6), (5, 2), (5, 4),
                                 (7, 6), (13, 12)])
def test_synthesis_reproduces_closed_forms(N, k):
    # the target's own closed form is excluded from the spanning family,
    # so this is a genuine oracle-equivalence check
    s = synthesize_seed(N, k, 25)
    assert s == level_form(N, k, 25)


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
    fam = build_family(10, 2, 6, 30)
    members = list(fam.members)
    cap = min(s.prec for _, s in members)
    base = row_reduce(members, -6, cap)
    rng = random.Random(99)
    for _ in range(3):
        shuffled = members[:]
        rng.shuffle(shuffled)
        piv = row_reduce(shuffled, -6, cap)
        assert piv[-1][0] == base[-1][0]
        assert piv[-1][2] == base[-1][2]


def test_synthesis_rejects_negative_vanishing():
    with pytest.raises(ValueError):
        synthesize_seed(5, -2, 20)


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
    assert labels == [l for l, _ in _seed_family(7, 6, 20).members]
