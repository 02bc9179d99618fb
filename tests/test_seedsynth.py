import random

import pytest

from gridforge.basis import level_form
from gridforge.leveldata import certificates
from gridforge.seedsynth import (
    POLE_BOUND,
    _seed_family,
    build_family,
    derive_certificate,
    family_audit,
    row_reduce,
    synthesize_seed,
    weight_pool,
)

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


def test_six_seeds_are_certified():
    assert CERTIFIED == sorted(PINNED)


@pytest.mark.parametrize("N,k", CERTIFIED)
def test_certificate_equals_synthesis(N, k):
    assert level_form(N, k, 100) == synthesize_seed(N, k, 100)


@pytest.mark.parametrize("N,k", CERTIFIED)
def test_certificate_terms_are_rederived(N, k):
    assert derive_certificate(N, k) == certificates()[(N, k)].terms


@pytest.mark.parametrize("N,k", [(2, 4), (3, 4), (3, 6), (5, 2), (5, 4),
                                 (7, 6), (13, 12)])
def test_synthesis_reproduces_closed_forms(N, k):
    # the target's own closed form is excluded from the spanning family,
    # so this is a genuine oracle-equivalence check
    s = synthesize_seed(N, k, 25)
    assert s == level_form(N, k, 25)


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
