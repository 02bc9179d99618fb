from fractions import Fraction
from math import gcd

import pytest

from gridforge import qseries
from gridforge.basis import hauptmodul_series, level_form
from gridforge.generators import EtaQuotient, eisenstein, phi
from gridforge.leveldata import (
    ALL_LEVELS,
    CONFORMANCE,
    GENUS_ZERO_LEVELS,
    Certificate,
    cusp_killer,
    get_level,
    registry_dump,
    u_of,
    v_of,
)
from gridforge.qseries import QSeries
from gridforge.traceops import mk_trivial
from test_generators import reference_delta, reference_level_one_form


def test_registry_membership():
    assert get_level(6).cusp_count == 4
    assert get_level(1).cusp_count == 1
    with pytest.raises(ValueError, match="level not genus zero"):
        get_level(11)
    with pytest.raises(ValueError):
        get_level(26)


def test_cusp_counts_match_cusp_lists():
    # Gamma_0(N) has sum over d | N of phi(gcd(d, N/d)) cusps
    for N in ALL_LEVELS:
        count = sum(sum(gcd(a, g) == 1 for a in range(g))
                    for d in range(1, N + 1) if N % d == 0
                    for g in [gcd(d, N // d)])
        assert get_level(N).cusp_count == len(get_level(N).cusps) + 1 == count


def test_hauptmoduln_have_simple_pole():
    for N in ALL_LEVELS:
        s = hauptmodul_series(N, 5)
        assert s.valuation() == -1 and s.coeff(-1) == 1


def test_cusp_polynomials_are_monic_with_zero_root():
    for N in GENUS_ZERO_LEVELS:
        ld = get_level(N)
        assert len(ld.cusp_poly) == ld.cusp_count
        assert ld.cusp_poly[-1] == 1
        assert ld.cusp_poly[0] == 0


def test_v_examples():
    assert v_of(13, 4) == 4
    assert v_of(2, -6) == -2
    assert u_of(2, 8) == 1
    assert u_of(18, 8) == 3 * 8 - 7
    assert v_of(1, 0) == 0 and v_of(1, 2) == -1
    assert v_of(13, 2) == 0 and v_of(13, 14) == 14
    assert v_of(25, 2) == 4 and v_of(10, 2) == 2
    with pytest.raises(ValueError):
        v_of(5, 3)


# The maximal orders of vanishing and the triviality of M_k(M) as they
# were tabulated per level before both were derived from the valence
# formula: the first element of weight k is F_base^l * F_k' for
# k = modulus*l + k'.

def _decompose(k, modulus, kprimes):
    for kp in kprimes:
        if (k - kp) % modulus == 0:
            return (k - kp) // modulus, kp
    raise AssertionError((k, modulus))


def reference_v_of(N, k):
    if N == 1:
        return _decompose(k, 12, (0, 4, 6, 8, 10, 14))[0]
    if N == 2:
        return _decompose(k, 4, (0, 2))[0]
    if N == 3:
        l, kp = _decompose(k, 6, (0, 2, 4))
        return 2 * l + kp // 3
    if N == 4:
        return k // 2
    if N == 5:
        return 2 * _decompose(k, 4, (0, 2))[0]
    if N in (6, 8, 9):
        return k
    if N == 7:
        l, kp = _decompose(k, 6, (0, 2, 4))
        return 4 * l + 2 * (kp // 3)
    if N == 10:
        l, kp = _decompose(k, 4, (0, 2))
        return 6 * l + kp
    if N in (12, 16):
        return 2 * k
    if N == 13:
        l, kp = _decompose(k, 12, (0, 2, 4, 6, 8, 10))
        return 14 * l if kp == 2 else 14 * l + kp
    if N == 18:
        return 3 * k
    if N == 25:
        l, kp = _decompose(k, 4, (0, 2))
        return 10 * l + 2 * kp
    raise AssertionError(N)


def reference_mk_trivial(M, k):
    return k == 2 or k < 0 if M == 1 else k < 0


def test_v_matches_the_per_level_table():
    for N in ALL_LEVELS:
        for k in range(-80, 82, 2):
            assert v_of(N, k) == reference_v_of(N, k), (N, k)
            assert mk_trivial(N, k) == reference_mk_trivial(N, k), (N, k)
        for k in (-79, -1, 1, 3, 79):
            with pytest.raises(ValueError, match="weight must be even"):
                v_of(N, k)


def test_uv_alignment():
    for N in ALL_LEVELS:
        for k in range(-20, 22, 2):
            assert u_of(N, 2 - k) == -v_of(N, k) - 1, (N, k)


def test_uv_monotonicity_genus_zero_divisors():
    for N in GENUS_ZERO_LEVELS:
        for M in [m for m in GENUS_ZERO_LEVELS if N % m == 0]:
            for k in range(-20, 22, 2):
                assert abs(v_of(N, k)) >= abs(v_of(M, k)), (N, M, k)
                assert abs(u_of(N, k)) >= abs(u_of(M, k)), (N, M, k)


def test_cusp_killer_level_five_is_hauptmodul():
    assert cusp_killer(5, 12) == hauptmodul_series(5, 12)


def test_cusp_killer_valuations():
    for N in GENUS_ZERO_LEVELS:
        ck = cusp_killer(N, 8)
        assert ck.valuation() == -(get_level(N).cusp_count - 1), N


def test_cusp_killer_level_eight_polynomial():
    # x^3 + 12x^2 + 32x applied to the Hauptmodul
    psi = hauptmodul_series(8, 14)
    expect = ((psi * psi * psi) + (psi * psi).scale(12) + psi.scale(32))
    assert cusp_killer(8, 8) == expect.truncate(8)


def test_cusp_killer_level_25_polynomial():
    psi = hauptmodul_series(25, 20)
    p2 = psi * psi
    p3 = p2 * psi
    p4 = p3 * psi
    p5 = p4 * psi
    expect = p5 + p4.scale(5) + p3.scale(15) + p2.scale(25) + psi.scale(25)
    assert cusp_killer(25, 10) == expect.truncate(10)


def test_registry_dump():
    dump = registry_dump()
    assert len(dump["levels"]) == 15
    by_level = {lv["level"]: lv for lv in dump["levels"]}
    l2 = by_level[2]
    for k in (-6, -4, -2, 0, 2, 4, 6, 8):
        assert l2["u"][str(k)] == l2["v"][str(k)] - 1
    assert any("paper_typo" in f for f in by_level[9]["flags"])
    assert any("paper_typo" in f for f in by_level[6]["flags"])
    assert by_level[9]["hauptmodul"] == "eta(1)^3 * eta(9)^-3"


# Each registry form by its definition before every form became a Combo:
# eta forms as (c, eta exponents) pairs, the rest in _old_definition.
_ETA_FORMS = {
    (3, 6): [(1, {3: 18, 1: -6})],
    (5, 4): [(1, {5: 10, 1: -2})],
    (6, 2): [(1, {1: 2, 6: 12, 2: -4, 3: -6})],
    (7, 6): [(1, {7: 14, 1: -2})],
    (8, 2): [(1, {8: 8, 4: -4})],
    (9, 2): [(1, {9: 6, 3: -2})],
    (13, 12): [(1, {13: 26, 1: -2})],
    (16, 2): [(1, {16: 8, 8: -4})],
    (25, 4): [(1, {25: 10, 5: -2})],
    (12, 2): [
        (Fraction(1, 27), {1: 10, 4: 1, 6: 9, 2: -7, 3: -6, 12: -3}),
        (Fraction(11, 72), {1: 7, 4: 4, 6: 9, 2: -7, 3: -5, 12: -4}),
        (Fraction(-1, 12), {1: 4, 4: 7, 6: 9, 2: -7, 3: -4, 12: -5}),
        (Fraction(1, 54), {1: 1, 4: 10, 6: 9, 2: -7, 3: -3, 12: -6}),
        (Fraction(-1, 8), {1: 9, 4: 3, 6: 2, 2: -6, 3: -3, 12: -1})],
    (18, 2): [
        (Fraction(25, 216), {1: 8, 6: 2, 9: 4, 2: -4, 3: -4, 18: -2}),
        (Fraction(-11, 144), {1: 3, 6: 8, 9: 7, 2: -3, 3: -6, 18: -5}),
        (Fraction(-121, 972), {1: 6, 6: 7, 9: 1, 2: -3, 3: -5, 18: -2}),
        (Fraction(-41, 144), {1: 6, 6: 2, 9: 6, 2: -3, 3: -4, 18: -3}),
        (Fraction(67, 144), {1: 4, 6: 7, 9: 3, 2: -2, 3: -5, 18: -3}),
        (Fraction(1, 972), {2: 9, 3: 8, 18: 1, 1: -6, 6: -6, 9: -2}),
        (Fraction(-125, 1296), {1: 1, 2: 4, 9: 2, 3: -1, 6: -1, 18: -1})],
}


# The level-10 weight-4 seed as it was stored before it became the eta
# quotient of its base: its certificate terms (c, factors, psi power).
L10_W4_CERTIFICATE = (
    (Fraction(-209, 3600000), (("phi", 2, 1), ("phi", 2, 1)), 0),
    (Fraction(-2731, 14400000), (("phi", 2, 1), ("phi", 2, 1)), 1),
    (Fraction(197, 72000), (("phi", 2, 1), ("phi", 2, 5)), 0),
    (Fraction(-167, 288000), (("phi", 2, 1), ("phi", 2, 5)), 1),
    (Fraction(73, 5760), (("phi", 2, 5), ("phi", 2, 5)), 0),
    (Fraction(17, 23040), (("phi", 2, 5), ("phi", 2, 5)), 1),
    (Fraction(41, 600000), (("eis", 4, 1),), 0),
    (Fraction(19, 600000), (("eis", 4, 1),), 1),
)


def _old_l10_w4(prec):
    """L10_W4_CERTIFICATE summed with the generators: each term is a
    holomorphic product times psi^0 or psi^1 (valuation -1), so factors
    known to prec + 1 determine it modulo q^prec."""
    work = prec + 1
    psi = hauptmodul_series(10, work)
    terms = []
    for c, factors, j in L10_W4_CERTIFICATE:
        s = QSeries.one(work)
        for kind, n, e in factors:
            s = s * (phi(n, work, scale=e) if kind == "phi"
                     else eisenstein(n, work, scale=e))
        terms.append((c, s * psi if j else s))
    return QSeries.combination(terms, prec)


def _old_definition(N, w, prec):
    def e(w, d=1):
        return eisenstein(w, prec, scale=d)

    if N == 1:
        return (reference_delta(prec) if w == 12
                else reference_level_one_form(w, prec))
    if (N, w) in _ETA_FORMS:
        return QSeries.combination(
            ((c, EtaQuotient(exps).expand(prec))
             for c, exps in _ETA_FORMS[(N, w)]), prec)
    if w == 0:
        return QSeries.one(prec)
    if w == 2 and N in (2, 3, 5, 7, 13):
        return phi(N, prec)
    if (N, w) == (2, 4):
        return (e(4) - e(4, 2)).scale(Fraction(1, 240))
    if (N, w) == (3, 4):
        f2 = phi(3, prec)
        return (e(4) - f2 * f2).truncate(prec).scale(Fraction(1, 216))
    if (N, w) == (4, 2):
        return QSeries.combination(
            ((3, e(2, 2)), (-1, e(2)), (-2, e(2, 4))),
            prec).scale(Fraction(1, 24))
    if (N, w) == (10, 4):
        return _old_l10_w4(prec)
    if (N, w) in ((13, 8), (13, 10)):
        return (level_form(13, 4, prec) * level_form(13, w - 4, prec)) \
            .truncate(prec)
    raise AssertionError(f"no old definition of level {N} weight {w}")


@pytest.mark.parametrize("prec", [25, 60])
def test_registry_forms_match_their_old_definitions(prec, monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    checked = 0
    for N in ALL_LEVELS:
        for w, form in get_level(N).seed.forms.items():
            if isinstance(form, Certificate):
                continue
            assert level_form(N, w, prec) == _old_definition(N, w, prec), \
                (N, w)
            checked += 1
    # 28 closed forms of nonzero weight and the form 1 of each level
    assert checked == 43


def test_level_ten_weight_four_certificate_is_an_eta_quotient(monkeypatch):
    # both sides are weight-4 forms on Gamma_0(10), whose Sturm bound is 6,
    # so agreement through q^40 proves the identity
    monkeypatch.setattr(qseries, "_store", {})
    assert get_level(10).seed.base == EtaQuotient({1: 2, 2: -4, 5: -10,
                                                   10: 20})
    assert level_form(10, 4, 40) == _old_l10_w4(40)


def test_every_base_is_an_eta_quotient_of_maximal_order():
    for N in ALL_LEVELS:
        seed = get_level(N).seed
        assert isinstance(seed.base, EtaQuotient), N
        assert seed.base.lead_exponent == v_of(N, seed.base_weight), N


def test_every_registry_form_and_hauptmodul_has_a_conformance_row():
    rows = [(N, w) for N, w, _ in CONFORMANCE]
    assert len(rows) == len(set(rows)) == 42
    forms = {(N, w) for N in GENUS_ZERO_LEVELS
             for w in get_level(N).seed.forms if w}
    hauptmoduln = {(N, None) for N in ALL_LEVELS}
    assert forms | hauptmoduln <= set(rows)


@pytest.mark.parametrize("prec", [12, 40])
def test_cusp_killers_match_horner(prec, monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    for N in ALL_LEVELS:
        poly = get_level(N).cusp_poly
        deg = len(poly) - 1
        work = prec + deg
        acc = QSeries({0: poly[-1]}, work)
        for c in reversed(poly[:-1]):
            acc = acc * hauptmodul_series(N, work) + QSeries({0: c}, work)
        assert cusp_killer(N, prec) == acc.truncate(prec), N


def test_forms_without_psi_terms_never_expand_the_hauptmodul(monkeypatch):
    # the level-1 Hauptmodul is j, whose expansion costs an inversion
    monkeypatch.setattr(qseries, "_store", {})
    for w in get_level(1).seed.forms:
        level_form(1, w, 30)
    cusp_killer(1, 30)
    assert ("haupt", 1) not in qseries._store
