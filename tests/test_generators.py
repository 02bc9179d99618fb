import random
from fractions import Fraction

import pytest

from gridforge import generators, qseries
from gridforge.generators import (
    EtaQuotient,
    delta,
    eisenstein,
    eta_quotient_expand,
    euler_product,
    inverse_euler_product,
    j_function,
    level_one_form,
    phi,
    serre_derivative,
    sigma,
)
from gridforge.qseries import QSeries


def test_sigma():
    assert sigma(1, 1) == 1
    assert sigma(1, 6) == 12
    assert sigma(3, 2) == 9
    with pytest.raises(ValueError):
        sigma(1, 0)


def test_eisenstein_weight_two():
    e2 = eisenstein(2, 4)
    assert [e2.coeff(i) for i in range(4)] == [1, -24, -72, -96]


def test_eisenstein_coefficient_formula():
    consts = {2: -24, 4: 240, 6: -504, 8: 480, 10: -264, 14: -24}
    for w, c in consts.items():
        e = eisenstein(w, 51)
        for n in range(1, 51):
            assert e.coeff(n) == c * sigma(w - 1, n), (w, n)


def test_eisenstein_unsupported_weight():
    with pytest.raises(ValueError):
        eisenstein(12, 10)


def test_level_two_f4():
    f4 = (eisenstein(4, 5) - eisenstein(4, 5, scale=2)).scale(Fraction(1, 240))
    assert [f4.coeff(i) for i in range(1, 5)] == [1, 8, 28, 64]


def test_level_three_f4():
    f2 = phi(3, 6)
    f4 = ((eisenstein(4, 6) - f2 * f2).truncate(6)).scale(Fraction(1, 216))
    assert [f4.coeff(i) for i in range(1, 5)] == [1, 9, 27, 73]


def test_phi_prefixes():
    assert [phi(5, 5).coeff(i) for i in range(5)] == [1, 6, 18, 24, 42]
    assert [phi(2, 5).coeff(i) for i in range(5)] == [1, 24, 24, 96, 24]
    assert [phi(13, 5).coeff(i) for i in range(5)] == [1, 2, 6, 8, 14]
    with pytest.raises(ValueError):
        phi(1, 5)


def test_euler_products_are_inverse():
    p = euler_product(40) * inverse_euler_product(40)
    assert p.truncate(40).agrees(QSeries.one(40))


def test_euler_cache_keeps_the_longest_expansion(monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    got = [(prec, generators._euler_power(7, -4, prec))
           for prec in (20, 45, 30, 60, 25)]
    assert list(qseries._store) == [("euler", 7, -4)]
    assert qseries._store[("euler", 7, -4)].prec == 60
    for prec, series in got:
        qseries._store.clear()
        assert generators._euler_power(7, -4, prec) == series


def test_eta_quotient_prefixes():
    psi2 = EtaQuotient({1: 24, 2: -24}).expand(3)
    assert [psi2.coeff(i) for i in (-1, 0, 1, 2)] == [1, -24, 276, -2048]
    f45 = EtaQuotient({5: 10, 1: -2}).expand(7)
    assert [f45.coeff(i) for i in range(2, 7)] == [1, 2, 5, 10, 20]
    f16 = EtaQuotient({16: 8, 8: -4}).expand(21)
    assert [f16.coeff(i) for i in (4, 12, 20)] == [1, 4, 6]
    assert all(f16.coeff(i) == 0 for i in range(5, 12))


def test_eta_fractional_exponent_rejected():
    with pytest.raises(ValueError, match="fractional leading exponent"):
        EtaQuotient({1: 1}).expand(10)


def test_eta_lead_exponents_match_valuations():
    cases = [({1: 24, 2: -24}, -1), ({5: 10, 1: -2}, 2),
             ({13: 26, 1: -2}, 14), ({1: 3, 9: -3}, -1)]
    for exps, lead in cases:
        eq = EtaQuotient(exps)
        assert eq.lead_exponent == lead
        assert eq.expand(lead + 3).valuation() == lead


def test_eta_weight():
    assert EtaQuotient({1: 24, 2: -24}).weight == 0
    assert EtaQuotient({5: 10, 1: -2}).weight == 4


def test_eta_text_roundtrip():
    text = "eta(1)^-4 * eta(2)^8 * eta(3)^4 * eta(6)^-8"
    eq = EtaQuotient.from_text(text)
    assert eq.to_text() == text
    with pytest.raises(ValueError):
        EtaQuotient.from_text("zeta(1)^2")


def test_eta24_is_delta():
    assert eta_quotient_expand(EtaQuotient({1: 24}), 30).agrees(delta(30))


def test_delta_prefix():
    d = delta(4)
    assert [d.coeff(i) for i in (1, 2, 3)] == [1, -24, 252]


def test_j_prefix():
    j = j_function(3)
    assert [j.coeff(i) for i in (-1, 0, 1, 2)] == [1, 744, 196884, 21493760]


def test_level_one_forms():
    e8 = level_one_form(8, 4)
    assert [e8.coeff(i) for i in range(4)] == [1, 480, 61920, 1050240]
    assert level_one_form(0, 5) == QSeries.one(5)
    e10 = level_one_form(10, 3)
    assert e10.agrees((eisenstein(4, 3) * eisenstein(6, 3)).truncate(3))
    with pytest.raises(ValueError):
        level_one_form(2, 5)


def test_serre_derivative_weight_zero_kills_constants():
    assert serre_derivative(QSeries.one(10), 0).is_zero


def test_serre_derivative_classical_identity():
    t = serre_derivative(eisenstein(4, 10), 4)
    assert t.agrees(eisenstein(6, 10).scale(Fraction(-1, 3)))


def test_serre_derivative_annihilates_delta():
    assert serre_derivative(delta(20), 12).is_zero


def test_serre_derivative_is_a_derivation():
    rng = random.Random(3)
    e4 = eisenstein(4, 20)
    d = delta(20)
    for _ in range(10):
        a = e4.scale(rng.randrange(1, 9))
        b = d.scale(rng.randrange(1, 9))
        lhs = serre_derivative((a * b).truncate(18), 16)
        rhs = (serre_derivative(a, 4) * b + a * serre_derivative(b, 12))
        assert lhs.agrees(rhs.truncate(18))


def test_registry_eta_lead_exponents():
    from gridforge.leveldata import ALL_LEVELS, get_level

    quotients = []
    for N in ALL_LEVELS:
        ld = get_level(N)
        if N != 1:
            assert ld.hauptmodul.lead_exponent == -1, N
        for form in ld.seed.forms.values():
            for _, factors, _ in form.terms:
                quotients += [(N, f[1]) for f in factors if f[0] == "eta"]
    assert len(quotients) == 21
    for N, eq in quotients:
        lead = eq.lead_exponent
        assert lead.denominator == 1, (N, eq)
        assert eq.expand(int(lead) + 3).valuation() == lead, (N, eq)
