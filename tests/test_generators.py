import random
from fractions import Fraction

import pytest

from gridforge import generators, seedsynth
from gridforge.basis import level_form
from gridforge.generators import (
    EtaQuotient,
    eisenstein,
    j_function,
    phi,
    serre_derivative,
)
from gridforge.leveldata import ALL_LEVELS, get_level
from gridforge.qseries import QSeries


def sigma(r, n):
    """Sum of the r-th powers of the divisors of n, pair by pair up to
    sqrt(n); an oracle independent of the divisor sieve in eisenstein."""
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** r
            e = n // d
            if e != d:
                total += e ** r
        d += 1
    return total


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


# The eta-quotient expansion before it became one recurrence: the Euler
# product by the pentagonal number theorem, its inverse by the partition
# recurrence, each power by repeated squaring, then q -> q^d.

def _euler_product(prec):
    coeffs = {0: 1}
    k = 1
    while k * (3 * k - 1) // 2 < prec:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e < prec:
                coeffs[e] = -1 if k % 2 else 1
        k += 1
    return QSeries(coeffs, prec)


def _partitions(prec):
    p = [0] * max(prec, 1)
    if prec > 0:
        p[0] = 1
    pent = []
    k = 1
    while k * (3 * k - 1) // 2 < prec:
        pent.append((k * (3 * k - 1) // 2, -1 if k % 2 == 0 else 1))
        if k * (3 * k + 1) // 2 < prec:
            pent.append((k * (3 * k + 1) // 2, -1 if k % 2 == 0 else 1))
        k += 1
    for n in range(1, prec):
        p[n] = sum(sign * p[n - g] for g, sign in pent if g <= n)
    return QSeries(enumerate(p), prec)


def reference_eta_expand(q: EtaQuotient, prec: int) -> QSeries:
    e0 = int(q.lead_exponent)
    inner = max(prec - e0, 1)
    out = QSeries.one(inner)
    for d, r in sorted(q.exps.items()):
        n = (inner - 1) // d + 1
        base = _euler_product(n) if r > 0 else _partitions(n)
        power = (base ** abs(r)).truncate(n)
        out = out * QSeries({e * d: c for e, c in power.items()}, inner)
    return QSeries({e + e0: c for e, c in out.truncate(inner).items()},
                   e0 + inner)


def reference_delta(prec):
    """The weight-12 cusp form (E4^3 - E6^2) / 1728."""
    e4 = eisenstein(4, prec)
    e6 = eisenstein(6, prec)
    return ((e4 * e4 * e4 - e6 * e6).truncate(prec)).scale(Fraction(1, 1728))


def reference_level_one_form(weight, prec):
    """The one-dimensional holomorphic level-one space at the given weight:
    1, E4, E6, E4^2, E4*E6 or E4^2*E6, as products of Eisenstein series."""
    if weight == 0:
        return QSeries.one(prec)
    if weight in (4, 6):
        return eisenstein(weight, prec)
    if weight == 8:
        e4 = eisenstein(4, prec)
        return (e4 * e4).truncate(prec)
    if weight == 10:
        return (eisenstein(4, prec) * eisenstein(6, prec)).truncate(prec)
    if weight == 14:
        e4 = eisenstein(4, prec)
        return (e4 * e4 * eisenstein(6, prec)).truncate(prec)
    raise ValueError(f"no one-dimensional level-one space in weight {weight}")


def reference_j(prec):
    """E4^3 / Delta, with Delta inverted as a series."""
    work = prec + 2
    e4 = eisenstein(4, work)
    num = (e4 * e4 * e4).truncate(work)
    return (num * reference_delta(work).inverse(work)).truncate(prec)


def _registry_quotients():
    """(level, quotient) for every eta quotient of the registry: the
    Hauptmoduln and the eta factors of the seed forms."""
    out = []
    for N in ALL_LEVELS:
        ld = get_level(N)
        if N != 1:
            out.append((N, ld.hauptmodul))
        for form in ld.seed.forms.values():
            for _, factors, _ in form.terms:
                out += [(N, f[1]) for f in factors if f[0] == "eta"]
    return out


def _assert_expands_like_reference(q, prec):
    # QSeries equality compares the precision as well as the coefficients
    assert q.expand(prec) == reference_eta_expand(q, prec), (q, prec)


@pytest.mark.parametrize("prec", [1, 8, 40, 120])
def test_registry_eta_quotients_match_the_reference(prec):
    quotients = _registry_quotients()
    # 14 Hauptmoduln and the 15 bases of the seeds
    assert len(quotients) == 29
    for _, q in quotients:
        _assert_expands_like_reference(q, prec)


def test_seedsynth_eta_atoms_match_the_reference():
    checked = 0
    for N in ALL_LEVELS:
        for _, _, factor in seedsynth._atoms(N):
            if factor[0] != "eta":
                continue
            _, q = factor
            for prec in (20, 90):
                _assert_expands_like_reference(q, prec)
                checked += 1
    assert checked > 0


def test_random_eta_quotients_match_the_reference():
    rng = random.Random(20261018)
    for _ in range(200):
        while True:
            exps = {rng.randrange(1, 51): rng.randrange(-30, 31)
                    for _ in range(rng.randrange(1, 5))}
            if sum(d * r for d, r in exps.items()) % 24 == 0:
                break
        q = EtaQuotient(exps)
        lead = int(q.lead_exponent)
        _assert_expands_like_reference(
            q, rng.randrange(lead - 5, max(lead, 150) + 1))


def test_j_matches_e4_cubed_over_delta():
    for prec in (0, 1, 2, 5, 30, 100):
        assert j_function(prec) == reference_j(prec), prec


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


def eta_weight(q):
    """The weight of an eta quotient: half the sum of its exponents."""
    return Fraction(sum(q.exps.values()), 2)


def test_eta_weight():
    assert eta_weight(EtaQuotient({1: 24, 2: -24})) == 0
    assert eta_weight(EtaQuotient({5: 10, 1: -2})) == 4
    # every eta factor of a registry form has the weight of its form
    for N in ALL_LEVELS:
        for w, form in get_level(N).seed.forms.items():
            for _, factors, _ in form.terms:
                for f in factors:
                    if f[0] == "eta":
                        assert eta_weight(f[1]) == w, (N, w, f)


def test_eta_to_text():
    eq = EtaQuotient({6: -8, 3: 4, 1: -4, 2: 8})
    assert eq.to_text() == "eta(1)^-4 * eta(2)^8 * eta(3)^4 * eta(6)^-8"


def test_eta24_is_delta():
    assert EtaQuotient({1: 24}).expand(30) == reference_delta(30)


def test_delta_prefix():
    d = EtaQuotient({1: 24}).expand(4)
    assert [d.coeff(i) for i in (1, 2, 3)] == [1, -24, 252]


def test_j_prefix():
    j = j_function(3)
    assert [j.coeff(i) for i in (-1, 0, 1, 2)] == [1, 744, 196884, 21493760]


def test_level_one_forms():
    e8 = level_form(1, 8, 4)
    assert [e8.coeff(i) for i in range(4)] == [1, 480, 61920, 1050240]
    for w in (0, 4, 6, 8, 10, 14):
        for prec in (1, 3, 30):
            assert level_form(1, w, prec) == \
                reference_level_one_form(w, prec), (w, prec)
    assert level_form(1, 12, 30) == reference_delta(30)
    with pytest.raises(ValueError, match="level 1 .* weight 2"):
        level_form(1, 2, 5)


def test_serre_derivative_weight_zero_kills_constants():
    assert serre_derivative(QSeries.one(10), 0).is_zero


def test_serre_derivative_classical_identity():
    t = serre_derivative(eisenstein(4, 10), 4)
    assert t == eisenstein(6, 10).scale(Fraction(-1, 3))


def test_serre_derivative_annihilates_delta():
    assert serre_derivative(reference_delta(20), 12).is_zero


def test_serre_derivative_is_a_derivation():
    rng = random.Random(3)
    e4 = eisenstein(4, 20)
    d = reference_delta(20)
    for _ in range(10):
        a = e4.scale(rng.randrange(1, 9))
        b = d.scale(rng.randrange(1, 9))
        lhs = serre_derivative((a * b).truncate(18), 16)
        rhs = (serre_derivative(a, 4) * b + a * serre_derivative(b, 12))
        assert lhs == rhs.truncate(18)


@pytest.mark.parametrize("valuation", [-3, 0, 2])
def test_serre_derivative_asks_for_e2_as_far_as_the_product_needs(
        valuation, monkeypatch):
    # E2 * f is known to min(P + v, f.prec) for E2 known to P and f of
    # valuation v, so E2 is needed to prec - min(v, 0) and no further
    asked = []
    real = generators.eisenstein

    def recording(weight, prec, scale=1):
        asked.append((weight, prec))
        return real(weight, prec, scale=scale)

    monkeypatch.setattr(generators, "eisenstein", recording)
    f = QSeries({valuation: 1, valuation + 1: 5}, 20)
    serre_derivative(f, 4, 12)
    assert asked == [(2, 12 - min(valuation, 0))]


def test_registry_eta_lead_exponents():
    for N in ALL_LEVELS[1:]:
        assert get_level(N).hauptmodul.lead_exponent == -1, N
    for N, eq in _registry_quotients():
        lead = eq.lead_exponent
        assert lead.denominator == 1, (N, eq)
        assert eq.expand(int(lead) + 3).valuation() == lead, (N, eq)
