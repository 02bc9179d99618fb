import json
import random
from fractions import Fraction
from operator import ge

import pytest

from gridforge import qseries
from gridforge.qseries import (
    DEFAULT_PREC,
    PrecisionError,
    QSeries,
    cached,
    store_stats,
)


def qs(d, prec=DEFAULT_PREC):
    return QSeries(d, prec)


def series_from_json(doc):
    """The series a `QSeries.to_json_dict` document describes."""
    return QSeries(((int(e), Fraction(c)) for e, c in doc["coeffs"]),
                   int(doc["prec"]))


def test_add_identity():
    a = qs({-1: 1, 1: 2})
    assert (a + QSeries.zero()) == a


def test_add_min_precision():
    s = qs({0: 1, 1: 1}, 5) + qs({0: -1, 1: 1}, 3)
    assert s == qs({1: 2}, 3)
    assert s.prec == 3


def test_add_principal_parts():
    s = qs({-2: 1, 0: 3}) + qs({-2: 1, 0: -3})
    assert s == qs({-2: 2})


def test_mul_identity():
    a = qs({-3: 5, 2: 7})
    # the product is known to 3 terms less than a, as a starts at q^-3
    assert a * QSeries.one() == a.truncate(DEFAULT_PREC - 3)


def test_mul_example():
    m = qs({-1: 1, 0: 2}, 20) * qs({1: 1, 0: 3}, 20)
    assert [m.coeff(i) for i in (-1, 0, 1)] == [3, 7, 2]


def test_mul_telescoping():
    geo = qs({i: 1 for i in range(10)}, 10)
    p = qs({0: 1, 1: -1}, 10) * geo
    assert p == QSeries.one(10)


def test_invert_geometric():
    inv = qs({0: 1, 1: -1}, 50).inverse(5)
    assert inv == qs({i: 1 for i in range(5)}, 5)


def test_invert_monomial():
    assert qs({1: 1}, 50).inverse(5) == qs({-1: 1}, 4)


def test_invert_level_two_prefix():
    a = qs({1: 1, 2: 8, 3: 28, 4: 64}, 5)
    prod = a.inverse() * a
    assert prod.prec >= 3
    assert prod.truncate(3) == QSeries.one(3)


def test_invert_zero_raises():
    with pytest.raises(ValueError, match="invert zero"):
        QSeries.zero().inverse()


def test_pow_zero_and_monomials():
    a = qs({2: 3, 5: 1})
    assert (a ** 0).coeff(0) == 1
    cube = qs({-1: 1}) ** 3
    assert cube.items() == ((-3, 1),)
    assert cube.valuation() == -3


def test_pow_binomial():
    p = qs({0: 1, 1: 1}, 3) ** 2
    assert [p.coeff(i) for i in range(3)] == [1, 2, 1]


def test_pow_negative_of_zero_raises():
    with pytest.raises(ValueError, match="negative power"):
        QSeries.zero() ** -1


def test_derive():
    assert qs({0: 9}).derive().is_zero
    assert qs({-1: 1, 0: 5, 3: 7}).derive() == qs({-1: -1, 3: 21})
    assert qs({2: 1}).derive().derive() == qs({2: 4})


def test_coeff_guard():
    a = qs({-1: 1, 1: 196884}, 2)
    assert a.coeff(1) == 196884
    assert a.coeff(0) == 0
    with pytest.raises(PrecisionError):
        a.coeff(2)
    # `coeff` refuses exactly where `numerators` does, with its text, and
    # reads a zero below the valuation and past the row
    for s in (QSeries.zero(7), qs({-4: 1, 2: -3}, 7),
              qs({0: Fraction(1, 3), 5: Fraction(-5, 2)}, 7)):
        for n in (s.prec, s.prec + 5):
            with pytest.raises(PrecisionError) as by_coeff:
                s.coeff(n)
            with pytest.raises(PrecisionError) as by_numerators:
                s.numerators(n, n + 1)
            assert str(by_coeff.value) == str(by_numerators.value) == (
                f"coefficient not determined at this precision "
                f"(n={n}, prec={s.prec})")
        for n in (-9, 6):
            assert s.coeff(n) == 0 and type(s.coeff(n)) is Fraction, (s, n)


def test_valuation_truncate_scale():
    assert qs({-3: 1, 4: 2}).valuation() == -3
    with pytest.raises(ValueError):
        QSeries.zero().valuation()
    t = qs({0: 1, 1: 1, 5: 1}, 10).truncate(3)
    assert t == qs({0: 1, 1: 1}, 3)
    # truncation renormalizes the denominator
    t = qs({0: 1, 1: Fraction(1, 2)}, 5).truncate(1)
    assert t == QSeries.one(1) and hash(t) == hash(QSeries.one(1))
    assert t.denominator == 1
    t = qs({0: Fraction(1, 3), 4: Fraction(1, 6)}, 9).truncate(4)
    assert t == qs({0: Fraction(1, 3)}, 4) and t.denominator == 3
    a = qs({-1: 1})
    assert a.scale(-1) == a * Fraction(-1)


def test_json_roundtrip():
    a = qs({-2: 1, -1: 8, 0: -224, 1: Fraction(3, 2)}, 5)
    doc = json.loads(json.dumps(a.to_json_dict()))
    assert doc["prec"] == 5
    assert doc["coeffs"][0] == [-2, "1"]
    assert series_from_json(doc) == a
    assert json.dumps(qs({0: 3, 2: Fraction(-5, 4)}, 4).to_json_dict()) == \
        '{"prec": 4, "coeffs": [[0, "3"], [2, "-5/4"]]}'
    assert json.dumps(QSeries.zero(3).to_json_dict()) == \
        '{"prec": 3, "coeffs": []}'


def test_text_form():
    s = str(qs({-2: 1, -1: 8, 0: -224, 1: 2144}, 5))
    assert s == "q^-2 + 8*q^-1 - 224 + 2144*q + O(q^5)"
    assert str(QSeries.zero(7)) == "0 + O(q^7)"


def _random_series(rng, prec):
    n = rng.randrange(0, 8)
    return QSeries(
        {rng.randrange(-20, 21): Fraction(rng.randrange(-1000, 1001))
         for _ in range(n)}, prec)


def _dense_mul_oracle(a, b):
    """Independent convolution over dense arrays."""
    if a.is_zero or b.is_zero:
        return None
    va, vb = a.valuation(), b.valuation()
    la = [a.coeff(va + i) for i in range(a.prec - va)]
    lb = [b.coeff(vb + i) for i in range(b.prec - vb)]
    prec = min(a.prec + vb, b.prec + va)
    out = [Fraction(0)] * (prec - va - vb)
    for i, x in enumerate(la):
        for j, y in enumerate(lb):
            if i + j < len(out):
                out[i + j] += x * y
    return QSeries(((va + vb + i, c) for i, c in enumerate(out)), prec)


def test_mul_against_dense_oracle():
    rng = random.Random(20260810)
    for _ in range(1000):
        a = _random_series(rng, rng.randrange(25, 41))
        b = _random_series(rng, rng.randrange(25, 41))
        expect = _dense_mul_oracle(a, b)
        got = a * b
        if expect is None:
            assert got.is_zero
        else:
            assert got == expect


def test_ring_axioms():
    rng = random.Random(7)
    for _ in range(200):
        a = _random_series(rng, 40)
        b = _random_series(rng, 40)
        c = _random_series(rng, 40)
        assert a * b == b * a
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert lhs.truncate(rhs.prec) == rhs.truncate(lhs.prec)


def test_inversion_property():
    rng = random.Random(11)
    for _ in range(60):
        a = _random_series(rng, 40)
        if a.is_zero:
            continue
        prod = a * a.inverse()
        bound = a.prec - 2 * abs(a.valuation())
        if bound > 0:
            assert prod.truncate(bound) == QSeries.one(bound)


def test_leibniz():
    rng = random.Random(13)
    for _ in range(100):
        a = _random_series(rng, 40)
        b = _random_series(rng, 40)
        lhs = (a * b).derive()
        rhs = a.derive() * b + a * b.derive()
        assert lhs.truncate(rhs.prec) == rhs.truncate(lhs.prec)


def reference_inverse(a, terms=None):
    """The inverse by the Fraction recurrence b_m = -(1/a_0) sum_{i>=1}
    a_i b_{m-i}, written independently of the integer kernel."""
    v = a.valuation()
    known = a.prec - v
    n = known if terms is None else min(terms, known)
    if n <= 0:
        return QSeries.zero(-v + max(n, 0))
    a0 = a.coeff(v)
    b = [1 / a0]
    for m in range(1, n):
        s = sum((a.coeff(v + i) * b[m - i] for i in range(1, m + 1)),
                Fraction(0))
        b.append(-s / a0)
    return QSeries(((j - v, bj) for j, bj in enumerate(b)), n - v)


def test_inverse_matches_fraction_recurrence():
    rng = random.Random(20261018)
    for case in range(300):
        v = rng.randrange(-12, 13)
        prec = v + rng.randrange(1, 30)
        dense = case % 2
        exps = range(v + 1, prec) if dense else rng.sample(
            range(v + 1, prec + 8), min(prec + 7 - v, rng.randrange(0, 8)))
        coeffs = {e: Fraction(rng.randrange(-50, 51), rng.randrange(1, 40))
                  for e in exps}
        lead = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 30),
                        rng.randrange(1, 12))
        a = QSeries({**coeffs, v: lead}, prec)
        for terms in (None, rng.randrange(-2, prec - v + 10),
                      prec - v + rng.randrange(1, 10)):
            assert a.inverse(terms) == reference_inverse(a, terms), (a, terms)


def test_store_keeps_the_longest_expansion(monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    geo = QSeries({i: 1 for i in range(100)}, 100)
    builds = []

    def build(prec):
        builds.append(prec)
        return geo.truncate(prec)

    got = [cached(("geo",), (prec,), build).truncate(prec)
           for prec in (20, 45, 30, 60, 25)]
    assert builds == [20, 45, 60]
    assert qseries._store == {("geo",): ((60,), geo.truncate(60))}
    assert got == [geo.truncate(p) for p in (20, 45, 30, 60, 25)]


@pytest.mark.parametrize("requests, builds", [
    # a miss on count alone keeps the larger precision already built
    (((10, 30), (5, 46), (12, 30), (12, 46)), [(10, 30), (10, 46), (12, 46)]),
    # and a miss on precision alone keeps the larger count
    (((10, 30), (12, 20), (8, 40), (12, 40)), [(10, 30), (12, 30), (12, 40)]),
], ids=["count-miss", "prec-miss"])
def test_store_grows_each_component_of_a_size(requests, builds,
                                               monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    monkeypatch.setattr(qseries, "_stats", {})
    built = []

    def build(count, prec):
        built.append((count, prec))
        return count, prec

    for need in requests:
        size = cached(("pair",), need, build)
        assert all(map(ge, size, need)), (size, need)
    assert built == builds
    assert qseries._store == {("pair",): (builds[-1], builds[-1])}
    assert store_stats() == {"pair": {"hits": 1, "misses": 3,
                                       "rebuilds": 2, "extends": 0}}


def test_store_stats_count_hits_and_misses(monkeypatch):
    monkeypatch.setattr(qseries, "_store", {})
    monkeypatch.setattr(qseries, "_stats", {})
    one = QSeries.one
    for prec in (10, 5, 20, 20):
        cached(("a", 1), (prec,), one)
    cached(("a", 2), (5,), one)
    cached(("b",), (5,), one)
    assert store_stats() == {
        "a": {"hits": 2, "misses": 3, "rebuilds": 1, "extends": 0},
        "b": {"hits": 0, "misses": 1, "rebuilds": 0, "extends": 0}}
    qseries.clear_store()
    assert store_stats() == {} and not qseries._store


def reference_combination(pairs, prec):
    """sum c*s as the fold of QSeries additions and scalings that the
    callers of QSeries.combination used to write out."""
    total = QSeries.zero(prec)
    for c, s in pairs:
        total = total + s.scale(c)
    return total


def test_combination_matches_the_fold():
    rng = random.Random(5)
    for case in range(240):
        pairs = []
        for _ in range(rng.randrange(0, 6)):
            p = rng.randrange(-5, 40)
            lo = rng.randrange(-15, p + 1)
            s = QSeries({e: Fraction(rng.randrange(-60, 61),
                                     rng.choice([1, 1, 2, 3, 7, 12, 35]))
                         for e in rng.sample(range(lo, p + 3),
                                             rng.randrange(0, p + 4 - lo))},
                        p)
            c = rng.choice([0, 1, -1, rng.randrange(-99, 100),
                            Fraction(rng.randrange(-99, 100),
                                     rng.randrange(1, 50))])
            pairs.append((c, s))
        if case % 10 == 0 and pairs:
            # terms that cancel exactly
            c, s = pairs[0]
            pairs.append((-Fraction(c), s))
        prec = rng.randrange(-5, 45)
        got = QSeries.combination(pairs, prec)
        want = reference_combination(pairs, prec)
        assert got == want and got.prec == want.prec, (pairs, prec)
    assert QSeries.combination([], 17) == QSeries.zero(17)


def _rational(rng):
    return Fraction(rng.randrange(-60, 61),
                    rng.choice([1, 1, 2, 3, 4, 9, 35]))


def test_every_construction_gives_the_canonical_series():
    rng = random.Random(8)
    for case in range(200):
        v = rng.randrange(-12, 13)
        prec = v + rng.randrange(1, 20)
        coeffs = {e: _rational(rng) for e in range(v, prec)
                  if rng.random() < 0.6}
        s = QSeries(coeffs, prec)
        longer = QSeries({**coeffs, **{e: _rational(rng)
                                       for e in range(prec, prec + 9)}},
                         prec + 9)
        lead = rng.randrange(0, 3)
        den = s.denominator * rng.randrange(1, 5)
        row = [0] * lead + [c.numerator * (den // c.denominator)
                            for c in (s.coeff(e) for e in range(v, prec))]
        ways = [
            QSeries(list(coeffs.items()), prec),
            s * QSeries.one(prec - v),
            QSeries.one(prec - v + 7) * s,
            QSeries.combination([(1, s)], prec + 3),
            QSeries.combination([(2, s), (Fraction(-1, 2), s.scale(2))],
                                prec),
            longer.truncate(prec),
            series_from_json(s.to_json_dict()),
            # leading zeros, a term beyond prec, an unreduced denominator
            QSeries.from_row(v - lead, row + [1, 0], prec, den),
        ]
        for w in ways:
            assert w == s and hash(w) == hash(s), (case, w, s)
            assert w.items() == s.items()
    # the constructor sums a repeated exponent, reads str and Fraction
    # coefficients, and drops a zero and every term at or past prec
    for made, (v, row, prec, d) in [
            (QSeries([(1, 2), (3, 1), (1, -5)], 9), (1, [-3, 0, 1], 9, 1)),
            (QSeries([(2, 1), (2, "-1")], 9), (0, [], 9, 1)),
            (QSeries({-2: "3/4", 0: Fraction(-1, 6)}, 4),
             (-2, [9, 0, -2], 4, 12)),
            (QSeries({0: 0, 2: 5, 3: Fraction(0)}, 6), (2, [5], 6, 1)),
            (QSeries({4: 7, 5: 1, 9: "1/2"}, 5), (4, [7], 5, 1)),
            (QSeries([(5, 1), (6, Fraction(1, 2))], 5), (0, [], 5, 1)),
            (QSeries(None, 3), (0, [], 3, 1)),
            (QSeries({}, 3), (0, [], 3, 1))]:
        w = QSeries.from_row(v, row, prec, d)
        assert made == w and hash(made) == hash(w), (made, w)


def reference_mul(a, b):
    """The product as a convolution of dicts of Fractions, the way the
    series were multiplied before they stored integer rows."""
    va = a.prec if a.is_zero else a.valuation()
    vb = b.prec if b.is_zero else b.valuation()
    prec = min(a.prec + vb, b.prec + va)
    acc = {}
    for ea, x in a.items():
        for eb, y in b.items():
            if ea + eb < prec:
                acc[ea + eb] = acc.get(ea + eb, 0) + x * y
    return QSeries(acc, prec)


def _any_series(rng):
    """A random series with valuation in -12..12: rational, sparse, dense
    or rescaled q -> q^d (d up to 25) like eta(dz) and E_k(dz)."""
    kind = rng.choice(("rational", "sparse", "dense", "rescaled"))
    v = rng.randrange(-12, 13)
    if kind == "rescaled":
        d = rng.randrange(2, 26)
        s = QSeries({e * d: rng.randrange(-999, 1000)
                     for e in range(0, rng.randrange(1, 8))},
                    d * rng.randrange(2, 8))
        if s.is_zero:
            return s
        shift = v - s.valuation()
        return QSeries({e + shift: c for e, c in s.items()}, s.prec + shift)
    prec = v + rng.randrange(1, 40)
    if kind == "sparse":
        exps = rng.sample(range(v, prec), min(prec - v, rng.randrange(0, 5)))
    else:
        exps = range(v, prec)
    value = _rational if kind == "rational" else (
        lambda rng: rng.randrange(-10 ** 6, 10 ** 6))
    return QSeries({e: value(rng) for e in exps}, prec)


def test_mul_matches_the_fraction_dict_product():
    rng = random.Random(20261018)
    pairs = [(_any_series(rng), _any_series(rng)) for _ in range(600)]
    # a zero operand on either side, at a precision of either sign
    for prec in (-5, 0, 7):
        zero = QSeries({}, prec)
        for s in (_any_series(rng), QSeries({}, 3 - prec)):
            pairs += [(zero, s), (s, zero)]
    for case, (a, b) in enumerate(pairs):
        got, want = a * b, reference_mul(a, b)
        assert got == want and got.prec == want.prec, (case, a, b)


def reference_to_json_dict(s):
    """The JSON form as it was built before it read the integer row: one
    Fraction per stored coefficient, through `items`."""
    return {"prec": s.prec, "coeffs": [[e, str(c)] for e, c in s.items()]}


def reference_text(s):
    """The text form as it was built before it read the integer row: one
    Fraction per stored coefficient, through `items`."""
    if s.is_zero:
        return f"0 + O(q^{s.prec})"
    parts = []
    for e, v in s.items():
        sign = "-" if v < 0 else "+"
        mag = -v if v < 0 else v
        if e == 0:
            body = str(mag)
        else:
            qp = "q" if e == 1 else f"q^{e}"
            body = qp if mag == 1 else f"{mag}*{qp}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    parts.append(f"+ O(q^{s.prec})")
    return " ".join(parts)


def test_to_json_dict_matches_the_fraction_items():
    rng = random.Random(20261019)
    kinds = ("integral", "rational", "zero", "padded_row")
    seen = dict.fromkeys(kinds, 0)
    for case in range(300):
        kind = kinds[case % len(kinds)]
        v = rng.randrange(-15, 10)
        prec = v + rng.randrange(1, 30)
        exps = [e for e in range(v, prec) if rng.random() < 0.7]
        if kind == "integral":
            s = QSeries({e: rng.randrange(-10 ** 30, 10 ** 30)
                         for e in exps}, prec)
        elif kind == "rational":
            s = QSeries({e: _rational(rng) for e in exps}, prec)
        elif kind == "zero":
            s = QSeries({e: 0 for e in exps}, prec)
        else:
            # zeros at both ends, a term beyond prec and a denominator
            # that shares a factor with the row
            g, den = rng.randrange(1, 13), rng.randrange(1, 13)
            row = ([0] * rng.randrange(0, 4)
                   + [g * rng.randrange(-99, 100) for _ in exps]
                   + [0] * rng.randrange(0, 4))
            s = QSeries.from_row(v - 2, row + [1], v - 2 + len(row),
                                 g * den)
        seen[kind] += not s.is_zero or kind == "zero"
        assert s.to_json_dict() == reference_to_json_dict(s), (case, s)
        assert str(s) == reference_text(s), case
        assert series_from_json(s.to_json_dict()) == s
    assert all(seen.values()), seen
