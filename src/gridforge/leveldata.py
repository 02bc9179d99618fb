"""Static per-level registry for the genus-zero groups Gamma_0(N).

For each N in {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25} the
registry records the cusps, a Hauptmodul with a simple pole at infinity,
the recipe for the first basis element in each even weight, and the monic
polynomial whose value at the Hauptmodul kills the non-infinity cusps.  A
recipe is data: the first element is the product of a power of the base
eta quotient, one registry form and the cusp killer that
`gridforge.basis.first_element` writes as a one-term Combo and
`gridforge.basis._eval_form` evaluates.  The maximal vanishing orders
v_k(N) and u_k(N) follow from the valence formula, with the index and the
elliptic-point counts of Gamma_0(N) derived from N.

Two source typos are corrected here and flagged: the level-9 Hauptmodul
line (a duplicate of level 8) and the level-6 cusp polynomial (malformed;
rederived from numeric cusp values and confirmed by the duality suite).
Entries are immutable.  Values of the cusp-killing polynomial are kept in
the store `gridforge.qseries.cached` under ("cusp", N), next to the
registry forms ("form", N, w) and the bases ("basis", N, k, space) that
`gridforge.basis` keeps there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from gridforge.generators import EtaQuotient
from gridforge.qseries import QSeries, cached

GENUS_ZERO_LEVELS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25)
ALL_LEVELS = (1,) + GENUS_ZERO_LEVELS


# -- seed recipes ---------------------------------------------------------
#
# The first basis element of the weight-k space is F_base^l * F_{k'} for
# the decomposition k = base_weight*l + k' (a power of the weight-2 form
# where the base weight is 2).  Every base F_base is an eta quotient, so
# F_base^l is one eta quotient for l of either sign.  Every F-form is a
# Combo: a sum of c * (product of factors) * psi^j, evaluated in
# gridforge.basis.  Five F-forms are Certificates: exact combinations of
# phi_n(ez), E4(dz), E6(dz) and Hauptmodul powers, found by row reduction
# in gridforge.seedsynth; none has a closed form here.

@dataclass(frozen=True)
class Combo:
    """The sum of c * (product of factors) * psi^j over the (c, factors, j)
    terms, with psi the level's Hauptmodul.  A factor is ("phi", n, e) for
    phi_n(ez) = (n E2(nez) - E2(ez)) / (n - 1), ("eis", w, d) for E_w(dz),
    ("eta", q) for the eta quotient q, ("form", w) for the same level's
    weight-w registry form, or ("cusp",) for the cusp-killing polynomial;
    the empty product is 1."""
    terms: tuple             # of (Fraction, factors, psi power)


class CertificateError(AssertionError):
    """A seed certificate that does not determine its seed."""


class PinnedPrefixError(CertificateError):
    """A certified seed's expansion contradicts its pinned prefix."""


def _factor_form(N: int, k: int, factor: tuple) -> tuple[int, int]:
    """(weight, level) of a certificate factor: phi_n(ez) is a weight-2
    form on Gamma_0(ne), E_w(dz) for w >= 4 one of weight w on
    Gamma_0(d)."""
    match factor:
        case ("phi", n, e):
            return 2, n * e
        case ("eis", w, d) if w != 2:
            return w, d
    raise CertificateError(
        f"seed of level {N} weight {k}: factor {factor} is not phi_n(ez) or "
        f"E_w(dz) with w >= 4, so the valence argument does not cover it")


@dataclass(frozen=True)
class Certificate(Combo):
    """Seed stored as an exact certificate: a Combo whose factors are all
    phi_n(ez) or E_w(dz) (w >= 4), with its pinned expansion prefix.

    The pinned prefix proves the certificate (valence formula).  phi_n(ez)
    is a form on Gamma_0(ne) and E_w(dz) one on Gamma_0(d); when these
    levels divide N, every factor is a form on Gamma_0(N).  psi has its
    only pole at infinity.  So when each term's factors have weight k in
    all, the sum is a weight-k form on Gamma_0(N) that is holomorphic away
    from infinity.  A nonzero such form vanishes at infinity to order at
    most v = v_k(N), so two of them that agree through q^v are equal: the
    first element is the only one equal to q^v + O(q^(v+1)).  A sum that
    matches the pinned prefix through check_through >= v is therefore the
    seed.  Every evaluation runs `check`, which raises CertificateError
    when a factor is not phi_n(ez) or E_w(dz) with w >= 4 (E2 is not
    modular), when a factor's level does not divide N, when a term's
    weight is not k, or when check_through < v, and PinnedPrefixError when
    the sum contradicts the prefix.

    `gridforge.seedsynth.derive_certificate` reproduces the terms by exact
    row reduction, a second derivation."""
    expected: tuple          # of (exponent, int) nonzero coefficients

    @property
    def check_through(self) -> int:
        """The last pinned exponent."""
        if not self.expected:
            raise CertificateError(
                "an empty pinned prefix does not determine a seed")
        return max(e for e, _ in self.expected)

    def check(self, N: int, k: int, series) -> None:
        """Raise CertificateError unless the certificate determines the
        level-N weight-k seed and `series`, known beyond check_through,
        starts with the pinned prefix."""
        for _, factors, _ in self.terms:
            forms = [_factor_form(N, k, f) for f in factors]
            for f, (_, level) in zip(factors, forms):
                if N % level:
                    raise CertificateError(
                        f"seed of level {N} weight {k}: factor {f} is a "
                        f"form of level {level}, which does not divide {N}")
            weight = sum(w for w, _ in forms)
            if weight != k:
                raise CertificateError(
                    f"seed of level {N} weight {k}: a term of factors "
                    f"{factors} has weight {weight}")
        v = v_of(N, k)
        if self.check_through < v:
            raise CertificateError(
                f"seed of level {N} weight {k}: the pinned prefix ends at "
                f"q^{self.check_through}, before the maximal vanishing "
                f"order {v}, so it does not determine the seed")
        expected = dict(self.expected)
        start = min(expected)
        if not series.is_zero:
            start = min(start, series.valuation())
        for e in range(start, self.check_through + 1):
            want = expected.get(e, 0)
            if series.coeff(e) != want:
                raise PinnedPrefixError(
                    f"seed of level {N} weight {k} contradicts its pinned "
                    f"expansion: coefficient at q^{e} is {series.coeff(e)}, "
                    f"expected {want} (prec {series.prec})")


def _phi(n: int, e: int = 1) -> tuple:
    return ("phi", n, e)


def _eis(w: int, d: int = 1) -> tuple:
    return ("eis", w, d)


def _form(*factors) -> Combo:
    """The product of the factors."""
    return Combo(((1, factors, 0),))


_ONE = _form()


@dataclass(frozen=True)
class TowerSeed:
    """seed(k) = F_base^l * F_{k'} for k = base_weight*l + k', where F_base
    is the eta quotient `base`, of weight base_weight, and k' is the one
    other form weight congruent to k modulo base_weight."""
    base: EtaQuotient
    others: dict = field(default_factory=dict)   # weight -> Combo

    @cached_property
    def base_weight(self) -> int:
        return sum(self.base.exps.values()) // 2

    @cached_property
    def forms(self) -> dict:
        """Every F-form by weight: 1, the others and F_base."""
        return {0: _ONE, **self.others,
                self.base_weight: _form(("eta", self.base))}

    def split(self, k: int) -> tuple[int, int]:
        """(l, k') with k = base_weight*l + k'."""
        for kp in self.forms:
            if kp != self.base_weight and (k - kp) % self.base_weight == 0:
                return (k - kp) // self.base_weight, kp
        raise ValueError(
            f"no decomposition of weight {k} mod {self.base_weight}")


@dataclass(frozen=True)
class LevelData:
    N: int
    cusps: tuple                 # non-infinity cusps as (a, c) with gcd 1
    hauptmodul: EtaQuotient
    cusp_poly: tuple             # monic, ascending coefficients, P(0) = 0
    seed: TowerSeed
    flags: tuple = ()

    @property
    def cusp_count(self) -> int:
        return len(self.cusps) + 1

    @cached_property
    def valence(self) -> tuple[int, int, int]:
        """The index mu of Gamma_0(N) and its numbers eps2, eps3 of elliptic
        points of orders 2, 3: over the primes p | N, mu = N prod (1 + 1/p),
        eps2 = prod (1 + (-1/p)) or 0 if 4 | N, eps3 = prod (1 + (-3/p)) or 0
        if 9 | N, with (-1/2) = (-3/3) = 0 (Diamond-Shurman, ch. 3)."""
        N = self.N
        mu, eps2, eps3 = N, int(N % 4 != 0), int(N % 9 != 0)
        for p in range(2, N + 1):
            if N % p == 0 and all(p % q for q in range(2, p)):
                mu += mu // p
                eps2 *= 1 if p == 2 else 2 * (p % 4 == 1)
                eps3 *= 1 if p == 3 else 2 * (p % 3 == 1)
        return mu, eps2, eps3


_L7_W4 = Certificate((
    (Fraction(139, 2744), (_phi(7), _phi(7)), 0),
    (Fraction(29, 134456), (_phi(7), _phi(7)), 1),
    (Fraction(-83, 134456), (_eis(4),), 0),
    (Fraction(-29, 134456), (_eis(4),), 1),
), ((2, 1), (3, 3), (4, 8), (5, 11)))

_L10_W2 = Certificate((
    (Fraction(-1, 48), (_phi(2),), 0),
    (Fraction(1, 96), (_phi(2),), 1),
    (Fraction(-11, 48), (_phi(2, 5),), 0),
    (Fraction(-1, 96), (_phi(2, 5),), 1),
), ((2, 1), (4, 3), (5, -4), (6, 4), (8, 7)))

_L13_W4 = Certificate((
    (Fraction(-5331, 17576), (_phi(13), _phi(13)), 0),
    (Fraction(-9355, 171366), (_phi(13), _phi(13)), 1),
    (Fraction(-18763, 8911032), (_phi(13), _phi(13)), 2),
    (Fraction(-467, 57921708), (_phi(13), _phi(13)), 3),
    (Fraction(5435, 2970344), (_eis(4),), 0),
    (Fraction(12401, 14480427), (_eis(4),), 1),
    (Fraction(23495, 115843416), (_eis(4),), 2),
    (Fraction(467, 57921708), (_eis(4),), 3),
), ((4, 1), (5, 1), (6, 3), (7, 3), (8, 4), (9, 6)))

_L13_W6 = Certificate((
    (Fraction(-2174923, 6169176), (_phi(13), _phi(13), _phi(13)), 0),
    (Fraction(-24680761, 160398576), (_phi(13), _phi(13), _phi(13)), 1),
    (Fraction(-29714677, 2085181488), (_phi(13), _phi(13), _phi(13)), 2),
    (Fraction(-791689, 13553679672), (_phi(13), _phi(13), _phi(13)), 3),
    (Fraction(195133, 86882562), (_phi(13), _eis(4)), 0),
    (Fraction(41528321, 27107359344), (_phi(13), _eis(4)), 1),
    (Fraction(4204531, 9035786448), (_phi(13), _eis(4)), 2),
    (Fraction(791689, 13553679672), (_phi(13), _eis(4)), 3),
    (Fraction(12605, 1042590744), (_eis(6),), 0),
    (Fraction(253, 521295372), (_eis(6),), 1),
), ((6, 1), (7, 2), (8, 4), (9, 6), (10, 13), (11, 16)))

_L25_W2 = Certificate((
    (Fraction(1, 75), (_phi(5),), 0),
    (Fraction(1, 250), (_phi(5),), 1),
    (Fraction(4, 375), (_phi(5),), 2),
    (Fraction(1, 375), (_phi(5),), 3),
    (Fraction(-2, 15), (_phi(5, 5),), 0),
    (Fraction(-1, 10), (_phi(5, 5),), 1),
    (Fraction(-2, 75), (_phi(5, 5),), 2),
    (Fraction(-1, 375), (_phi(5, 5),), 3),
), ((4, 1), (6, 1), (9, 2), (14, 3), (16, 2)))

_REGISTRY: dict[int, LevelData] = {}


def _add(ld: LevelData):
    _REGISTRY[ld.N] = ld


_add(LevelData(
    N=1, cusps=(),
    hauptmodul=EtaQuotient({}),  # placeholder; level 1 uses the j-function
    cusp_poly=(1,),
    # Delta = (E4^3 - E6^2) / 1728
    seed=TowerSeed(EtaQuotient({1: 24}), {
        4: _form(_eis(4)), 6: _form(_eis(6)), 8: _form(_eis(8)),
        10: _form(_eis(10)), 14: _form(_eis(14))}),
))

_add(LevelData(
    N=2, cusps=((0, 1),),
    hauptmodul=EtaQuotient({1: 24, 2: -24}),
    cusp_poly=(0, 1),
    # (E4(z) - E4(2z)) / 240
    seed=TowerSeed(EtaQuotient({2: 16, 1: -8}), {2: _form(_phi(2))}),
))

_add(LevelData(
    N=3, cusps=((0, 1),),
    hauptmodul=EtaQuotient({1: 12, 3: -12}),
    cusp_poly=(0, 1),
    seed=TowerSeed(EtaQuotient({3: 18, 1: -6}), {
        2: _form(_phi(3)),
        4: Combo(((Fraction(1, 216), (_eis(4),), 0),
                  (Fraction(-1, 216), (_phi(3), _phi(3)), 0)))}),
))

_add(LevelData(
    N=4, cusps=((0, 1), (1, 2)),
    hauptmodul=EtaQuotient({1: 8, 4: -8}),
    cusp_poly=(0, 16, 1),
    # (phi_2(z) - phi_2(2z)) / 24 = (3E2(2z) - E2(z) - 2E2(4z)) / 24
    seed=TowerSeed(EtaQuotient({4: 8, 2: -4})),
    flags=("paper_typo: source prints the Hauptmodul tail term -62 at q^2; "
           "the expansion has it at q^3",
           "paper_typo: source weight-2 seed formula omits the factor 1/24 "
           "that its printed expansion q+4q^3+... carries",),
))

_add(LevelData(
    N=5, cusps=((0, 1),),
    hauptmodul=EtaQuotient({1: 6, 5: -6}),
    cusp_poly=(0, 1),
    seed=TowerSeed(EtaQuotient({5: 10, 1: -2}), {2: _form(_phi(5))}),
))

_add(LevelData(
    N=6, cusps=((0, 1), (1, 3), (1, 2)),
    hauptmodul=EtaQuotient({2: 8, 3: 4, 1: -4, 6: -8}),
    cusp_poly=(0, 9, -10, 1),
    seed=TowerSeed(EtaQuotient({1: 2, 6: 12, 2: -4, 3: -6})),
    flags=("paper_typo: source cusp polynomial is malformed (x^3-10x+9x); "
           "x^3-10x^2+9x was derived from numeric cusp values 0, 1, 9",),
))

_add(LevelData(
    N=7, cusps=((0, 1),),
    hauptmodul=EtaQuotient({1: 4, 7: -4}),
    cusp_poly=(0, 1),
    seed=TowerSeed(EtaQuotient({7: 14, 1: -2}), {
        2: _form(_phi(7)), 4: _L7_W4}),
))

_add(LevelData(
    N=8, cusps=((0, 1), (1, 4), (1, 2)),
    hauptmodul=EtaQuotient({1: 4, 4: 2, 2: -2, 8: -4}),
    cusp_poly=(0, 32, 12, 1),
    seed=TowerSeed(EtaQuotient({8: 8, 4: -4})),
))

_add(LevelData(
    N=9, cusps=((0, 1), (1, 3), (-1, 3)),
    hauptmodul=EtaQuotient({1: 3, 9: -3}),
    cusp_poly=(0, 27, 9, 1),
    seed=TowerSeed(EtaQuotient({9: 6, 3: -2})),
    flags=("paper_typo: source Hauptmodul line duplicates the level-8 "
           "quotient; registry stores eta(1)^3 * eta(9)^-3",),
))

_add(LevelData(
    N=10, cusps=((0, 1), (1, 5), (1, 2)),
    hauptmodul=EtaQuotient({2: 1, 5: 5, 1: -1, 10: -5}),
    cusp_poly=(0, -4, -3, 1),
    seed=TowerSeed(EtaQuotient({1: 2, 2: -4, 5: -10, 10: 20}),
                   {2: _L10_W2}),
))

_add(LevelData(
    N=12, cusps=((0, 1), (1, 6), (1, 4), (1, 3), (1, 2)),
    hauptmodul=EtaQuotient({4: 4, 6: 2, 2: -2, 12: -4}),
    cusp_poly=(0, 9, 0, -10, 0, 1),
    # the level-6 weight-2 form at 2z
    seed=TowerSeed(EtaQuotient({2: 2, 12: 12, 4: -4, 6: -6})),
))

_add(LevelData(
    N=13, cusps=((0, 1),),
    hauptmodul=EtaQuotient({1: 2, 13: -2}),
    cusp_poly=(0, 1),
    seed=TowerSeed(EtaQuotient({13: 26, 1: -2}), {
        2: _form(_phi(13)),
        4: _L13_W4,
        6: _L13_W6,
        8: _form(("form", 4), ("form", 4)),
        10: _form(("form", 4), ("form", 6))}),
    flags=("paper_typo: source expansions of the weight-4 and weight-6 "
           "seeds (and their weight-8/10 products) are not forms on "
           "Gamma_0(13); corrected values verified by exact row reduction, "
           "by modular symbols, and by the duality suite",),
))

_add(LevelData(
    N=16, cusps=((0, 1), (1, 8), (1, 4), (-1, 4), (1, 2)),
    hauptmodul=EtaQuotient({1: 2, 8: 1, 2: -1, 16: -2}),
    cusp_poly=(0, 64, 80, 40, 10, 1),
    seed=TowerSeed(EtaQuotient({16: 8, 8: -4})),
))

_add(LevelData(
    N=18,
    cusps=((0, 1), (1, 9), (1, 6), (-1, 6), (1, 3), (-1, 3), (1, 2)),
    hauptmodul=EtaQuotient({6: 1, 9: 3, 3: -1, 18: -3}),
    cusp_poly=(0, -8, 0, 0, -7, 0, 0, 1),
    # the level-6 weight-2 form at 3z
    seed=TowerSeed(EtaQuotient({3: 2, 18: 12, 6: -4, 9: -6})),
))

_add(LevelData(
    N=25,
    cusps=((0, 1), (1, 5), (-1, 5), (2, 5), (-2, 5)),
    hauptmodul=EtaQuotient({1: 1, 25: -1}),
    cusp_poly=(0, 25, 25, 15, 5, 1),
    seed=TowerSeed(EtaQuotient({25: 10, 5: -2}), {2: _L25_W2}),
))


def get_level(N: int) -> LevelData:
    """Registry entry for N; N=1 is included alongside the genus-zero list."""
    try:
        return _REGISTRY[N]
    except KeyError:
        raise ValueError(f"level not genus zero: {N}") from None


def certificates() -> dict:
    """(level, weight) -> Certificate for every seed stored as one."""
    return {(N, w): form for N in ALL_LEVELS
            for w, form in get_level(N).seed.forms.items()
            if isinstance(form, Certificate)}


# -- maximal orders of vanishing -----------------------------------------

def v_of(N: int, k: int) -> int:
    """Maximal order of vanishing at infinity in the weight-k space with
    poles allowed only at infinity (negative when a pole is forced), by the
    valence formula: 12 v = k mu - 6 eps2 [k = 2 mod 4] - 4 eps3 ((-k/2)
    mod 3), the orders that the elliptic points force."""
    if k % 2:
        raise ValueError("weight must be even")
    mu, eps2, eps3 = get_level(N).valence
    return (k * mu - 6 * eps2 * (k % 4 == 2) - 4 * eps3 * (-k // 2 % 3)) // 12


def u_of(N: int, k: int) -> int:
    """Maximal order of vanishing at infinity in the subspace vanishing at
    the other cusps: u = v - (number of cusps - 1)."""
    return v_of(N, k) - (get_level(N).cusp_count - 1)


def cusp_killer(N: int, prec: int) -> QSeries:
    """P(psi) for the registry's monic cusp polynomial P: a weight-0 form
    with a pole of order cusp_count-1 at infinity and a simple zero at
    every other cusp."""
    from gridforge.basis import _eval_form  # local import, no cycle

    poly = Combo(tuple((c, (), j)
                       for j, c in enumerate(get_level(N).cusp_poly) if c))
    return cached(("cusp", N), (prec,), lambda prec: _eval_form(
        N, 0, poly, prec)).truncate(prec)


def registry_dump() -> dict:
    """Deterministic JSON-ready dump of the whole registry."""
    sample_weights = (-6, -4, -2, 0, 2, 4, 6, 8)
    levels = []
    for N in ALL_LEVELS:
        ld = get_level(N)
        levels.append({
            "level": N,
            "cusp_count": ld.cusp_count,
            "cusps": ["oo"] + [f"{a}/{c}" for a, c in ld.cusps],
            "hauptmodul": ("j" if N == 1 else ld.hauptmodul.to_text()),
            "cusp_polynomial": list(ld.cusp_poly),
            "v": {str(k): v_of(N, k) for k in sample_weights},
            "u": {str(k): u_of(N, k) for k in sample_weights},
            "flags": list(ld.flags),
        })
    return {
        "levels": levels,
        "notes": [
            "series tails start at exponent v+1 (resp. u+1); the source "
            "formula's summation bound -v+1 conflicts with every printed "
            "example and is treated as a typo",
        ],
    }


# -- conformance data -----------------------------------------------------
#
# Expected expansion prefixes for every registry generator, keyed by
# (level, weight) for seed forms and (level, None) for the Hauptmodul.
# A prefix lists the nonzero coefficients; all other exponents up to the
# last listed one must vanish.  Values were cross-checked against the
# numeric cusp oracle and the duality suite.

CONFORMANCE: tuple = tuple((N, w, dict(cert.expected))
                           for (N, w), cert in certificates().items()) + (
    (1, None, {-1: 1, 0: 744, 1: 196884, 2: 21493760, 3: 864299970}),
    (2, None, {-1: 1, 0: -24, 1: 276, 2: -2048}),
    (2, 2, {0: 1, 1: 24, 2: 24, 3: 96, 4: 24}),
    (2, 4, {1: 1, 2: 8, 3: 28, 4: 64}),
    (3, None, {-1: 1, 0: -12, 1: 54, 2: -76}),
    (3, 2, {0: 1, 1: 12, 2: 36, 3: 12, 4: 84}),
    (3, 4, {1: 1, 2: 9, 3: 27, 4: 73, 5: 126}),
    (3, 6, {2: 1, 3: 6, 4: 27, 5: 80, 6: 207}),
    (4, None, {-1: 1, 0: -8, 1: 20, 3: -62}),
    (4, 2, {1: 1, 3: 4, 5: 6, 7: 8, 9: 13}),
    (5, None, {-1: 1, 0: -6, 1: 9, 2: 10, 3: -30}),
    (5, 2, {0: 1, 1: 6, 2: 18, 3: 24, 4: 42}),
    (5, 4, {2: 1, 3: 2, 4: 5, 5: 10, 6: 20}),
    (6, None, {-1: 1, 0: 4, 1: 6, 2: 4, 3: -3}),
    (6, 2, {2: 1, 3: -2, 4: 3, 6: -1, 8: 7}),
    (7, None, {-1: 1, 0: -4, 1: 2, 2: 8, 3: -5}),
    (7, 2, {0: 1, 1: 4, 2: 12, 3: 16, 4: 28}),
    (7, 6, {4: 1, 5: 2, 6: 5, 7: 10, 8: 20}),
    (8, None, {-1: 1, 0: -4, 1: 4, 3: 2, 5: -8}),
    (8, 2, {2: 1, 6: 4, 10: 6, 14: 8, 18: 13}),
    (9, None, {-1: 1, 0: -3, 2: 5, 5: -7, 8: 3}),
    (9, 2, {2: 1, 5: 2, 8: 5, 11: 4, 14: 8}),
    (10, None, {-1: 1, 0: 1, 1: 1, 2: 2, 3: 2}),
    (10, 4, {6: 1, 7: -2, 8: 3, 9: -6, 10: 11}),
    (12, None, {-1: 1, 1: 2, 3: 1, 7: -2}),
    (12, 2, {4: 1, 6: -2, 8: 3, 12: -1, 16: 7}),
    # weights 8 and 10 carry corrected expansions; see the level-13 flag
    (13, None, {-1: 1, 0: -2, 1: -1, 2: 2, 3: 1}),
    (13, 2, {0: 1, 1: 2, 2: 6, 3: 8, 4: 14}),
    (13, 8, {8: 1, 9: 2, 10: 7, 11: 12, 12: 23, 13: 38}),
    (13, 10, {10: 1, 11: 3, 12: 9, 13: 19, 14: 41}),
    (13, 12, {14: 1, 15: 2, 16: 5, 17: 10, 18: 20}),
    (16, None, {-1: 1, 0: -2, 3: 2, 7: -1}),
    (16, 2, {4: 1, 12: 4, 20: 6, 28: 8, 36: 13}),
    (18, None, {-1: 1, 2: 1, 5: 1, 8: -1}),
    (18, 2, {6: 1, 9: -2, 12: 3, 18: -1, 24: 7}),
    (25, None, {-1: 1, 0: -1, 1: -1, 4: 1, 6: 1}),
    (25, 4, {10: 1, 15: 2, 20: 5, 25: 10, 30: 20}),
)
