"""Derivation and audit of the registry's seed certificates.

The registry stores five seeds (levels 7, 10, 13, 25) as Certificates,
exact combinations of phi_n(ez), E4(dz), E6(dz) and Hauptmodul powers;
none has a closed form here.  This module re-derives them, and the seed
of every other (N, k) with v_k(N) >= 0, by one exact integer elimination,
`row_reduce`, over a spanning family of weight-k forms with poles
confined to infinity: the holomorphic generator-pool members, products
of atoms that include the tower bases of divisor levels (eta quotients),
each times the Hauptmodul powers psi^0 .. psi^J.  The seed, its
certificate and the audit of its family are read off the same pivots.
The result must achieve the registry's maximal vanishing order and equal
the registry's first element of its (N, k), which for a certified seed
is the certificate, whose evaluation checks the pinned expansion prefix;
otherwise synthesis fails loudly.  Nothing on the path that builds bases
and grids calls this module.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from gridforge.basis import INF, _factor, first_element, hauptmodul_series
from gridforge.leveldata import get_level, v_of
from gridforge.qseries import DEFAULT_PREC, PrecisionError, QSeries

# Highest Hauptmodul power in a synthesis family; it suffices for every
# certified seed and every closed-form seed the tests cross-validate.
POLE_BOUND = 10


class SynthesisError(RuntimeError):
    pass


class SpanningFamily(namedtuple("SpanningFamily",
                                "level weight pole_bound members")):
    """The members, as (label, QSeries) pairs: the level's weight-k pool
    products times the Hauptmodul powers psi^0 .. psi^pole_bound."""
    __slots__ = ()


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _atoms(N: int, exclude=()) -> list[tuple[str, int, tuple]]:
    """The generator atoms of level N as (label, weight, registry factor):
    phi_d(ez), rescaled E4/E6, and the tower bases of divisor levels M at
    ez, each kept where it is holomorphic on Gamma_0(M).  The tower bases
    of the pairs (M, weight) in `exclude` are left out, and only they: a
    seed that is itself an atom, such as phi_N at (2, 2), (5, 2), (7, 2)
    and (13, 2), stays a member of its own family."""
    atoms: list[tuple[str, int, tuple]] = []
    for d in _divisors(N):
        if d > 1:
            for e in _divisors(N // d):
                label = f"phi{d}" if e == 1 else f"phi{d}({e}z)"
                atoms.append((label, 2, ("phi", d, e)))
    for d in _divisors(N):
        atoms.append((f"E4({d}z)", 4, ("eis", 4, d)))
        atoms.append((f"E6({d}z)", 6, ("eis", 6, d)))
    for M in _divisors(N):
        seed = get_level(M).seed
        w = seed.base_weight
        if v_of(M, w) >= 0 and (M, w) not in exclude:
            for e in _divisors(N // M):
                label = f"seed{M}w{w}" if e == 1 else f"seed{M}w{w}({e}z)"
                atoms.append((label, w, ("eta", seed.base.rescale(e))))
    return atoms


def weight_pool(N: int, weight: int, prec: int,
                exclude=()) -> list[tuple[str, QSeries]]:
    """Holomorphic weight-`weight` forms on Gamma_0(N): products of the
    two-term weight-2 combinations phi_d(ez), rescaled E4/E6, and tower
    bases of divisor levels."""
    # each atom that fits the weight is expanded once
    atoms = [(label, w, _factor(N, factor)[1](prec))
             for label, w, factor in _atoms(N, exclude) if w <= weight]

    pool: list[tuple[str, QSeries]] = []

    # non-decreasing atom indices give each multiset of atoms once
    def extend(start: int, remaining: int, label_parts: list[str],
               series: QSeries | None):
        if remaining == 0:
            pool.append(("*".join(label_parts), series.truncate(prec)))
            return
        for i in range(start, len(atoms)):
            label, w, base = atoms[i]
            if w > remaining:
                continue
            nxt = base if series is None else (series * base).truncate(prec)
            extend(i, remaining - w, label_parts + [label], nxt)

    extend(0, weight, [], None)
    return pool


def build_family(N: int, k: int, J: int, prec: int,
                 exclude=()) -> SpanningFamily:
    """The members h*psi^j, j = 0 .. J, for each h of the weight-k pool in
    pool order: the pool's forms with pole order at most J at infinity."""
    if k % 2 or k < 2:
        raise ValueError("synthesis families are built for even weight >= 2")
    # psi^j (valuation -j) is known to prec + J - j when psi is known to
    # prec + J - 1, so h * psi^j, for h holomorphic and known to prec + J,
    # is known to prec
    work = prec + J
    psi = hauptmodul_series(N, work - 1)
    psi_pows = [QSeries.one(work)]
    for _ in range(J):
        psi_pows.append((psi_pows[-1] * psi).truncate(work))

    pool = weight_pool(N, k, work, exclude)
    if not pool:
        raise SynthesisError(
            f"empty generator pool for level {N} weight {k}")
    members = [(f"{label}*psi^{j}" if j else label,
                (h * psi_pows[j]).truncate(prec))
               for label, h in pool for j in range(J + 1)]
    return SpanningFamily(N, k, J, tuple(members))


def row_reduce(members, e_min: int, e_cap: int):
    """Exact integer elimination on the exponents e_min .. e_cap - 1.

    Each member is read once, as its numerator row there, and reduced
    against the pivots so far, carrying integer tags, its weights over the
    members; each step divides out the gcd of the row and its tags.  A row
    left nonzero is the pivot at its first nonzero exponent, and reading
    stops once every exponent holds one.  Returns the pivots in ascending
    exponent as (exponent, label, tags): the pivot is sum c*member_i over
    its (i, c) tags, monic at its exponent, and no c is zero."""
    width = e_cap - e_min
    pivots = {}  # window offset -> (label, row, tags)
    for i, (label, s) in enumerate(members):
        if len(pivots) == width:
            break
        row, tags = s.numerators(e_min, e_cap), {i: s.denominator}
        for j in range(width):
            if not row[j]:
                continue
            if j not in pivots:
                pivots[j] = (label, row, tags)
                break
            _, prow, ptags = pivots[j]
            a, b = prow[j], row[j]
            row = [a * x - b * y for x, y in zip(row, prow)]
            tags = {m: a * tags.get(m, 0) - b * ptags.get(m, 0)
                    for m in tags.keys() | ptags.keys()}
            g = gcd(*row, *tags.values())
            row = [x // g for x in row]
            tags = {m: t // g for m, t in tags.items() if t}
    return [(e_min + j, label,
             tuple((m, Fraction(t, row[j])) for m, t in sorted(tags.items())))
            for j, (label, row, tags) in sorted(pivots.items())]


def reduce_family(N: int, k: int, prec: int = DEFAULT_PREC,
                  J: int = POLE_BOUND) -> tuple[SpanningFamily, list]:
    """The family of pole bound J that synthesis reduces, exact below
    q^prec (the target's own closed form left out), and its row_reduce
    pivots on the exponents -J .. v.  Each member is F*P(psi), F the seed
    and P a polynomial of degree at most J + v, so the space has one
    element of each valuation there and no nonzero one past q^v: no
    coefficient past q^v is needed, the elimination stops once every
    valuation has a pivot, and the top one is the seed, q^v + O(q^(v+1)),
    which needs prec > v.  Pivots short of q^v raise."""
    v = v_of(N, k)
    if v < 0:
        raise ValueError("synthesis applies to weights with v >= 0")
    if prec <= v:
        raise PrecisionError(
            f"seed of level {N} weight {k} starts at q^{v}, so prec {prec} "
            f"determines none of its terms: need prec >= {v + 1}")
    fam = build_family(N, k, J, prec, exclude=((N, k),))
    pivots = row_reduce(fam.members, -J, v + 1)
    top_e = pivots[-1][0] if pivots else None
    if top_e != v:
        raise SynthesisError(
            f"row reduction reached vanishing order {top_e}, not the "
            f"registry maximum {v}, for level {N} weight {k} "
            f"(pole bound {J})")
    return fam, pivots


def seed_of(reduced, prec: int) -> QSeries:
    """The seed read off a reduce_family result, modulo q^prec: the top
    pivot's combination of members, which must equal the registry's first
    element of its (N, k) (for a certified seed, the certificate)."""
    fam, pivots = reduced
    N, k = fam.level, fam.weight
    series = QSeries.combination(
        [(c, fam.members[i][1]) for i, c in pivots[-1][2]], prec)
    if first_element(N, k, INF, series.prec) != series:
        raise SynthesisError(
            f"the registry's first element of level {N} weight {k} differs "
            f"from its re-derivation below q^{series.prec}")
    return series


def synthesize_seed(N: int, k: int, prec: int = DEFAULT_PREC) -> QSeries:
    """The monic element of maximal vanishing order v_k(N), recovered by
    row reduction.  It must equal the registry's first element, whose
    evaluation checks a certificate's pinned prefix."""
    return seed_of(reduce_family(N, k, prec), prec)


def derive_certificate(N: int, k: int) -> tuple:
    """The seed's combination of family members, as the registry's
    Certificate terms (c, factors, psi power): the top pivot's tags of
    reduce_family, in member order."""
    fam, pivots = reduce_family(N, k, v_of(N, k) + 1)
    factor_of = {label: f for label, _, f in _atoms(N) if f[0] != "eta"}
    terms = []
    for i, c in pivots[-1][2]:
        label = fam.members[i][0]
        body, _, power = label.partition("*psi^")
        parts = body.split("*")
        if not all(p in factor_of for p in parts):
            raise SynthesisError(
                f"the seed of level {N} weight {k} needs the member {label}, "
                f"which is not a product of phi_n(ez), E4(dz) and E6(dz) "
                f"times a Hauptmodul power")
        terms.append((c, tuple(factor_of[p] for p in parts), int(power or 0)))
    return tuple(terms)


def audit_of(reduced) -> dict:
    """JSON-ready audit of a reduce_family result: labels, valuations,
    rank."""
    fam, pivots = reduced
    return {
        "level": fam.level,
        "weight": fam.weight,
        "pole_bound": fam.pole_bound,
        "members": [
            {"label": label,
             "valuation": (None if s.is_zero else s.valuation())}
            for label, s in fam.members
        ],
        "rank": len(pivots),
        "max_vanishing_achieved": pivots[-1][0] if pivots else None,
    }


def family_audit(N: int, k: int, J: int = POLE_BOUND,
                 prec: int = DEFAULT_PREC) -> dict:
    """JSON-ready audit of reduce_family's family of pole bound J at
    precision prec: labels, valuations, rank.  A prec <= v, or a family
    short of q^v, raises as reduce_family does."""
    return audit_of(reduce_family(N, k, prec, J))
