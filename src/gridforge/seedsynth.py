"""Derivation and audit of the registry's seed certificates.

The registry stores five seeds (levels 7, 10, 13, 25) as Certificates,
exact combinations of phi_n(ez), E4(dz), E6(dz) and Hauptmodul powers;
none has a closed form here.  This module re-derives them by exact
Gaussian elimination over a spanning family of weight-k forms with poles
confined to infinity: holomorphic generator-pool members times powers of
the Hauptmodul, their Serre derivatives, and Hauptmodul-derivative
products.  The tower bases of divisor levels, eta quotients, join the
pool as atoms.
The result must achieve the registry's maximal vanishing order, reproduce
the pinned expansion prefix and equal the registry's certificate,
otherwise synthesis fails loudly.  Nothing on the path that builds bases
and grids calls this module.
"""

from __future__ import annotations

from collections import namedtuple

from gridforge.basis import _factor, hauptmodul_series, level_form
from gridforge.generators import serre_derivative
from gridforge.leveldata import certificates, get_level, v_of
from gridforge.qseries import DEFAULT_PREC, PrecisionError, QSeries

# Highest Hauptmodul power in a synthesis family; it suffices for every
# certified seed and every closed-form seed the tests cross-validate.
POLE_BOUND = 10


class SynthesisError(RuntimeError):
    pass


class SpanningFamily(namedtuple("SpanningFamily",
                                "level weight pole_bound members")):
    """The members, as (label, QSeries) pairs, of the level's weight-k
    forms with pole order at most pole_bound at infinity."""
    __slots__ = ()


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _atoms(N: int, exclude=()) -> list[tuple[str, int, tuple]]:
    """The generator atoms of level N as (label, weight, registry factor):
    phi_d(ez), rescaled E4/E6, and the tower bases of divisor levels M at
    ez, each kept where it is holomorphic on Gamma_0(M).  Pairs (M, weight)
    in `exclude` are left out (so a seed under cross-validation cannot
    appear in its own spanning family)."""
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
    if weight == 0:
        return [("1", QSeries.one(prec))]
    # each atom that fits the weight is expanded once
    atoms = [(label, w, _factor(N, factor, prec))
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
    """All family members with pole order at most J at infinity."""
    if k % 2 or k < 2:
        raise ValueError("synthesis families are built for even weight >= 2")
    # psi^j (valuation -j) is known to prec + J - j when psi is known to
    # prec + J - 1, so h * psi^j (j <= J) and Dpsi * h * psi^j (j < J), for
    # h holomorphic and known to prec + J, are known to prec
    work = prec + J
    psi = hauptmodul_series(N, work - 1)
    psi_pows = [QSeries.one(work)]
    for _ in range(J):
        psi_pows.append((psi_pows[-1] * psi).truncate(work))

    members: list[tuple[str, QSeries]] = []
    main_pool = weight_pool(N, k, work, exclude)
    if not main_pool:
        raise SynthesisError(
            f"empty generator pool for level {N} weight {k}")
    for label, h in main_pool:
        for j in range(J + 1):
            members.append((f"{label}*psi^{j}" if j else label,
                            (h * psi_pows[j]).truncate(prec)))
    lower_pool = weight_pool(N, k - 2, work, exclude)
    for label, h in lower_pool:
        for j in range(J + 1):
            base = (h * psi_pows[j]).truncate(prec)
            lab = f"{label}*psi^{j}" if j else label
            members.append((f"theta({lab})",
                            serre_derivative(base, k - 2, prec)))
    dpsi = psi.derive()
    for label, h in lower_pool:
        for j in range(J):
            lab = f"{label}*psi^{j}" if j else label
            members.append((f"Dpsi*{lab}",
                            (dpsi * h * psi_pows[j]).truncate(prec)))
    return SpanningFamily(N, k, J, tuple(members))


def row_reduce(members, e_min: int, e_cap: int):
    """Exact Gaussian elimination pivoting on ascending q-exponent.

    Returns the pivots as (exponent, label, monic series); ties between
    rows of equal valuation go to the earlier member.
    """
    active = [(label, s) for label, s in members if not s.is_zero]
    pivots = []
    for e in range(e_min, e_cap):
        hit = None
        for i, (label, s) in enumerate(active):
            if s.coeff(e):
                hit = i
                break
        if hit is None:
            continue
        label, s = active.pop(hit)
        pivot = s.scale(1 / s.coeff(e))
        pivots.append((e, label, pivot))
        reduced = []
        for lab2, s2 in active:
            c = s2.coeff(e)
            if c:
                s2 = s2 - pivot.scale(c)
            if not s2.is_zero:
                reduced.append((lab2, s2))
        active = reduced
    return pivots


def _seed_family(N: int, k: int, prec: int) -> SpanningFamily:
    """The family synthesis reduces, exact below q^prec: pole bound
    POLE_BOUND, with the target's own closed form left out.  By the
    valence formula two forms of the family's space that agree through q^v
    are equal, so no coefficient past q^v is needed to find the seed, and
    the seed, q^v + O(q^(v+1)), needs prec > v."""
    v = v_of(N, k)
    if v < 0:
        raise ValueError("synthesis applies to weights with v >= 0")
    if prec <= v:
        raise PrecisionError(
            f"seed of level {N} weight {k} starts at q^{v}, so prec {prec} "
            f"determines none of its terms: need prec >= {v + 1}")
    return build_family(N, k, POLE_BOUND, prec, exclude=((N, k),))


def reduce_family(N: int, k: int,
                  prec: int = DEFAULT_PREC) -> tuple[SpanningFamily, list]:
    """The family synthesis reduces and its row-reduction pivots on the
    exponents -POLE_BOUND .. v.  Every member is a weight-k form that is
    holomorphic away from infinity, so a nonzero one vanishes to order at
    most v: once the pivot at q^v is taken, every row left is zero."""
    fam = _seed_family(N, k, prec)
    return fam, row_reduce(fam.members, -POLE_BOUND, v_of(N, k) + 1)


def _top_pivot(N: int, k: int, pivots) -> QSeries:
    """The pivot of maximal vanishing order v_k(N)."""
    v = v_of(N, k)
    top_e = pivots[-1][0] if pivots else None
    if top_e != v:
        raise SynthesisError(
            f"row reduction reached vanishing order {top_e}, not the "
            f"registry maximum {v}, for level {N} weight {k} "
            f"(pole bound {POLE_BOUND})")
    return pivots[-1][2]


def seed_of(reduced, prec: int) -> QSeries:
    """The seed read off a reduce_family result, modulo q^prec: the top
    pivot, which a certified seed's registry certificate must equal."""
    fam, pivots = reduced
    N, k = fam.level, fam.weight
    series = _top_pivot(N, k, pivots)
    if (N, k) in certificates() and level_form(N, k, series.prec) != series:
        raise SynthesisError(
            f"the registry certificate of level {N} weight {k} differs "
            f"from its re-derivation below q^{series.prec}")
    return series.truncate(prec)


def synthesize_seed(N: int, k: int, prec: int = DEFAULT_PREC) -> QSeries:
    """The monic element of maximal vanishing order v_k(N), recovered by
    row reduction.  A certified seed must equal the registry's
    certificate, whose evaluation checks the pinned prefix."""
    return seed_of(reduce_family(N, k, prec), prec)


def derive_certificate(N: int, k: int) -> tuple:
    """The seed's combination of family members, as the registry's
    Certificate terms (c, factors, psi power).

    Each member is tagged with a unit coefficient at its own exponent
    beyond the pivot range, so row reduction carries the combination along
    with the series (the augmented-identity form of elimination)."""
    cap = v_of(N, k) + 1
    fam = _seed_family(N, k, cap)
    size = len(fam.members)
    tagged = [(label, QSeries([*s.items(), (cap + i, 1)], cap + size))
              for i, (label, s) in enumerate(fam.members)]
    pivot = _top_pivot(N, k, row_reduce(tagged, -POLE_BOUND, cap))
    factor_of = {label: f for label, _, f in _atoms(N) if f[0] != "eta"}
    terms = []
    for e, c in pivot.items():
        if e < cap:
            continue
        label = fam.members[e - cap][0]
        body, sep, power = label.partition("*psi^")
        parts = body.split("*")
        if (sep and not power.isdigit()) or not all(p in factor_of
                                                    for p in parts):
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
    """JSON-ready audit of the family of pole bound J at precision prec
    (the target's own closed form left out): labels, valuations, rank."""
    fam = build_family(N, k, J, prec, exclude=((N, k),))
    return audit_of((fam, row_reduce(fam.members, -J, prec)))
