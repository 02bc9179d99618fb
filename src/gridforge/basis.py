"""Row-reduced canonical bases and modular grids.

The weight-k space with poles only at infinity has basis elements
f_{k,m} = q^-m + O(q^{v+1}) for m >= -v; the subspace vanishing at the
other cusps has g_{k,m} = q^-m + O(q^{u+1}) for m >= -u.  Elements are
built recursively: multiply the previous element by the Hauptmodul, then
subtract earlier elements (and the constant, where present) to clear
every coefficient between the leading term and the gap bound.

The first element comes from the level's seed recipe, a product of
registry forms.  Every registry form is a `leveldata.Combo`, a sum of
c * (product of factors) * psi^j, and one function, `_eval_form`,
evaluates them all (and the cusp-killing polynomial); it checks a
`leveldata.Certificate` against its pinned prefix.

The Hauptmodul is monic with integer coefficients and every first element
is integral, so the recursion runs on the integer rows that `QSeries`
stores and assembles the elements from them.  IntegralityError is raised
if the Hauptmodul or the first element has a non-integral coefficient.

Completed bases are immutable and cached, one entry per (level, weight,
space), under the series store's rule: an entry only grows.  An entry has
one precision, to which its last and least precise element is known.  A
request that the entry covers, in count and precision, is sliced and
truncated from it; any other request rebuilds the entry at the larger
count and the larger precision, so it still covers every earlier request.
The series a basis is built from (Hauptmodul, registry forms, the inverse
of a base form, first elements) are kept in the series store,
`gridforge.qseries.cached`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub

from gridforge import leveldata
from gridforge.generators import eisenstein, j_function, phi
from gridforge.leveldata import (
    Certificate,
    Combo,
    get_level,
    u_of,
    v_of,
)
from gridforge.qseries import DEFAULT_PREC, PrecisionError, QSeries, cached

INF = "inf"
HAT = "hat"


def gap_bound(N: int, k: int, space: str) -> int:
    """The order through which every basis element of the space is in gap
    form: v for the full space, u for the subspace vanishing at the other
    cusps."""
    if space == INF:
        return v_of(N, k)
    if space == HAT:
        return u_of(N, k)
    raise ValueError(f"space must be {INF!r} or {HAT!r}, got {space!r}")


def hauptmodul_series(N: int, prec: int) -> QSeries:
    """q-expansion of the level's Hauptmodul (the j-function for N=1)."""
    def build(prec):
        s = j_function(prec) if N == 1 else get_level(N).hauptmodul.expand(prec)
        if s.valuation() != -1 or s.coeff(-1) != 1:
            raise AssertionError(f"Hauptmodul for level {N} is not monic q^-1")
        return s
    return cached(("haupt", N), prec, build)


def _factor(N: int, factor: tuple, prec: int) -> QSeries:
    """Expand one factor of a registry form (see leveldata.Combo)."""
    match factor:
        case ("phi", n, e):
            return phi(n, prec, scale=e)
        case ("eis", w, d):
            return eisenstein(w, prec, scale=d)
        case ("eta", quotient):
            return quotient.expand(prec)
        case ("form", w):
            return level_form(N, w, prec)
    raise TypeError(f"unknown form factor {factor!r}")


def _eval_form(N: int, k: int, form: Combo, prec: int) -> QSeries:
    """Sum a registry form's terms c * (product of factors) * psi^j, as one
    polynomial in the Hauptmodul per factor product.  A Certificate is
    checked against its pinned prefix."""
    cert = isinstance(form, Certificate)
    target = max(prec, form.check_through + 1) if cert else prec
    top = max(j for _, _, j in form.terms)
    # psi^j has a pole of order j, so it costs j terms of precision
    work = target + top
    psi_pows = [QSeries.one(work)]
    for _ in range(top):
        psi_pows.append(psi_pows[-1] * hauptmodul_series(N, work))
    polys: dict[tuple, list] = {}
    for c, factors, j in form.terms:
        polys.setdefault(factors, []).append((c, psi_pows[j]))
    products = []
    for factors, pairs in polys.items():
        poly = QSeries.combination(pairs, work)
        for f in factors:
            poly = poly * _factor(N, f, work)
        products.append((1, poly))
    total = QSeries.combination(products, target)
    if cert:
        form.check(N, k, total)
    return total


def level_form(N: int, weight: int, prec: int = DEFAULT_PREC) -> QSeries:
    """The registry's weight-`weight` form for this level (the F-forms of
    its seed recipe)."""
    form = get_level(N).seed.forms.get(weight)
    if form is None:
        raise ValueError(f"level {N} has no registry form in weight {weight}")
    return cached(("form", N, weight), prec,
                  lambda prec: _eval_form(N, weight, form, prec))


def first_element(N: int, k: int, space: str,
                  prec: int = DEFAULT_PREC) -> QSeries:
    """The basis element of maximal vanishing order: the seed recipe for
    the full space, times the cusp-killing polynomial for the subspace."""
    if k % 2:
        raise ValueError("weight must be even")
    expect = gap_bound(N, k, space)
    if prec <= expect:
        raise PrecisionError(
            f"first element of level {N} weight {k} {space} starts at "
            f"q^{expect}, so prec {prec} determines none of its terms")
    out = cached(("first", N, k, space), prec,
                 lambda prec: _build_first(N, k, space, prec))
    if out.prec < prec:
        raise PrecisionError(
            f"first element of level {N} weight {k} only determined mod "
            f"q^{out.prec}; need {prec}")
    if out.valuation() != expect or out.coeff(expect) != 1:
        raise AssertionError(
            f"seed for level {N} weight {k} {space} is not monic q^{expect}")
    return out


def _build_first(N: int, k: int, space: str, prec: int) -> QSeries:
    ld = get_level(N)
    v = v_of(N, k)
    if space == HAT:
        deg = ld.cusp_count - 1
        # the cusp killer (valuation -deg) times the INF element (valuation
        # v), each known to work, is known to work - max(deg, -v)
        work = prec + max(deg, -v)
        inf = first_element(N, k, INF, work)
        return (inf * leveldata.cusp_killer(N, work)).truncate(prec)
    seed = ld.seed
    power, kp = seed.split(k)
    base_weight = seed.base_weight
    v_base = v_of(N, base_weight)
    # base^power (valuation power*v_base) is known to work - (1-power)*v_base
    # for either sign of power; times F_kp (valuation v_kp <= v_base, known
    # to work) that is work - max(0, (1-power)*v_base - v_kp)
    work = prec + max(0, (1 - power) * v_base - v_of(N, kp))
    if power >= 0:
        out = level_form(N, base_weight, work) ** power
    else:
        # the base's inverse has valuation -v_base, known to 2*v_base terms
        # less than the base
        inv = cached(("inv", N, base_weight), work - 2 * v_base,
                     lambda p: level_form(N, base_weight,
                                          p + 2 * v_base).inverse())
        out = inv ** -power
    out = out * level_form(N, kp, work)
    return out.truncate(prec)


@dataclass(frozen=True)
class CanonicalBasis:
    """Ordered family of basis elements m0, m0+1, ... at uniform precision."""
    N: int
    k: int
    space: str
    m0: int
    gap_bound: int
    prec: int
    elements: tuple

    @property
    def count(self) -> int:
        return len(self.elements)

    @property
    def indices(self) -> range:
        return range(self.m0, self.m0 + len(self.elements))

    def element(self, m: int) -> QSeries:
        if m not in self.indices:
            raise IndexError(
                f"basis index {m} of level {self.N} weight {self.k} "
                f"{self.space} outside built range {self.indices}")
        return self.elements[m - self.m0]


def required_prec(N: int, k: int, space: str, count: int) -> int:
    """Minimal working precision accepted by build_basis."""
    return count + abs(gap_bound(N, k, space)) + 5


class IntegralityError(AssertionError):
    """A series the recursion treats as integral has a non-integral
    coefficient."""


def _require_integral(s: QSeries, what: str):
    """Raise IntegralityError unless every coefficient of s is an int."""
    if s.denominator != 1:
        e, c = next((e, c) for e, c in s.items() if c.denominator != 1)
        raise IntegralityError(
            f"{what} has the non-integral coefficient {c} at q^{e}")


_basis_cache: dict[tuple, CanonicalBasis] = {}


def build_basis(N: int, k: int, space: str, count: int,
                prec: int = DEFAULT_PREC) -> CanonicalBasis:
    """Build elements m0 .. m0+count-1, each exact modulo q^prec."""
    if count < 1:
        raise ValueError("count must be >= 1")
    need = required_prec(N, k, space, count)
    if prec < need:
        raise PrecisionError(
            f"insufficient precision for level {N} weight {k} {space} with "
            f"count {count}: need prec >= {need}, got {prec}")
    key = (N, k, space)
    entry = _basis_cache.get(key)
    # a miss rebuilds the entry to cover this request and every earlier one
    have_count, have_prec = (entry.count, entry.prec) if entry else (0, 0)
    if have_count < count or have_prec < prec:
        entry = _basis_cache[key] = _build(
            N, k, space, max(count, have_count), max(prec, have_prec))
    return CanonicalBasis(N, k, space, entry.m0, entry.gap_bound, prec,
                          tuple(e.truncate(prec)
                                for e in entry.elements[:count]))


def _build(N: int, k: int, space: str, count: int,
           prec: int) -> CanonicalBasis:
    """Run the Hauptmodul recursion for elements m0 .. m0+count-1; the
    last, and least precise, is exact modulo q^prec."""
    B = gap_bound(N, k, space)
    m0 = -B
    work = prec + count - 1
    where = f"level {N} weight {k} {space}"
    # The recursion reads psi up to q^(work+m0-2).  psi[a] is the q^(a-1)
    # coefficient of the Hauptmodul.
    psi_series = hauptmodul_series(N, work + m0 - 1)
    _require_integral(psi_series,
                      f"Hauptmodul of level {N} (for {where} prec {work})")
    psi = psi_series.numerators(-1, work + m0 - 1)
    # psi[0] is the leading coefficient of every product psi * element
    if psi[0] != 1:
        raise AssertionError(
            f"recursion lost the leading term at {where} index {m0 + 1}")
    # Element j is q^-(m0+j) + sum_y tails[j][y] q^(B+1+y), known modulo
    # q^(work-j): each multiplication by psi loses one term.
    first = first_element(N, k, space, work)
    _require_integral(first,
                      f"first element of {where} index {m0} prec {work}")
    tails = [first.numerators(B + 1, work)]
    psi_rev = psi[::-1]
    top = len(psi) - 1
    for i in range(1, count):
        prev = tails[-1]
        # the tail part of psi * element i-1, from q^B on
        conv = [sum(map(mul, prev, psi_rev[top - n:]))
                for n in range(len(prev))]
        # Gap form: clearing q^s with element -s touches only q^s and the
        # tail, so every clearing coefficient is read off the product.
        # Element j leads with q^-(m0+j), where the product's coefficient
        # is psi[i-j], plus the tail's q^B term for j = 0.
        tail = list(map(add, psi[i + 1:], conv[1:]))
        for j in range(i):
            c = psi[i - j] + (conv[0] if j == 0 else 0)
            if c:
                tail = list(map(sub, tail, map(mul, repeat(c), tails[j])))
        tails.append(tail)
    elements = tuple(QSeries.from_row(B - j, [1, *repeat(0, j), *tail],
                                      work - j)
                     for j, tail in enumerate(tails))
    built = CanonicalBasis(N, k, space, m0, B, prec, elements)
    _verify_gap_form(built)
    return built


def _verify_gap_form(basis: CanonicalBasis):
    for m in basis.indices:
        gap = basis.element(m).numerators(-m + 1, basis.gap_bound + 1)
        if any(gap):
            s = next(s for s, c in enumerate(gap, -m + 1) if c)
            raise AssertionError(
                f"gap form violated at level {basis.N} weight {basis.k} "
                f"{basis.space} index {m}, exponent {s}")


@dataclass(frozen=True)
class ModularGrid:
    """Paired bases: weight k with poles at infinity only, against
    weight 2-k vanishing at the other cusps."""
    N: int
    k: int
    fside: CanonicalBasis
    gside: CanonicalBasis


def build_grid(N: int, k: int, count: int,
               prec: int | None = None) -> ModularGrid:
    """Build both sides of the weight-(k, 2-k) grid with `count` elements.

    The default precision count + |v| + 6 determines a count-by-count
    duality box and is at least the required_prec of both sides.
    """
    v = v_of(N, k)
    u = u_of(N, 2 - k)
    if prec is None:
        prec = count + abs(v) + 6
    fside = build_basis(N, k, INF, count, prec)
    gside = build_basis(N, 2 - k, HAT, count, prec)
    if gside.m0 != v + 1 or fside.m0 != u + 1:
        raise AssertionError("index ranges of the two sides fail to align")
    return ModularGrid(N, k, fside, gside)


def duality_residual(grid: ModularGrid, m_max: int, n_max: int) -> Fraction:
    """max |a_k(m,n) + b_{2-k}(n,m)| over the box of the first m_max
    f-indices against the first n_max g-indices; exact zero iff duality
    holds there."""
    if m_max < 0 or n_max < 0:
        raise ValueError("box dimensions must be nonnegative")
    if m_max > grid.fside.count or n_max > grid.gside.count:
        raise PrecisionError(
            f"duality box {m_max}x{n_max} exceeds built count "
            f"({grid.fside.count}, {grid.gside.count})")
    f_ind = grid.fside.indices[:m_max]
    g_ind = grid.gside.indices[:n_max]
    sums = _box_sums({m: grid.fside.element(m) for m in f_ind},
                     {n: grid.gside.element(n) for n in g_ind})
    return max((Fraction(abs(r), d) for r, d in sums if r),
               default=Fraction(0))


def _box_sums(f: dict, g: dict):
    """a(m, n) + b(n, m) for every m in f and n in g, as (numerator,
    denominator) pairs of ints, where f[m] has the coefficients a(m, .)
    and g[n] the coefficients b(n, .); the keys of each dict are
    consecutive ints."""
    if not f or not g:
        return
    f_lo, f_hi = min(f), max(f) + 1
    g_lo, g_hi = min(g), max(g) + 1
    cols = [(s.numerators(f_lo, f_hi), s.denominator)
            for _, s in sorted(g.items())]
    for m, s in sorted(f.items()):
        da = s.denominator
        i = m - f_lo
        for a, (col, db) in zip(s.numerators(g_lo, g_hi), cols):
            yield a * db + col[i] * da, da * db
