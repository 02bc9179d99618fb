"""Row-reduced canonical bases and modular grids.

The weight-k space with poles only at infinity has basis elements
f_{k,m} = q^-m + O(q^{v+1}) for m >= -v; the subspace vanishing at the
other cusps has g_{k,m} = q^-m + O(q^{u+1}) for m >= -u.  The elements
obey a recursion: the previous element times the Hauptmodul, minus earlier
elements (and the constant, where present) to clear every coefficient
between the leading term and the gap bound.  The anti-diagonal walk builds
them from it; the recursion itself is only the oracle (see below).

Every series built from registry data is a `leveldata.Combo`, a sum of
c * (product of factors) * psi^j, and one function, `_eval_form`,
evaluates them all: the registry forms, the cusp-killing polynomial and
the first elements.  A first element is a recipe, the one-term Combo
F_base^l * F_k' of the level's seed, times the cusp-killing polynomial
for the subspace; F_base is an eta quotient, so F_base^l is one for l of
either sign.  `_eval_form` asks each factor for as many terms as the
product needs, found from the factors' valuations, and checks a
`leveldata.Certificate` against its pinned prefix.

The Hauptmodul is monic with integer coefficients and every first element
is integral, so the builders run on the integer rows that `QSeries`
stores and assemble the elements from them.  IntegralityError is raised
if the Hauptmodul or the first element has a non-integral coefficient.

Completed bases are immutable and kept in the store
`gridforge.qseries.cached` under ("basis", N, k, space) at the size
(count, prec), beside the series a first element is built from
(Hauptmodul, registry forms, the cusp-killing polynomial).  An entry only
grows: a request it covers in count and precision gets a view of it, which
shares its elements and cuts one to the request's precision only when it is
read; any other request rebuilds it at the larger count and the larger
precision.  A view taken before a rebuild keeps the elements it was given.

A key's weight picks its builder.  Weight k <= 0 has one, the
anti-diagonal walk (`_walk`), which asks for the Hauptmodul and the first
element once and cuts every element to q^prec, so the only floor on prec
is the gap bound.  It fills the coefficients a(M, n) by anti-diagonals
M + n from two identities: the chain a(M+1, n) = a(M, n+1) + K(M, n) of
the recursion above, and the symmetry m^e a(n, m) = n^e a(m, n) +
corr(m, n), e = 1 - k, that Bol's identity and duality give together.  It
closes each long diagonal through a requested row at its middle by one
exact division, so it fills about the square the request covers, and
reads the first element only as far as that square's columns; a diagonal
whose middle lies past the requested rows it walks down by the chain.  The
recursion itself, which carries element j to q^(prec + count - 1 - j), is
kept as an oracle in `gridforge.acceptance`.
Weight k >= 2 is read off the other space of weight 2 - k, its source, by
duality: a(m, n) = -b(n, m) for every m >= -B and n >= B + 1, B the
source's gap bound, so each element is q^-n minus column n of the source
(`_transpose`).  A grid asks for its weight <= 0 side once, large enough
for both sides, and so its duality holds by construction.
"""

from __future__ import annotations

from collections import Counter, deque, namedtuple
from fractions import Fraction
from itertools import chain, repeat
from operator import add, mul, neg

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
    return cached(("haupt", N), (prec,), build).truncate(prec)


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
        case ("cusp",):
            return leveldata.cusp_killer(N, prec)
    raise TypeError(f"unknown form factor {factor!r}")


def _valuation(N: int, factor: tuple) -> int:
    """The valuation of a factor's expansion, known before expanding it."""
    match factor:
        case ("phi", _, _) | ("eis", _, _):
            return 0
        case ("eta", quotient):
            return int(quotient.lead_exponent)
        case ("form", w):
            return v_of(N, w)
        case ("cusp",):
            return 1 - get_level(N).cusp_count
    raise TypeError(f"unknown form factor {factor!r}")


def _eval_form(N: int, k: int, form: Combo, prec: int) -> QSeries:
    """Sum a Combo's terms c * (product of factors) * psi^j, as one
    polynomial in the Hauptmodul per factor product, known modulo q^prec.
    This is the one evaluator of registry Combos: the registry forms, the
    cusp-killing polynomial and the first elements.  A Certificate is
    checked against its pinned prefix."""
    cert = isinstance(form, Certificate)
    target = max(prec, form.check_through + 1) if cert else prec
    groups: dict[tuple, list] = {}
    for c, factors, j in form.terms:
        groups.setdefault(factors, []).append((c, j))
    # A product is known as far beyond its valuation as its least precise
    # factor, and psi^j (valuation -j) as far beyond its own as psi.  So a
    # group with top psi power `top` and factor valuations summing to sv is
    # known to target when psi is known to rel - 1 and each factor rel
    # terms beyond its valuation, rel = target + top - sv (at least 1, so
    # that every lead is known).
    rel = {factors: max(target + max(j for _, j in pairs)
                        - sum(_valuation(N, f) for f in factors), 1)
           for factors, pairs in groups.items()}
    top = max(j for _, _, j in form.terms)
    if top:
        reach = max(rel.values())
        psi = hauptmodul_series(N, reach - 1)
        psi_pows = [QSeries.one(reach)]
        for _ in range(top):
            psi_pows.append(psi_pows[-1] * psi)
    products = []
    for factors, pairs in groups.items():
        r = rel[factors]
        group_top = max(j for _, j in pairs)
        # a constant polynomial is a coefficient, not a product
        if group_top:
            c, series = 1, QSeries.combination(
                ((c, psi_pows[j]) for c, j in pairs), r - group_top)
        else:
            c, series = sum(c for c, _ in pairs), None
        for f, n in Counter(factors).items():
            s = _factor(N, f, _valuation(N, f) + r)
            if n > 1:
                s = s ** n
            series = s if series is None else series * s
        products.append((c, QSeries.one(r) if series is None else series))
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
    return cached(("form", N, weight), (prec,), lambda prec: _eval_form(
        N, weight, form, prec)).truncate(prec)


def first_element(N: int, k: int, space: str,
                  prec: int = DEFAULT_PREC) -> QSeries:
    """The basis element of maximal vanishing order: the seed recipe
    F_base^l * F_k' for the full space, times the cusp-killing polynomial
    for the subspace, evaluated as a one-term Combo.  F_base^l is the one
    eta quotient with every exponent of the base times l."""
    expect = gap_bound(N, k, space)
    if prec <= expect:
        raise PrecisionError(
            f"first element of level {N} weight {k} {space} starts at "
            f"q^{expect}, so prec {prec} determines none of its terms")
    seed = get_level(N).seed
    power, kp = seed.split(k)
    factors = ((("eta", seed.base ** power),) if power else ()) + (
        (("form", kp),) if kp else ())
    if space == HAT:
        factors += (("cusp",),)
    out = _eval_form(N, k, Combo(((1, factors, 0),)), prec)
    if out.prec < prec:
        raise PrecisionError(
            f"first element of level {N} weight {k} only determined mod "
            f"q^{out.prec}; need {prec}")
    if out.valuation() != expect or out.coeff(expect) != 1:
        raise AssertionError(
            f"seed for level {N} weight {k} {space} is not monic q^{expect}")
    return out


class CanonicalBasis(namedtuple(
        "CanonicalBasis", "N k space m0 gap_bound prec stored count")):
    """Ordered family of basis elements m0 .. m0+count-1, each exact modulo
    q^prec.

    It may be a view of a larger basis: `stored` is that basis's element
    tuple, shared and never copied, and may hold more elements, known to a
    higher precision.  An element is cut to prec when it is read, so a view
    costs nothing until then, and reading an element again cuts it again;
    `combination` sums stored elements without cutting each.  Two bases
    are equal when they have the same head and read the same elements,
    whatever their stored tuples hold beyond them."""
    __slots__ = ()

    @property
    def indices(self) -> range:
        return range(self.m0, self.m0 + self.count)

    @property
    def elements(self) -> tuple:
        return tuple(e.truncate(self.prec) for e in self.stored[:self.count])

    def _stored(self, m: int) -> QSeries:
        i = m - self.m0
        if not 0 <= i < self.count:
            raise IndexError(
                f"basis index {m} of level {self.N} weight {self.k} "
                f"{self.space} outside built range {self.indices}")
        return self.stored[i]

    def element(self, m: int) -> QSeries:
        return self._stored(m).truncate(self.prec)

    def numerators(self, m: int, lo: int, hi: int) -> list[int]:
        """element(m).numerators(lo, hi), read off the stored element uncut;
        PrecisionError naming the element if the window reaches past
        prec."""
        s = self._stored(m)
        if hi > lo and hi > self.prec:
            raise PrecisionError(
                f"coefficient q^{hi - 1} of basis index {m} of level "
                f"{self.N} weight {self.k} {self.space} not determined at "
                f"prec {self.prec}")
        return s.numerators(lo, hi)

    def combination(self, pairs, prec: int) -> QSeries:
        """sum c * element(m) over the (m, c) pairs, known modulo q^prec.
        The sum is cut anyway, so it reads the stored elements uncut."""
        return QSeries.combination(((c, self._stored(m)) for m, c in pairs),
                                   min(prec, self.prec))

    def _head(self) -> tuple:
        return (self.N, self.k, self.space, self.m0, self.gap_bound,
                self.prec, self.count)

    def __eq__(self, other):
        if not isinstance(other, CanonicalBasis):
            return NotImplemented
        # views of one tuple with the same head read the same elements
        return self._head() == other._head() and (
            self.stored is other.stored or self.elements == other.elements)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self._head())


class IntegralityError(AssertionError):
    """A series the walk treats as integral has a non-integral
    coefficient, or one of its divisions is inexact."""


def _require_integral(s: QSeries, what: str):
    """Raise IntegralityError unless every coefficient of s is an int."""
    if s.denominator != 1:
        e, c = next((e, c) for e, c in s.items() if c.denominator != 1)
        raise IntegralityError(
            f"{what} has the non-integral coefficient {c} at q^{e}")


def _check_request(N: int, k: int, space: str, count: int, prec: int):
    """Refuse a basis request that asks for no element, or whose precision
    does not reach past the gap bound."""
    if count < 1:
        raise ValueError("count must be >= 1")
    # every element is in gap form through q^B, so prec must reach past it
    B = gap_bound(N, k, space)
    if prec <= B:
        raise PrecisionError(
            f"insufficient precision for level {N} weight {k} {space} with "
            f"count {count}: need prec >= {B + 1}, got {prec}")


def build_basis(N: int, k: int, space: str, count: int,
                prec: int = DEFAULT_PREC) -> CanonicalBasis:
    """Elements m0 .. m0+count-1, each exact modulo q^prec: built from the
    Hauptmodul for weight k <= 0, read off the other space of weight 2 - k
    as its negated transpose for k >= 2.

    The result is a view of the key's store entry, which covers the
    request: it shares the entry's elements and cuts each to prec only when
    it is read, so a request the entry already covers copies nothing."""
    _check_request(N, k, space, count, prec)
    build = _walk if k <= 0 else _transpose
    entry = cached(("basis", N, k, space), (count, prec),
                   lambda count, prec: build(N, k, space, count, prec))
    return CanonicalBasis(N, k, space, entry.m0, entry.gap_bound, prec,
                          entry.stored, count)


def _inputs(N: int, k: int, space: str, count: int, prec: int, reach: int):
    """What a weight k <= 0 build reads, each checked integral: the
    Hauptmodul's coefficients psi[a] at q^(a-1) up to q^(work+m0-2),
    work = prec + count - 1, and the first element's from q^(B+1) up to
    q^(reach-1)."""
    B = gap_bound(N, k, space)
    m0 = -B
    work = prec + count - 1
    where = f"level {N} weight {k} {space}"
    psi_series = hauptmodul_series(N, work + m0 - 1)
    _require_integral(psi_series,
                      f"Hauptmodul of level {N} (for {where} prec {work})")
    psi = psi_series.numerators(-1, work + m0 - 1)
    first = first_element(N, k, space, reach)
    _require_integral(first,
                      f"first element of {where} index {m0} prec {reach}")
    return psi, first.numerators(B + 1, reach)


def _walk(N: int, k: int, space: str, count: int,
          prec: int) -> CanonicalBasis:
    """Elements m0 .. m0+count-1 of a weight k <= 0 space, each exact
    modulo q^prec, filled by anti-diagonals D = M + n of the coefficients
    a(M, n), n > B, of the elements M, from two identities.

    The chain is the recursion read coefficient by coefficient: with psi_s
    the q^s coefficient of the Hauptmodul,

        a(M+1, n) = a(M, n+1) + K(M, n),
        K(M, n) = psi_(n+M) + sum_{j=B+1..n} psi_(n-j) a(M, j)
                  - sum_{M'=m0..M} psi_(M-M') a(M', n) - a(m0, n) a(M, B+1),

    its two sums the recursion's product and clearing; K reads only earlier
    diagonals.  The symmetry is Bol's identity and duality together.  With
    D = q d/dq and e = 1 - k, Bol's identity says that D^e maps this space
    into the other space of weight 2 - k, whose elements g_m have the
    coefficients b(m, n); matching principal parts, D^e of element m is
    (-m)^e g_m + sum_l l^e a(m, l) g_-l over the low columns l != 0 below.
    Its q^n coefficient, with duality b(m, n) = -a(n, m), gives, for
    m, n >= s0 = max(m0, B+1),

        m^e a(n, m) = n^e a(m, n) + corr(m, n),
        corr(m, n) = sum_{l=B+1..-B-1} l^e a(m, l) a(n, -l),

    which reads only the low columns l < s0 of earlier diagonals (none when
    B >= 0).

    With R = m0 + count the first row not asked for, a diagonal
    2 s0 < D < 2 R, whose middle is a requested row, is closed there by
    one exact division: for odd D the chain step from a(M, M+1) to
    a(M+1, M) and the symmetry between them give a(M, M+1); for even D the
    two chain steps from a(M-1, M+1) to a(M+1, M-1) do.  It is then walked
    up toward row m0 by the chain, and where it reaches row m0 it must give
    the first element's coefficient; below the middle it is filled by the
    symmetry, and by the chain in the low columns.  Every other diagonal,
    the short ones and those from 2 R on, is walked down by the chain from
    the first element.  Only rows m0 .. R-1 are filled (and the low columns
    of row R, which the middle divisions read), up to the last diagonal a
    requested coefficient lies on.  The columns go to max(prec, R) and as
    far as the diagonals walked down reach: once prec >= R + 2 brings a
    diagonal from 2 R on, they are the columns the recursion carries, up to
    q^(prec + count - 2).  The first element is read as far as the columns
    go.

    The divisions and the first-element check also refuse a wrong psi_s,
    except where the first element is 1 (weight 0, B = 0): the elements
    are then the Faber polynomials of psi, whose coefficients have the
    symmetry for every series q^-1 + O(q).  A diagonal walked down is
    checked only where a later division reads it.
    """
    B = gap_bound(N, k, space)
    m0, e, s0 = -B, 1 - k, max(-B, B + 1)
    R = m0 + count
    # the diagonal of a(R - 1, prec - 1), the last a requested coefficient
    # lies on; the first, of a(m0, B + 1), is 1
    last = prec + count + m0 - 2
    # the last diagonal walked down from row m0, and the end C of the
    # columns B+1 .. C-1 that the walk fills
    down = last if last >= 2 * R else min(2 * s0, last)
    C = max(prec, R, down - m0 + 1)
    psi, top = _inputs(N, k, space, count, prec, C)
    h = psi[1:]
    where = f"level {N} weight {k} {space}"
    # Rows and columns keep their coefficients newest first, so each sum
    # of K is a dot product with h from its start.
    rows = [deque() for _ in range(m0, R + 1)]
    cols = [deque() for _ in range(B + 1, C)]
    powers = [i ** e for i in range(R + 1)]
    n_low = max(0, -2 * B - 1)
    low_powers = [l ** e for l in range(B + 1, B + 1 + n_low)]
    # per row m, once its low columns are in: l^e a(m, l) and a(m, -l)
    weighted, mirrored = {}, {}

    def K(M, n):
        row, col = rows[M - m0], cols[n - B - 1]
        return (h[M + n] + sum(map(mul, row, h)) - sum(map(mul, col, h))
                - row[-1] * col[-1])

    def corr(m, n):
        return sum(map(mul, weighted[m], mirrored[n])) if n_low else 0

    def exact(num, den, M, n):
        a, r = divmod(num, den)
        if r:
            raise IntegralityError(
                f"anti-diagonal walk of {where} index {M} prec {prec} has "
                f"a non-integral coefficient at q^{n}")
        return a

    for D in range(1, last + 1):
        # the last row on D: row R only in the low columns
        hi = min(D - B - 1, R if D - R < s0 else R - 1)
        mid = D // 2
        if D <= 2 * s0 or mid >= R:
            lo = m0
            v = top[D - m0 - B - 1]
            diag = [v]
            for r in range(m0, hi):
                v += K(r, D - r - 1)
                diag.append(v)
        else:
            lo = max(m0, D - C + 1)
            if D % 2:
                v = exact(powers[mid] * K(mid, mid) - corr(mid, mid + 1),
                          powers[mid + 1] - powers[mid], mid, mid + 1)
                up = [v]
            else:
                k1 = K(mid - 1, mid)
                v = exact(powers[mid - 1] * (k1 + K(mid, mid - 1))
                          - corr(mid - 1, mid + 1),
                          powers[mid + 1] - powers[mid - 1], mid - 1, mid + 1)
                up = [v + k1, v]
            # up holds rows mid, mid - 1, ...
            for r in range(mid - len(up), lo - 1, -1):
                v -= K(r, D - r - 1)
                up.append(v)
            diag = up[mid - lo::-1]
            if lo == m0 and diag[0] != top[D - m0 - B - 1]:
                raise AssertionError(
                    f"anti-diagonal walk of {where} index {m0} prec {prec} "
                    f"misses the first element's coefficient at q^{D - m0}")
            v = diag[-1]
            for r in range(mid + 1, hi + 1):
                c = D - r
                if c >= s0:
                    v = exact(powers[r] * diag[c - lo] + corr(c, r),
                              powers[c], r, c)
                else:
                    v += K(r - 1, c)
                diag.append(v)
        for r, v in enumerate(diag, lo):
            rows[r - m0].appendleft(v)
            cols[D - r - B - 1].appendleft(v)
        r = D - s0 + 1
        if n_low and m0 <= r <= hi:
            # D completed the low columns of row r
            weighted[r] = list(map(mul, low_powers, reversed(rows[r - m0])))
            mirrored[r] = list(rows[r - m0])
    elements = tuple(
        QSeries.from_row(-M, [1, *repeat(0, M + B), *reversed(rows[M - m0])],
                         prec)
        for M in range(m0, R))
    built = CanonicalBasis(N, k, space, m0, B, prec, elements, count)
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


class ModularGrid(namedtuple("ModularGrid", "N k fside gside")):
    """Paired bases: weight k with poles at infinity only (`fside`),
    against weight 2-k vanishing at the other cusps (`gside`)."""
    __slots__ = ()


def build_grid(N: int, k: int, count: int,
               prec: int | None = None) -> ModularGrid:
    """Build both sides of the weight-(k, 2-k) grid with `count` elements.

    The default precision count + |v| + 6 determines a count-by-count
    duality box.
    """
    v = v_of(N, k)
    u = u_of(N, 2 - k)
    if prec is None:
        prec = count + abs(v) + 6
    if u != -v - 1:
        raise AssertionError(
            f"index ranges of the two sides fail to align at level {N} "
            f"weight {k}: the f-side starts at m0 = {-v}, the g-side at "
            f"m0 = {-u}, not {v + 1}")
    _check_request(N, k, INF, count, prec)
    _check_request(N, 2 - k, HAT, count, prec)
    # The weight <= 0 side, of gap bound B (v, or u = -v - 1), is the
    # other's source.  One request covers both this grid's side and every
    # element the transpose reads of it, so the source is built once.
    source, B = ((k, INF), v) if k <= 0 else ((2 - k, HAT), u)
    build_basis(N, *source, max(count, prec + B), max(prec, B + 1 + count))
    return ModularGrid(N, k, build_basis(N, k, INF, count, prec),
                       build_basis(N, 2 - k, HAT, count, prec))


def _transpose(N: int, k: int, space: str, count: int,
               prec: int) -> CanonicalBasis:
    """Elements m0 .. m0+count-1 of a weight k >= 2 space, exact modulo
    q^prec, read off the other space, of weight 2 - k, by duality.

    The source has elements s_m = q^-m + sum_{n > Bs} a(m, n) q^n for
    m >= -Bs, and duality a(m, n) = -b(n, m) holds for every m >= -Bs and
    n >= Bs + 1.  So this space, of gap bound -Bs - 1, has the elements

        t_n = q^-n - sum_{m=-Bs}^{prec-1} a(m, n) q^m,    n >= Bs + 1,

    the negated columns of the source; they are in gap form by
    construction.
    """
    other = HAT if space == INF else INF
    Bs = gap_bound(N, 2 - k, other)
    m0 = Bs + 1
    source = build_basis(N, 2 - k, other, max(prec + Bs, 1),
                         max(prec, m0 + count))
    # source elements are integral: their numerators are their coefficients
    rows = [source._stored(m).numerators(m0, m0 + count)
            for m in range(-Bs, prec)]
    columns = zip(*rows) if rows else repeat((), count)
    elements = tuple(
        QSeries.from_row(-n, [1, *repeat(0, n - m0), *map(neg, column)],
                         prec)
        for n, column in zip(range(m0, m0 + count), columns))
    return CanonicalBasis(N, k, space, m0, -Bs - 1, prec, elements, count)


def duality_residual(grid: ModularGrid, m_max: int, n_max: int) -> Fraction:
    """max |a_k(m,n) + b_{2-k}(n,m)| over the box of the first m_max
    f-indices against the first n_max g-indices; exact zero iff duality
    holds there.

    A grid from `build_grid` reads its weight >= 2 side off the other as
    its negated transpose, so on it the residual is zero by construction:
    an error in any source coefficient moves both terms of its pair, and
    only a comparison with the recursion finds it."""
    if m_max < 0 or n_max < 0:
        raise ValueError("box dimensions must be nonnegative")
    if m_max > grid.fside.count or n_max > grid.gside.count:
        raise PrecisionError(
            f"duality box {m_max}x{n_max} of level {grid.N} weight "
            f"{grid.k} exceeds built count "
            f"({grid.fside.count}, {grid.gside.count})")
    if not (m_max and n_max):
        return Fraction(0)
    f_ind = grid.fside.indices[:m_max]
    g_ind = grid.gside.indices[:n_max]
    # f-side elements are read at the g-indices and g-side ones at the
    # f-indices
    for side, top in ((grid.fside, g_ind[-1]), (grid.gside, f_ind[-1])):
        if top >= side.prec:
            raise PrecisionError(
                f"duality box {m_max}x{n_max} of level {grid.N} weight "
                f"{grid.k} reads q^{top} of the {side.space} side, "
                f"known only mod q^{side.prec}")
    return Fraction(_box_residual(
        _box_rows(grid.fside, [((m, 1),) for m in f_ind], g_ind),
        _box_rows(grid.gside, [((n, 1),) for n in g_ind], f_ind)))


def _box_rows(family: CanonicalBasis, parts, window: range) -> list:
    """One row per part, a list of (index, coefficient) pairs: the sum of
    coefficient * element(index) read at the exponents in `window`.  Each
    element is read once, as ints when it is integral and as Fractions
    otherwise; `family` is not read when no part names an index."""
    cols = {}
    rows = []
    for part in parts:
        row = None
        for i, c in part:
            if i not in cols:
                col = family.numerators(i, window.start, window.stop)
                d = family._stored(i).denominator
                cols[i] = col if d == 1 else [Fraction(x, d) for x in col]
            # a term of coefficient 1 is the element's row itself; no row
            # is written to, so rows may share it
            term = cols[i] if c == 1 else list(map(mul, repeat(c), cols[i]))
            row = term if row is None else list(map(add, row, term))
        rows.append([0] * len(window) if row is None else row)
    return rows


def _box_residual(a: list, b: list):
    """max |a[i][j] + b[j][i]| over a duality box, 0 for an empty one: row
    i of a holds a(m_i, .) at the n_j and row j of b holds b(n_j, .) at the
    m_i, so a[i][j] + b[j][i] = 0 is a(m, n) = -b(n, m)."""
    return max(map(abs, map(add, chain.from_iterable(a),
                            chain.from_iterable(zip(*b)))), default=0)
