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
the first elements.  A first element is a recipe, one Combo with a term
c_j * F * psi^j for each nonzero coefficient c_j of the cusp-killing
polynomial (of 1 for the full space), F = F_base^l * F_k' of the level's
seed; F_base is an eta quotient, so F_base^l is one for l of either sign.
`_eval_form` asks each factor for as many terms as the product needs,
found from the factors' valuations, and checks a `leveldata.Certificate`
against its pinned prefix.

The Hauptmodul is monic with integer coefficients and every first element
is integral (else IntegralityError), so the builders run on int rows and
hand over each element as its tail, the ints past the gap bound, to the
one writer `CanonicalBasis.of`, which checks that every tail reaches
q^prec; the format holds the gap form and the monic leads, and a series is
made only when an element is read.
Completed bases are immutable and kept in the store
`gridforge.qseries.cached` under ("basis", N, k, space) at the size
(count, prec).  An entry only grows: a request it covers gets a view that
shares its tails; any other request rebuilds it at the larger count and
the larger precision, and a weight k <= 0 inf entry is extended instead,
by continuing its walk.  A view taken before a rebuild keeps its tails.

A key picks one of three builders.  The weight k <= 0 inf space has the
anti-diagonal walk (`_walk`), which asks for the Hauptmodul and the first
element once and cuts every element to q^prec, so the only floor on prec
is the gap bound.  It fills the coefficients a(M, n) by anti-diagonals
M + n from two identities: the chain a(M+1, n) = a(M, n+1) + K(M, n) of
the recursion above, and the symmetry m^e a(n, m) = n^e a(m, n) +
corr(m, n), e = 1 - k, that Bol's identity and duality give together.
It sweeps each diagonal once up and once down from one anchor: a long
diagonal through a requested row is anchored beside its middle by one
exact division, so the walk fills about the square the request covers and
reads the first element only as far as that square's columns; every other
diagonal is anchored at row m0 by the first element.  At levels 4, 8, 9,
12, 16 and 18, where z -> z + 1/t normalizes Gamma_0(N), psi - psi_0 has
only the exponents -1 (mod t) and the first element only B (mod t),
t = 2, 2, 3, 2, 4, 3; q -> zeta_t q then fixes the space, and as the
canonical elements are unique, a(M, n) = 0 unless t | M + n.  The walk
reads t off its inputs and fills only the diagonals t divides, with the same
code for t = 1.  Given a stored basis of the space, it walks only the
coefficients the basis lacks.  The recursion itself, which carries
element j to q^(prec + count - 1 - j), is kept as an oracle in
`gridforge.acceptance`; in the tests the walk is the next builder's.
The weight k <= 0 hat space, of codimension d = v - u in the inf space
of its weight, is read off the inf basis (`_hat_from_inf`): each hat
element is an inf element plus d others, whose d coefficients the chain
gives.  Weight k >= 2 is read off the other space of weight 2 - k, its
source, by duality: a(m, n) = -b(n, m) for every m >= -B and n >= B + 1, B the
source's gap bound, so each element is q^-n minus column n of the source
(`_transpose`).  A grid asks for its weight <= 0 side once, large enough
for both sides, and so its duality holds by construction.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from math import gcd
from operator import add, mul, neg

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


def _factor(N: int, factor: tuple) -> tuple:
    """One factor of a registry form (see leveldata.Combo) as (valuation,
    expand): the valuation of its expansion, known before expanding it, and
    the function of prec that expands it.  This is the one table of factor
    kinds."""
    match factor:
        case ("phi", n, e):
            return 0, partial(phi, n, scale=e)
        case ("eis", w, d):
            return 0, partial(eisenstein, w, scale=d)
        case ("eta", quotient):
            return int(quotient.lead_exponent), quotient.expand
        case ("form", w):
            return v_of(N, w), partial(level_form, N, w)
    raise TypeError(f"unknown form factor {factor!r}")


def _eval_form(N: int, k: int, form: Combo, prec: int) -> QSeries:
    """Sum a Combo's terms c * (product of factors) * psi^j, known modulo
    q^prec: per factor product, the combination of psi powers (psi^0 = 1,
    so a constant polynomial too) times the product's factors.  psi is
    expanded only when some term has a psi power.  This is the one
    evaluator of registry Combos: the registry forms, the cusp-killing
    polynomial and the first elements.  A Certificate is checked against
    its pinned prefix."""
    cert = isinstance(form, Certificate)
    target = max(prec, form.check_through + 1) if cert else prec
    groups: dict[tuple, list] = {}
    for c, factors, j in form.terms:
        groups.setdefault(factors, []).append((c, j))
    factor_of = {f: _factor(N, f) for factors in groups for f in factors}
    # A product is known as far beyond its valuation as its least precise
    # factor, and psi^j (valuation -j) as far beyond its own as psi.  So a
    # group with top psi power `top` and factor valuations summing to sv is
    # known to target when psi is known to rel - 1 and each factor rel
    # terms beyond its valuation, rel = target + top - sv (at least 1, so
    # that every lead is known).
    rel = {factors: max(target + max(j for _, j in pairs)
                        - sum(factor_of[f][0] for f in factors), 1)
           for factors, pairs in groups.items()}
    top = max(j for _, _, j in form.terms)
    reach = max(rel.values())
    psi_pows = [QSeries.one(reach)]
    if top:
        psi = hauptmodul_series(N, reach - 1)
        for _ in range(top):
            psi_pows.append(psi_pows[-1] * psi)
    products = []
    for factors, pairs in groups.items():
        r = rel[factors]
        series = QSeries.combination(
            ((c, psi_pows[j]) for c, j in pairs),
            r - max(j for _, j in pairs))
        for f, n in Counter(factors).items():
            v, expand = factor_of[f]
            series = series * expand(v + r) ** n
        products.append((1, series))
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
    """The basis element of maximal vanishing order: the Combo of the terms
    c_j * F * psi^j, F = F_base^l * F_k' the seed recipe and c_j the
    nonzero coefficients of the cusp-killing polynomial for the subspace,
    or 1 for the full space.  F_base^l is the one eta quotient with every
    exponent of the base times l."""
    expect = gap_bound(N, k, space)
    if prec <= expect:
        raise PrecisionError(
            f"first element of level {N} weight {k} {space} starts at "
            f"q^{expect}, so prec {prec} determines none of its terms")
    seed = get_level(N).seed
    power, kp = seed.split(k)
    factors = ((("eta", seed.base ** power),) if power else ()) + (
        (("form", kp),) if kp else ())
    poly = get_level(N).cusp_poly if space == HAT else (1,)
    out = _eval_form(N, k, Combo(tuple(
        (c, factors, j) for j, c in enumerate(poly) if c)), prec)
    if out.prec < prec:
        raise PrecisionError(
            f"first element of level {N} weight {k} only determined mod "
            f"q^{out.prec}; need {prec}")
    if out.valuation() != expect or out.coeff(expect) != 1:
        raise AssertionError(
            f"seed for level {N} weight {k} {space} is not monic q^{expect}")
    return out


class CanonicalBasis(namedtuple(
        "CanonicalBasis", "N k space gap_bound prec stored count")):
    """Ordered family of basis elements m0 .. m0+count-1, m0 = -B for B
    the gap bound, each exact modulo q^prec.

    Element m is q^-m + sum_i t_i q^(B+1+i), stored as its tail: the tuple
    of ints t_i, up to the precision it was built at.  `of` is the one
    writer of that format and this class the one reader.  A tail starts
    past the gap, so every element is in gap form and monic by
    construction; what can break is a tail too short for its precision,
    which `of` refuses.  A view of a larger basis (`_replace` of prec and
    count) shares its tuple of tails, which may hold more and longer ones.
    Each read of `element` writes one series at the view's precision;
    `numerators` reads the tails.  Two bases are equal when they have the
    same head and the same tails cut to the head's precision: equal heads
    fix the count and the precision, and element m is q^-m plus its tail,
    so that is equality of their elements, and no series is made."""
    __slots__ = ()

    @classmethod
    def of(cls, N: int, k: int, space: str, prec: int,
           rows) -> CanonicalBasis:
        """The basis whose element -B + i has the tail rows[i] cut to
        q^prec, B the gap bound; AssertionError naming the element when its
        row stops short of q^prec."""
        B = gap_bound(N, k, space)
        n = prec - B - 1
        tails = tuple(tuple(row[:n]) for row in rows)
        for i, tail in enumerate(tails):
            if len(tail) < n:
                raise AssertionError(
                    f"tail of basis index {i - B} of level {N} weight {k} "
                    f"{space} stops at q^{B + len(tail)}, short of prec "
                    f"{prec}")
        return cls(N, k, space, B, prec, tails, len(tails))

    @property
    def m0(self) -> int:
        return -self.gap_bound

    @property
    def indices(self) -> range:
        return range(self.m0, self.m0 + self.count)

    @property
    def elements(self) -> tuple:
        return tuple(map(self.element, self.indices))

    def _tail(self, m: int) -> tuple:
        i = m - self.m0
        if not 0 <= i < self.count:
            raise IndexError(
                f"basis index {m} of level {self.N} weight {self.k} "
                f"{self.space} outside built range {self.indices}")
        return self.stored[i]

    def element(self, m: int) -> QSeries:
        return QSeries.from_row(-m, self.numerators(m, -m, self.prec),
                                self.prec)

    def numerators(self, m: int, lo: int, hi: int) -> list[int]:
        """element(m).numerators(lo, hi), read off the tail; PrecisionError
        naming the element if the window reaches past prec."""
        tail = self._tail(m)
        if hi > lo and hi > self.prec:
            raise PrecisionError(
                f"coefficient q^{hi - 1} of basis index {m} of level "
                f"{self.N} weight {self.k} {self.space} not determined at "
                f"prec {self.prec}")
        s = self.gap_bound + 1
        out = [int(e == -m) for e in range(lo, min(hi, s))]
        out += tail[max(lo - s, 0):max(hi - s, 0)]
        return out

    def _head(self) -> tuple:
        return (self.N, self.k, self.space, self.gap_bound, self.prec,
                self.count)

    def __eq__(self, other):
        if not isinstance(other, CanonicalBasis):
            return NotImplemented
        n = self.prec - self.gap_bound - 1
        # views of one tuple with the same head read the same elements
        return self._head() == other._head() and (
            self.stored is other.stored
            or all(a[:n] == b[:n] for a, b in zip(
                self.stored[:self.count], other.stored)))

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
    """Elements m0 .. m0+count-1, each exact modulo q^prec: walked from
    the Hauptmodul for the weight k <= 0 inf space, read off the inf basis
    of its weight for the weight k <= 0 hat space, and read off the other
    space of weight 2 - k as its negated transpose for k >= 2.

    The result is a view of the key's store entry, which covers the
    request and shares its tails, so a hit copies nothing.  A weight
    k <= 0 inf entry that must grow is extended by its walk."""
    _check_request(N, k, space, count, prec)
    build = _transpose if k > 0 else _walk if space == INF else _hat_from_inf
    grow = partial(_walk, N, k, space) if build is _walk else None
    entry = cached(("basis", N, k, space), (count, prec),
                   partial(build, N, k, space), grow)
    return entry._replace(prec=prec, count=count)


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


def _stride(psi: list, top: list) -> int:
    """The largest t such that psi - psi_0 has only the exponents
    s = -1 (mod t) and the first element only B (mod t), read off the rows
    `_inputs` gives: psi[a] is at q^(a-1), top[i] at q^(B+1+i)."""
    return gcd(*(a for a, c in enumerate(psi) if c and a != 1),
               *(i + 1 for i, c in enumerate(top) if c)) or 1


def _walk(N: int, k: int, space: str, count: int, prec: int,
          old: CanonicalBasis | None = None) -> CanonicalBasis:
    """Elements m0 .. m0+count-1 of a weight k <= 0 space, each exact
    modulo q^prec, filled by anti-diagonals D = M + n of the coefficients
    a(M, n), n > B, of the elements M, from two identities; given `old`, a
    smaller basis of the space, the walk extends it.

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

    With R = m0 + count the first row not asked for, each diagonal D has
    one anchor, from which it is swept once up and once down over its rows
    lo .. hi, lo = max(m0, D - C + 1).  A diagonal 2 s0 < D < 2 R, whose
    middle is a requested row, is anchored at a(a, b), a = floor((D-1)/2),
    b = D - a: the b - a chain steps to its mirror a(b, a) and the symmetry
    between them give it by one exact division.  The sweep up subtracts
    chain steps from a(b, a), those of the division first, from row b - 1
    to row lo, so an anchor one column past C - 1 (a = lo - 1) is not kept;
    where it reaches row m0 it must give the first element's coefficient.
    Every other diagonal, the short ones and those from 2 R on, is anchored
    at row m0 by the first element (and b = m0 + 1).  The sweep down fills
    rows b .. hi, by the symmetry from the mirror a(D - r, r) where
    r > D - r >= s0 and by the chain elsewhere, which is every row of a
    diagonal anchored at row m0.  Only rows m0 .. R-1 are filled (and the
    low columns of row R, which the middle divisions read), up to the last
    diagonal a requested coefficient lies on.  The columns B+1 .. C-1 go to
    max(prec, R) and as far as the diagonals anchored at row m0 reach: once
    prec >= R + 2 brings a diagonal from 2 R on, they are the columns the
    recursion carries, up to q^(prec + count - 2).  The first element is
    read as far as the columns go.

    The stride t (`_stride`) is the gcd of the exponents s + 1 of
    psi - psi_0 and of the exponents n - B of the first element's terms
    q^n, or 1 when there are none.  On a diagonal D that t does not
    divide, the first element's coefficient is 0, and so is every term of
    K and of corr but the psi_0 a(M, n) that K's two sums share and
    cancel: each has a factor psi_s with t not dividing s + 1, or a
    coefficient on an earlier diagonal that t does not divide.  By
    induction over the diagonals every coefficient on D is 0, and its
    divisions and first-element check read 0 = 0, so the walk appends
    zeros for D and checks nothing there.  On the diagonals that t
    divides, the terms of K's sums that can be nonzero are every t-th
    from the newest.  That a(M, n) = 0 unless t | M + n is also a theorem:
    q -> zeta_t q fixes the space, whose canonical elements are unique.
    At t = 1 the same lines walk every diagonal.

    The divisions and the first-element check also refuse a wrong psi_s,
    except where the first element is 1 (weight 0, B = 0): the elements
    are then the Faber polynomials of psi, whose coefficients have the
    symmetry for every series q^-1 + O(q).  A wrong psi_s off the stride
    drops t to 1, so the walk fills and checks every diagonal.  A diagonal
    anchored at row m0 is checked only where a later division reads it.

    An `old` basis is known in its rectangle, rows m0 .. m0+old.count-1 and
    columns B+1 .. old.prec-1.  A diagonal t divides that meets it in rows
    ka .. kb takes their values from `old`, in the order a fresh walk
    appends them, so K reads what it reads there.  It is then swept up
    from row ka - 1 by the chain, with the first-element check where it
    reaches row m0, and down from row kb + 1 as above; a diagonal the
    rectangle does not meet keeps its anchor.  So the walk computes only
    the coefficients outside the rectangle, and checks only those.
    """
    B = gap_bound(N, k, space)
    m0, e, s0 = -B, 1 - k, max(-B, B + 1)
    R = m0 + count
    # the diagonal of a(R - 1, prec - 1), the last a requested coefficient
    # lies on; the first, of a(m0, B + 1), is 1
    last = prec + count + m0 - 2
    # the last diagonal anchored at row m0, and the end C of the columns
    # B+1 .. C-1 that the walk fills
    down = last if last >= 2 * R else min(2 * s0, last)
    C = max(prec, R, down - m0 + 1)
    psi, top = _inputs(N, k, space, count, prec, C)
    t = _stride(psi, top)
    h = psi[1:]
    hs = h[t - 1::t]
    where = f"level {N} weight {k} {space}"
    # the rectangle known from old: rows m0 .. m0+len(known)-1, columns
    # B+1 .. end-1
    known, end = (old.stored[:old.count], old.prec) if old is not None else (
        (), B + 1)
    # rows and columns keep their coefficients oldest first
    rows = [[] for _ in range(m0, R + 1)]
    cols = [[] for _ in range(B + 1, C)]
    powers = [i ** e for i in range(R + 1)]
    n_low = max(0, -2 * B - 1)
    low_powers = [l ** e for l in range(B + 1, B + 1 + n_low)]
    # per row m, once its low columns are in: l^e a(m, l) and a(m, -l)
    weighted, mirrored = {}, {}

    def K(M, n):
        # for t > 1 the slices leave out psi_0 a(M, n), which both sums
        # hold and which cancels
        row, col = rows[M - m0], cols[n - B - 1]
        return (h[M + n] + sum(map(mul, row[-t::-t], hs))
                - sum(map(mul, col[-t::-t], hs)) - row[0] * col[0])

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
        # the rows lo .. hi on D: row R only in the low columns
        hi = min(D - B - 1, R if D - R < s0 else R - 1)
        lo = max(m0, D - C + 1)
        # the anchor and the sweep up fill rows lo .. b-1, the sweep down
        # rows b .. hi; rows ka .. kb are known
        ka, kb = max(lo, D - end + 1), min(hi, m0 + len(known) - 1)
        if D % t:
            b, diag = hi + 1, [0] * (hi - lo + 1)
        elif ka > kb and (D <= 2 * s0 or D // 2 >= R):
            b, diag = m0 + 1, [top[D - m0 - B - 1]]
        else:
            if ka <= kb:
                # the known rows, newest first; the sweep up starts at ka
                diag = [known[r - m0][D - r - B - 1]
                        for r in range(kb, ka - 1, -1)]
                v, steps, start, b = diag[-1], [], ka, kb + 1
            else:
                a = (D - 1) // 2
                b = D - a
                steps = [K(r, D - r - 1) for r in range(a, b)]
                s = sum(steps)
                # the sweep up starts from a(b, a) = a(a, b) + s
                v = s + exact(powers[a] * s - corr(a, b),
                              powers[b] - powers[a], a, b)
                diag, start = [], b
            for r in range(start - 1, lo - 1, -1):
                v -= steps.pop() if steps else K(r, D - r - 1)
                diag.append(v)
            diag.reverse()
            if lo == m0 and diag[0] != top[D - m0 - B - 1]:
                raise AssertionError(
                    f"anti-diagonal walk of {where} index {m0} prec {prec} "
                    f"misses the first element's coefficient at q^{D - m0}")
        for r in range(b, hi + 1):
            c = D - r
            if r > c >= s0:
                v = exact(powers[r] * diag[c - lo] + corr(c, r),
                          powers[c], r, c)
            else:
                v = diag[-1] + K(r - 1, c)
            diag.append(v)
        for r, v in enumerate(diag, lo):
            rows[r - m0].append(v)
            cols[D - r - B - 1].append(v)
        r = D - s0 + 1
        if n_low and m0 <= r <= hi:
            # D completed the low columns of row r
            weighted[r] = list(map(mul, low_powers, rows[r - m0]))
            mirrored[r] = rows[r - m0][::-1]
    return CanonicalBasis.of(N, k, space, prec, rows[:count])


def _hat_from_inf(N: int, k: int, space: str, count: int,
                  prec: int) -> CanonicalBasis:
    """Elements m0 .. m0+count-1, m0 = -u, of the weight k <= 0 hat space,
    each exact modulo q^prec, read off the inf basis of the same weight.

    The hat space has codimension d = v - u in the inf space, so with f_m
    the inf elements and b(m, j) the q^j coefficient of g_m,

        g_m = f_m + sum_{j=u+1..v} b(m, j) f_{-j},

    and only the low block b(m, j), j = u+1 .. v, is unknown: d
    coefficients per element.  The chain of the walk (see `_walk`, with
    B = u) fills it row by row from the first element's, since K(M, n)
    reads only columns <= n; its step a(M+1, v) = a(M, v+1) + K(M, v)
    reads the q^(v+1) coefficient a(M, v+1) off the identity above.  At
    row m0 that coefficient must be the first element's, or the inputs
    are refused.  Each tail past q^v is f_m's plus b(m, j) times
    f_{-j}'s, added only for b(m, j) != 0 and only at the exponents n
    with t | n - j, t the stride (`_stride`), where f_{-j} can be nonzero.
    At level 1, d = 0 and the tails are the inf elements'.
    """
    u, v = gap_bound(N, k, space), v_of(N, k)
    d, m0 = v - u, -u
    where = f"level {N} weight {k} {space}"
    # the inf elements -v .. m0+count-1, each past q^(v+1)
    f = build_basis(N, k, INF, count + d, max(prec, v + 2)).stored
    # the inputs of a walk that fills the columns u+1 .. v, and the first
    # element through q^(v+1)
    psi, top = _inputs(N, k, space, count, v + 1, v + 2)
    t = _stride(psi, top)
    h = psi[2:]
    # the q^(v+1) coefficients of f_{-j}, j = u+1 .. v
    over = [f[v - j][0] for j in range(u + 1, v + 1)]

    def past(M, row):
        # a(M, v+1) of the hat element M whose low block is row
        return f[M + v][0] + sum(map(mul, row, over))

    row = top[:d]
    if past(m0, row) != top[d]:
        raise AssertionError(
            f"hat basis of {where} read off inf misses the first "
            f"element's coefficient at q^{v + 1}")
    # the low block by rows, and by columns oldest first
    rows, cols = [row], [[x] for x in row]
    for M in range(m0, m0 + count - 1):
        # a(M+1, n) = a(M, n+1) + K(M, n) at n = u+1+i, whose psi_0 terms
        # cancel; h[s] is psi_(s+1)
        nxt = row[1:] + [past(M, row)]
        row = [nxt[i] + h[M + u + i] + sum(map(mul, reversed(row[:i]), h))
               - sum(map(mul, col[-2::-1], h)) - rows[0][i] * row[0]
               for i, col in enumerate(cols)]
        rows.append(row)
        for col, x in zip(cols, row):
            col.append(x)
    n = max(prec - v - 1, 0)
    tails = []
    for m, low in enumerate(rows, m0):
        tail = list(f[m + v][:n])
        for i, c in enumerate(low):
            if c:
                s = (i - d) % t
                tail[s::t] = map(add, tail[s::t],
                                 map(mul, repeat(c), f[d - 1 - i][s:n:t]))
        tails.append((*low, *tail))
    return CanonicalBasis.of(N, k, space, prec, tails)


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
    # Square sources: a slightly tall walk costs up to 2.5 times its square.
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

    whose tails are the negated columns of the source's tails.
    """
    other = HAT if space == INF else INF
    Bs = gap_bound(N, 2 - k, other)
    source = build_basis(N, 2 - k, other, max(prec + Bs, 1),
                         max(prec, Bs + 1 + count))
    rows = [tail[:count] for tail in source.stored[:prec + Bs]]
    columns = zip(*rows) if rows else repeat((), count)
    return CanonicalBasis.of(N, k, space, prec,
                             [tuple(map(neg, column)) for column in columns])


def duality_residual(grid: ModularGrid, m_max: int, n_max: int) -> Fraction:
    """max |a_k(m,n) + b_{2-k}(n,m)| over the box of the first m_max
    f-indices against the first n_max g-indices; exact zero iff duality
    holds there, and zero for an empty box.  A box past a side's count is
    refused here; one past its precision is refused by the side's
    `numerators`, which names the element, the f-side first.

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
    f_ind = grid.fside.indices[:m_max]
    g_ind = grid.gside.indices[:n_max]
    # f-side elements are read at the g-indices and g-side ones at the
    # f-indices
    return Fraction(_box_residual(
        _box_rows(grid.fside, [((m, 1),) for m in f_ind], g_ind),
        _box_rows(grid.gside, [((n, 1),) for n in g_ind], f_ind)))


def _box_rows(family: CanonicalBasis, parts, window: range) -> list:
    """One row per part, a list of (index, coefficient) pairs: the sum of
    coefficient * element(index) read at the exponents in `window`.  Each
    element is read once, off its tail; `family` is not read when no part
    names an index."""
    cols = {}
    rows = []
    for part in parts:
        row = None
        for i, c in part:
            if i not in cols:
                cols[i] = family.numerators(i, window.start, window.stop)
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
