"""Row-reduced canonical bases and modular grids.

The weight-k space with poles only at infinity has basis elements
f_{k,m} = q^-m + O(q^{v+1}) for m >= -v; the subspace vanishing at the
other cusps has g_{k,m} = q^-m + O(q^{u+1}) for m >= -u.  Elements are
built recursively: multiply the previous element by the Hauptmodul, then
subtract earlier elements (and the constant, where present) to clear
every coefficient between the leading term and the gap bound.

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
grows: a request it covers in count and precision is sliced and truncated
from it, any other rebuilds it at the larger count and the larger
precision.

A key's weight picks its builder.  Weight k <= 0 has two, which read the
same Hauptmodul and first element, ask for the first element once, and
cut every element to q^prec, so the only floor on prec is the gap bound.
The recursion carries element j to q^(prec + count - 1 - j), since each
multiplication by the Hauptmodul loses one term.  The anti-diagonal walk
(`_walk`) fills the coefficients a(M, n) by anti-diagonals M + n from two
identities: the recursion's chain a(M+1, n) = a(M, n+1) + K(M, n), and
the symmetry m^e a(n, m) = n^e a(m, n) + corr(m, n), e = 1 - k, that
Bol's identity and duality give together.  It closes each long diagonal
at its middle by one exact division, so it never computes the padding
triangle the recursion carries.  `_build` picks one from the request's
shape: the walk when count >= 2|B| + 12 and prec <= 1.5 count.
Weight k >= 2 follows from the other space of weight 2 - k by Bol's
identity: with D = q d/dq, D^(k-1) maps that space into this one, so each
element above the source's gap is D^(k-1) of the source element of the
same index, minus multiples of the low elements, divided by its lead.  The
low elements, the max(0, -2B-1) indices between the two gaps (B the
source's gap bound), come from the recursion.  Derived elements are
checked for integrality and gap form.  So one side of every grid is
derived from the other, and the duality residual cannot see an error in a
diagonal coefficient a(m, m): Bol's relation and duality coincide there
(see `duality_residual`).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul, neg, sub

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


class IntegralityError(AssertionError):
    """A series the recursion treats as integral has a non-integral
    coefficient."""


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
    """Build elements m0 .. m0+count-1, each exact modulo q^prec: by the
    recursion for weight k <= 0, by Bol's identity for k >= 2."""
    _check_request(N, k, space, count, prec)
    build = _build if k <= 0 else _bol_build
    entry = cached(("basis", N, k, space), (count, prec),
                   lambda count, prec: build(N, k, space, count, prec))
    return CanonicalBasis(N, k, space, entry.m0, entry.gap_bound, prec,
                          tuple(e.truncate(prec)
                                for e in entry.elements[:count]))


def _build(N: int, k: int, space: str, count: int,
           prec: int) -> CanonicalBasis:
    """Elements m0 .. m0+count-1, each exact modulo q^prec: by the
    anti-diagonal walk for weight k <= 0 when count is large against the
    gap bound B and against prec, else by the recursion.

    The walk fills about a square of side max(prec, m0 + count) where the
    recursion fills count rows of length about prec + count, and it pays
    more per coefficient in its 2|B| - 1 low columns (B < 0) and for small
    squares; measured on both builders, it is the faster one from
    count >= 2|B| + 12 and prec <= 1.5 count on."""
    B = gap_bound(N, k, space)
    if k <= 0 and count >= 2 * abs(B) + 12 and 2 * prec <= 3 * count:
        return _walk(N, k, space, count, prec)
    return _recursion(N, k, space, count, prec)


def _inputs(N: int, k: int, space: str, count: int, prec: int):
    """What both builders read, each checked integral: the Hauptmodul's
    coefficients psi[a] at q^(a-1) up to q^(work+m0-2), and the first
    element's from q^(B+1) up to q^(work-1), work = prec + count - 1."""
    B = gap_bound(N, k, space)
    m0 = -B
    work = prec + count - 1
    where = f"level {N} weight {k} {space}"
    psi_series = hauptmodul_series(N, work + m0 - 1)
    _require_integral(psi_series,
                      f"Hauptmodul of level {N} (for {where} prec {work})")
    psi = psi_series.numerators(-1, work + m0 - 1)
    first = first_element(N, k, space, work)
    _require_integral(first,
                      f"first element of {where} index {m0} prec {work}")
    return psi, first.numerators(B + 1, work)


def _recursion(N: int, k: int, space: str, count: int,
               prec: int) -> CanonicalBasis:
    """Run the Hauptmodul recursion for elements m0 .. m0+count-1, each
    cut to q^prec once it is built."""
    B = gap_bound(N, k, space)
    m0 = -B
    psi, first = _inputs(N, k, space, count, prec)
    # Element j is q^-(m0+j) + sum_y tails[j][y] q^(B+1+y), known modulo
    # q^(prec+count-1-j): each multiplication by psi loses one term.
    tails = [first]
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
    elements = tuple(QSeries.from_row(B - j, [1, *repeat(0, j), *tail], prec)
                     for j, tail in enumerate(tails))
    built = CanonicalBasis(N, k, space, m0, B, prec, elements)
    _verify_gap_form(built)
    return built


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
    diagonals.  The symmetry is Bol's identity (see `_bol_build`) and
    duality together: for m, n >= s0 = max(m0, B+1) and e = 1 - k,

        m^e a(n, m) = n^e a(m, n) + corr(m, n),
        corr(m, n) = sum_{l=B+1..-B-1} l^e a(m, l) a(n, -l),

    which reads only the low columns l < s0 of earlier diagonals (none when
    B >= 0).

    A diagonal D > 2 s0 is closed at its middle by one exact division: for
    odd D the chain step from a(M, M+1) to a(M+1, M) and the symmetry
    between them give a(M, M+1); for even D the two chain steps from
    a(M-1, M+1) to a(M+1, M-1) do.  It is then walked up toward row m0 by
    the chain, and where it reaches row m0 it must give the first element's
    coefficient; below the middle it is filled by the symmetry, and by the
    chain in the low columns.  A shorter diagonal is walked down by the
    chain from the first element.  Only rows m0 .. C-1 and columns
    B+1 .. C-1, C = max(prec, m0 + count), are filled, and only on the
    diagonals up to the last one a requested coefficient lies on (plus the
    low columns of row C, which the last even diagonal reads, and the
    shorter diagonals whole); the recursion instead carries element j to
    q^(prec + count - 1 - j).

    The divisions and the first-element check also refuse a wrong psi_s,
    except where the first element is 1 (weight 0, B = 0): the elements
    are then the Faber polynomials of psi, whose coefficients have the
    symmetry for every series q^-1 + O(q).
    """
    B = gap_bound(N, k, space)
    m0, e, s0 = -B, 1 - k, max(-B, B + 1)
    # the diagonal of a(m0 + count - 1, prec - 1), the last a requested
    # coefficient lies on; the first, of a(m0, B + 1), is 1
    last = prec + count + m0 - 2
    psi, top = _inputs(N, k, space, count, prec)
    h = psi[1:]
    where = f"level {N} weight {k} {space}"
    C = max(prec, m0 + count)
    # Rows and columns keep their coefficients newest first, so each sum
    # of K is a dot product with h from its start.
    rows = [deque() for _ in range(m0, C + 1)]
    cols = [deque() for _ in range(B + 1, max(C, min(2 * s0, last) - m0 + 1))]
    powers = [i ** e for i in range(C + 2)]
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
        # the last row on D: row C only in the low columns
        hi = min(D - B - 1, C if D - C < s0 else C - 1)
        if D <= 2 * s0:
            lo = m0
            v = top[D - m0 - B - 1]
            diag = [v]
            for r in range(m0, hi):
                v += K(r, D - r - 1)
                diag.append(v)
        else:
            lo = max(m0, D - C + 1)
            mid = D // 2
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
        for M in range(m0, m0 + count))
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
    # The weight <= 0 side is the other's source, and the derivation asks
    # for it at count + max(0, 2B + 1), B its gap bound (v, or u = -v - 1).
    # With B >= 0 the derived side goes first, so that the grid's own
    # request for the source is a hit.  With B < 0 the source goes first:
    # the derivation's request for it is then a hit, and its low elements
    # find the Hauptmodul already expanded as far as they read.  Either way
    # the f-side goes first exactly when v < 0.
    if v < 0:
        fside = build_basis(N, k, INF, count, prec)
        gside = build_basis(N, 2 - k, HAT, count, prec)
    else:
        gside = build_basis(N, 2 - k, HAT, count, prec)
        fside = build_basis(N, k, INF, count, prec)
    return ModularGrid(N, k, fside, gside)


def _bol_build(N: int, k: int, space: str, count: int,
               prec: int) -> CanonicalBasis:
    """Elements m0 .. m0+count-1 of a weight k >= 2 space, exact modulo
    q^prec, derived from the other space, of weight w = 2 - k.

    The source has elements s_m = q^-m + sum a(m, n) q^n in gap form through
    Bs, and this space has gap bound Bt = -Bs - 1.  With D = q d/dq and
    e = 1 - w, D^e s_m lies in this space (Bol's identity), so matching
    principal parts gives, for m >= -Bs,

        t_m = [D^e s_m - sum_{n=Bs+1, n!=0}^{Bt} n^e a(m, n) t_-n] / (-m)^e.

    The low elements Bs+1 .. -Bs-1, index 0 among them, come from the
    recursion.
    """
    w, e, other = 2 - k, k - 1, HAT if space == INF else INF
    Bs = gap_bound(N, w, other)
    Bt, m0 = -Bs - 1, Bs + 1
    n_low = min(count, max(0, -2 * Bs - 1))
    if n_low < count:
        # the source reaches index Bs + count and past its gap bound; built
        # first, it leaves the Hauptmodul as long as the low elements read
        source = build_basis(N, w, other, count + max(0, 2 * Bs + 1),
                             max(prec, Bs + 1))
    elements = list(_build(N, k, space, n_low, prec).elements) if n_low else []
    # recursion results are integral: their numerators are their coefficients
    low_tails = [t.numerators(Bt + 1, prec) for t in elements]
    powers = [n ** e for n in range(Bt + 1, prec)]
    for m in range(m0 + n_low, m0 + count):
        s = source.element(m)
        tail = list(map(mul, powers, s.numerators(Bt + 1, prec)))
        for n, a in enumerate(s.numerators(Bs + 1, Bt + 1), Bs + 1):
            if a and n:
                c = n ** e * a
                tail = list(map(sub, tail,
                                map(mul, repeat(c), low_tails[-n - m0])))
        # w is even, so e is odd and t_m = q^-m - tail / m^e
        lead = m ** e
        t = QSeries.from_row(-m, [lead, *repeat(0, Bt + m), *map(neg, tail)],
                             prec, lead)
        _require_integral(t, f"derived element of level {N} weight {k} "
                             f"{space} index {m} prec {prec}")
        elements.append(t)
    derived = CanonicalBasis(N, k, space, m0, Bt, prec, tuple(elements))
    _verify_gap_form(derived)
    return derived


def duality_residual(grid: ModularGrid, m_max: int, n_max: int) -> Fraction:
    """max |a_k(m,n) + b_{2-k}(n,m)| over the box of the first m_max
    f-indices against the first n_max g-indices; exact zero iff duality
    holds there.

    A grid from `build_grid` derives one side from the other, and its
    derived t_m moves with a source coefficient a(m, n) by n^e / (-m)^e.  For
    odd e = 1 - w that is -1 on the diagonal n = m, so an error in a
    diagonal source coefficient moves both terms of a(m,m) + b(m,m) and the
    residual stays zero.  Only a comparison with the recursion finds it."""
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
    if m_max and n_max:
        for side, top in ((grid.fside, g_ind[-1]), (grid.gside, f_ind[-1])):
            if top >= side.prec:
                raise PrecisionError(
                    f"duality box {m_max}x{n_max} of level {grid.N} weight "
                    f"{grid.k} reads q^{top} of the {side.space} side, "
                    f"known only mod q^{side.prec}")
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
