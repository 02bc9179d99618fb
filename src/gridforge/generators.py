"""Classical building blocks: eta quotients, Eisenstein series, divisor
sums, level-one forms and the Serre derivative.

Powers of the Euler product are kept in the series store
(`gridforge.qseries.cached`) under ("euler", d, r).
"""

from __future__ import annotations

import re
from fractions import Fraction

from gridforge.qseries import DEFAULT_PREC, QSeries, cached

# weight -> -2w/B_w for the normalized series 1 - (2w/B_w) sum sigma_{w-1}(n) q^n
_EISENSTEIN_CONSTANT = {2: -24, 4: 240, 6: -504, 8: 480, 10: -264, 14: -24}


def sigma(r: int, n: int) -> int:
    """Sum of the r-th powers of the divisors of n."""
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


def _sigma_table(r: int, limit: int) -> list[int]:
    # sums of r-th powers of divisors for 1..limit-1 by divisor sieve
    table = [0] * max(limit, 1)
    for d in range(1, limit):
        pd = d ** r
        for m in range(d, limit, d):
            table[m] += pd
    return table


def eisenstein(weight: int, prec: int = DEFAULT_PREC, scale: int = 1) -> QSeries:
    """Normalized Eisenstein series of the given weight at argument scale*z.

    Supported weights are 2, 4, 6, 8, 10 and 14, where the space of
    holomorphic level-one forms is at most one-dimensional.
    """
    if weight not in _EISENSTEIN_CONSTANT:
        raise ValueError(f"unsupported Eisenstein weight {weight}")
    if scale < 1:
        raise ValueError("argument scale must be >= 1")
    c = _EISENSTEIN_CONSTANT[weight]
    n_max = (prec - 1) // scale
    table = _sigma_table(weight - 1, n_max + 1)
    row = [0] * (scale * max(n_max, 0) + 1)
    row[0] = 1
    row[scale::scale] = [c * t for t in table[1:]]
    return QSeries.from_row(0, row, prec)


def phi(N: int, prec: int = DEFAULT_PREC, scale: int = 1) -> QSeries:
    """The holomorphic weight-2 combination (N*E2(Nz) - E2(z)) / (N - 1),
    optionally rescaled z -> scale*z."""
    if N < 2:
        raise ValueError("phi requires N >= 2")
    e2N = eisenstein(2, prec, scale=N * scale)
    e2 = eisenstein(2, prec, scale=scale)
    return (e2N.scale(N) - e2).scale(Fraction(1, N - 1))


# -- eta quotients -------------------------------------------------------

def euler_product(prec: int) -> QSeries:
    """prod_{n>=1} (1 - q^n) via the pentagonal number theorem."""
    coeffs = {0: 1}
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 >= prec and e2 >= prec:
            break
        s = -1 if k % 2 else 1
        if e1 < prec:
            coeffs[e1] = s
        if e2 < prec:
            coeffs[e2] = s
        k += 1
    return QSeries(coeffs, prec)


def inverse_euler_product(prec: int) -> QSeries:
    """1 / prod (1 - q^n), the partition generating function, by the
    pentagonal-number recurrence."""
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
        s = 0
        for g, sign in pent:
            if g > n:
                break
            s += sign * p[n - g]
        p[n] = s
    return QSeries(((n, c) for n, c in enumerate(p)), prec)


def _euler_power(d: int, r: int, prec: int) -> QSeries:
    """(prod (1 - q^{dn}))^r for nonzero integer r."""
    def build(prec):
        inner = (prec - 1) // d + 1
        base = euler_product(inner) if r > 0 else inverse_euler_product(inner)
        return ((base ** abs(r)).truncate(inner).rescale_exponents(d)
                .truncate(prec))
    return cached(("euler", d, r), prec, build)


class EtaQuotient:
    """A finite product prod_d eta(d z)^{r_d}, stored as the exponent map."""

    __slots__ = ("_exps",)

    def __init__(self, exps):
        items = exps.items() if hasattr(exps, "items") else exps
        m: dict[int, int] = {}
        for d, r in items:
            d, r = int(d), int(r)
            if d < 1:
                raise ValueError("eta arguments must be positive multiples of z")
            if r:
                m[d] = m.get(d, 0) + r
        self._exps = {d: r for d, r in m.items() if r}

    @property
    def exps(self) -> dict[int, int]:
        return dict(self._exps)

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(self._exps.values()), 2)

    @property
    def lead_exponent(self) -> Fraction:
        """(1/24) sum d*r_d, the exponent of the q-power prefactor."""
        return Fraction(sum(d * r for d, r in self._exps.items()), 24)

    def rescale(self, e: int) -> "EtaQuotient":
        return EtaQuotient({d * e: r for d, r in self._exps.items()})

    def expand(self, prec: int = DEFAULT_PREC) -> QSeries:
        lead = self.lead_exponent
        if lead.denominator != 1:
            raise ValueError("fractional leading exponent")
        e0 = int(lead)
        inner = max(prec - e0, 1)
        out = QSeries.one(inner)
        for d in sorted(self._exps):
            out = out * _euler_power(d, self._exps[d], inner)
        return out.truncate(inner).shift(e0)

    def to_text(self) -> str:
        return " * ".join(f"eta({d})^{r}" for d, r in sorted(self._exps.items()))

    @classmethod
    def from_text(cls, text: str) -> "EtaQuotient":
        exps = {}
        for part in text.split("*"):
            part = part.strip()
            if not part:
                continue
            m = re.fullmatch(r"eta\((\d+)\)(?:\^(-?\d+))?", part)
            if not m:
                raise ValueError(f"cannot parse eta quotient factor: {part!r}")
            d = int(m.group(1))
            r = int(m.group(2)) if m.group(2) else 1
            exps[d] = exps.get(d, 0) + r
        return cls(exps)

    def __eq__(self, other):
        if not isinstance(other, EtaQuotient):
            return NotImplemented
        return self._exps == other._exps

    def __hash__(self):
        return hash(frozenset(self._exps.items()))

    def __repr__(self):
        return f"EtaQuotient({self.to_text()})"


def eta_quotient_expand(e: EtaQuotient, prec: int = DEFAULT_PREC) -> QSeries:
    return e.expand(prec)


# -- level-one forms -----------------------------------------------------

_LEVEL_ONE_WEIGHTS = (0, 4, 6, 8, 10, 14)


def level_one_form(weight: int, prec: int = DEFAULT_PREC) -> QSeries:
    """The one-dimensional holomorphic level-one space at the given weight:
    1, E4, E6, E4^2, E4*E6 or E4^2*E6."""
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


def delta(prec: int = DEFAULT_PREC) -> QSeries:
    """The weight-12 cusp form (E4^3 - E6^2) / 1728."""
    e4 = eisenstein(4, prec)
    e6 = eisenstein(6, prec)
    return ((e4 * e4 * e4 - e6 * e6).truncate(prec)).scale(Fraction(1, 1728))


def j_function(prec: int = DEFAULT_PREC) -> QSeries:
    """The modular j-invariant E4^3 / Delta = q^-1 + 744 + 196884 q + ..."""
    work = prec + 2
    e4 = eisenstein(4, work)
    num = (e4 * e4 * e4).truncate(work)
    return (num * delta(work).inverse(work)).truncate(prec)


def serre_derivative(f: QSeries, weight: int, prec: int | None = None) -> QSeries:
    """q d/dq (f) - (weight/12) E2 f, sending weight k to k + 2 without
    moving poles."""
    if prec is None:
        prec = f.prec
    shift = f.valuation() if not f.is_zero else 0
    e2 = eisenstein(2, prec - min(shift, 0) + 1)
    return (f.derive() - (e2 * f).scale(Fraction(weight, 12))).truncate(prec)
