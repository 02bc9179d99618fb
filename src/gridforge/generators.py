"""Classical building blocks: eta quotients, Eisenstein series and the
phi_N combinations of E2, the j-function and the Serre derivative.

An eta quotient expands by one integer recurrence from its logarithmic
derivative (`EtaQuotient.expand`); the j-function is E4^3 times the
expansion of eta(z)^-24.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from gridforge.qseries import DEFAULT_PREC, QSeries

# weight -> -2w/B_w for the normalized series 1 - (2w/B_w) sum sigma_{w-1}(n) q^n
_EISENSTEIN_CONSTANT = {2: -24, 4: 240, 6: -504, 8: 480, 10: -264, 14: -24}


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
    return QSeries.combination(
        ((Fraction(N, N - 1), e2N), (Fraction(-1, N - 1), e2)), prec)


# -- eta quotients -------------------------------------------------------

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
    def lead_exponent(self) -> Fraction:
        """(1/24) sum d*r_d, the exponent of the q-power prefactor."""
        return Fraction(sum(d * r for d, r in self._exps.items()), 24)

    def rescale(self, e: int) -> "EtaQuotient":
        return EtaQuotient({d * e: r for d, r in self._exps.items()})

    def __pow__(self, n: int) -> "EtaQuotient":
        return EtaQuotient({d: r * n for d, r in self._exps.items()})

    def expand(self, prec: int = DEFAULT_PREC) -> QSeries:
        """q^lead * prod_d prod_n (1 - q^(dn))^(r_d) modulo q^prec (and at
        least through the lead term), for exponents of either sign, by the
        recurrence n a_n = sum_{j=1..n} c_j a_(n-j) of its logarithmic
        derivative, c_j = -sum_{d | j} r_d d sigma_1(j/d)."""
        lead = self.lead_exponent
        if lead.denominator != 1:
            raise ValueError("fractional leading exponent")
        e0 = int(lead)
        inner = max(prec - e0, 1)
        sig = _sigma_table(1, inner)
        c = [-sum(r * d * sig[j // d] for d, r in self._exps.items()
                  if j % d == 0) for j in range(1, inner)]
        a = [1]
        for n in range(1, inner):
            a.append(sum(map(mul, c, reversed(a))) // n)
        return QSeries.from_row(e0, a, e0 + inner)

    def to_text(self) -> str:
        return " * ".join(f"eta({d})^{r}" for d, r in sorted(self._exps.items()))

    def __eq__(self, other):
        if not isinstance(other, EtaQuotient):
            return NotImplemented
        return self._exps == other._exps

    def __hash__(self):
        return hash(frozenset(self._exps.items()))

    def __repr__(self):
        return f"EtaQuotient({self.to_text()})"


def j_function(prec: int = DEFAULT_PREC) -> QSeries:
    """The modular j-invariant E4^3 * eta(z)^-24 = E4^3 / Delta
    = q^-1 + 744 + 196884 q + ..."""
    e4 = eisenstein(4, prec + 1)
    return e4 * e4 * e4 * EtaQuotient({1: -24}).expand(prec)


def serre_derivative(f: QSeries, weight: int, prec: int | None = None) -> QSeries:
    """q d/dq (f) - (weight/12) E2 f, sending weight k to k + 2 without
    moving poles."""
    if prec is None:
        prec = f.prec
    # E2 * f is known to min(P + v, f.prec) for E2 known to P, f of
    # valuation v
    shift = f.valuation() if not f.is_zero else 0
    e2 = eisenstein(2, prec - min(shift, 0))
    return QSeries.combination(
        ((1, f.derive()), (Fraction(-weight, 12), e2 * f)), prec)
