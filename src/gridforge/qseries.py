"""Truncated Laurent series in q with exact rational coefficients.

A series is a finite map exponent -> nonzero Fraction together with a
precision P: the series is known modulo O(q^P).  All arithmetic is exact;
precision only tracks how far the coefficients are determined.  Instances
are immutable.

Named series that depend only on a key and a precision (Hauptmoduln,
Euler-product powers, registry forms, first basis elements, ...) are kept
in one store, `cached`: one entry per key, the longest expansion built so
far, truncated on reuse.  `store_stats` counts its hits and misses per kind
of key.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

DEFAULT_PREC = 60

CoeffLike = Fraction | int | str


class PrecisionError(ValueError):
    """Raised when a coefficient is requested beyond the known precision."""


def as_coeff(x: CoeffLike) -> Fraction:
    """Coerce an int, string or Fraction to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact coefficient: {x!r}")


class QSeries:
    """A truncated Laurent series sum_e c_e q^e + O(q^prec).

    Invariants: no stored coefficient is zero, and every stored exponent
    is < prec.  Entries at or beyond prec are silently truncated on
    construction; everything below prec is exact.
    """

    __slots__ = ("_c", "_prec")

    def __init__(self, coeffs=None, prec: int = DEFAULT_PREC):
        prec = int(prec)
        c: dict[int, Fraction] = {}
        if coeffs:
            items = coeffs.items() if hasattr(coeffs, "items") else coeffs
            for e, v in items:
                e = int(e)
                if e >= prec:
                    continue
                v = as_coeff(v)
                if v:
                    c[e] = c[e] + v if e in c else v
                    if not c[e]:
                        del c[e]
        self._c = c
        self._prec = prec

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, prec: int = DEFAULT_PREC) -> "QSeries":
        return cls(None, prec)

    @classmethod
    def one(cls, prec: int = DEFAULT_PREC) -> "QSeries":
        return cls({0: 1}, prec)

    @classmethod
    def monomial(cls, exponent: int, coeff: CoeffLike = 1,
                 prec: int = DEFAULT_PREC) -> "QSeries":
        return cls({exponent: coeff}, prec)

    # -- accessors ---------------------------------------------------

    @property
    def prec(self) -> int:
        return self._prec

    @property
    def is_zero(self) -> bool:
        return not self._c

    def items(self):
        """Stored (exponent, coefficient) pairs, ascending in exponent."""
        return tuple(sorted(self._c.items()))

    def coeff(self, n: int) -> Fraction:
        """Coefficient of q^n; zero if absent, error if undetermined."""
        if n >= self._prec:
            raise PrecisionError(
                f"coefficient not determined at this precision "
                f"(n={n}, prec={self._prec})")
        return self._c.get(n, Fraction(0))

    def valuation(self) -> int:
        """Minimal stored exponent."""
        if not self._c:
            raise ValueError("valuation of zero series is undefined")
        return min(self._c)

    def _effective_valuation(self) -> int:
        # For precision propagation a zero series behaves as if its first
        # possibly-nonzero term sits at q^prec.
        return min(self._c) if self._c else self._prec

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QSeries):
            prec = min(self._prec, other._prec)
            c = {e: v for e, v in self._c.items() if e < prec}
            for e, v in other._c.items():
                if e >= prec:
                    continue
                s = c.get(e, 0) + v
                if s:
                    c[e] = s
                elif e in c:
                    del c[e]
            return QSeries._raw(c, prec)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, QSeries):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return QSeries._raw({e: -v for e, v in self._c.items()}, self._prec)

    def scale(self, k: CoeffLike) -> "QSeries":
        """Scalar multiple; precision is preserved."""
        k = as_coeff(k)
        if not k:
            return QSeries._raw({}, self._prec)
        return QSeries._raw({e: v * k for e, v in self._c.items()}, self._prec)

    @classmethod
    def combination(cls, pairs, prec: int = DEFAULT_PREC) -> "QSeries":
        """sum c*s over the (c, s) pairs, known modulo q^prec and modulo
        every s's precision; the zero series for no pairs."""
        terms = [(as_coeff(c), s) for c, s in pairs]
        prec = min([int(prec), *(s._prec for _, s in terms)])
        # Clear denominators once, as _mul_series does: with s = sum n_e q^e
        # / ds for integers n_e, every c*s adds integers over one common
        # denominator d.
        rows = [(c, _common_denominator(s._c), s._c) for c, s in terms if c]
        d = lcm(*(c.denominator * ds for c, ds, _ in rows))
        acc: dict[int, int] = {}
        for c, ds, coeffs in rows:
            f = c.numerator * (d // (c.denominator * ds))
            for e, v in coeffs.items():
                if e < prec:
                    acc[e] = acc.get(e, 0) + f * v.numerator * (
                        ds // v.denominator)
        return cls._raw({e: Fraction(v, d) for e, v in acc.items() if v},
                        prec)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return self._mul_series(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def _mul_series(self, other: "QSeries") -> "QSeries":
        prec = min(self._prec + other._effective_valuation(),
                   other._prec + self._effective_valuation())
        if not self._c or not other._c:
            return QSeries._raw({}, prec)
        # Clear denominators so the convolution runs over plain ints; the
        # gcd-normalising Fraction arithmetic is only paid once per result
        # term instead of once per product.
        da = _common_denominator(self._c)
        db = _common_denominator(other._c)
        na = [(e, int(v * da)) for e, v in self._c.items()]
        nb = sorted((e, int(v * db)) for e, v in other._c.items())
        acc: dict[int, int] = {}
        for ea, va in na:
            room = prec - ea
            for eb, vb in nb:
                if eb >= room:
                    break
                e = ea + eb
                acc[e] = acc.get(e, 0) + va * vb
        d = da * db
        c = {}
        for e, v in acc.items():
            if v:
                c[e] = Fraction(v, d)
        return QSeries._raw(c, prec)

    def __pow__(self, n: int) -> "QSeries":
        n = int(n)
        if n == 0:
            # q^0 at the relative precision of the base.
            return QSeries.one(self._prec - self._effective_valuation())
        if n < 0:
            if not self._c:
                raise ValueError("negative power of zero series")
            base = self.inverse(self._prec - self.valuation())
            n = -n
        else:
            base = self
        result = None
        sq = base
        while n:
            if n & 1:
                result = sq if result is None else result * sq
            n >>= 1
            if n:
                sq = sq * sq
        return result

    def inverse(self, terms: int | None = None) -> "QSeries":
        """Multiplicative inverse with the given number of known terms.

        The result has valuation -val(self); at most prec - val(self)
        terms can be determined from self.
        """
        if not self._c:
            raise ValueError("cannot invert zero series")
        v = self.valuation()
        known = self._prec - v
        n = known if terms is None else min(int(terms), known)
        if n <= 0:
            return QSeries._raw({}, -v + max(n, 0))
        # Clear denominators once: self = q^v * sum g_i q^i / d with integer
        # g_i.  The inverse is then sum d * c_m / g_0^(m+1) q^(m-v), where
        # c_0 = 1 and c_m = -sum_{i>=1} g_i g_0^(i-1) c_{m-i} stays integral.
        d = _common_denominator(self._c)
        g = [0] * n
        for e, x in self._c.items():
            if e - v < n:
                g[e - v] = x.numerator * (d // x.denominator)
        g0 = g[0]
        weights = []
        power = 1
        for gi in g[1:]:
            weights.append(gi * power)
            power *= g0
        c = [1]
        for _ in range(1, n):
            c.append(-sum(map(mul, weights, reversed(c))))
        out = {}
        power = g0
        for m, cm in enumerate(c):
            if cm:
                out[m - v] = Fraction(d * cm, power)
            power *= g0
        return QSeries._raw(out, n - v)

    def derive(self) -> "QSeries":
        """Apply q*d/dq: the coefficient at q^n becomes n*c_n."""
        return QSeries._raw(
            {e: e * v for e, v in self._c.items() if e != 0}, self._prec)

    def truncate(self, prec: int) -> "QSeries":
        """Restrict to exponents < prec (capped by the known precision)."""
        prec = int(prec)
        if prec >= self._prec:
            return self
        return QSeries._raw({e: v for e, v in self._c.items() if e < prec}, prec)

    def shift(self, n: int) -> "QSeries":
        """Multiply by q^n."""
        n = int(n)
        return QSeries._raw({e + n: v for e, v in self._c.items()},
                            self._prec + n)

    def rescale_exponents(self, d: int) -> "QSeries":
        """Substitute q -> q^d (argument scaling z -> dz)."""
        d = int(d)
        if d < 1:
            raise ValueError("exponent scale must be >= 1")
        return QSeries._raw({e * d: v for e, v in self._c.items()},
                            self._prec * d)

    # -- comparison --------------------------------------------------

    def agreement_prec(self, other: "QSeries") -> int:
        """The precision to which two series can be compared."""
        return min(self._prec, other._prec)

    def agrees(self, other: "QSeries") -> bool:
        """Equality of all coefficients below the common precision."""
        p = self.agreement_prec(other)
        for e, v in self._c.items():
            if e < p and other._c.get(e) != v:
                return False
        for e, v in other._c.items():
            if e < p and self._c.get(e) != v:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self._prec == other._prec and self._c == other._c

    def __hash__(self):
        return hash((self._prec, frozenset(self._c.items())))

    # -- serialization -----------------------------------------------

    def to_json_dict(self) -> dict:
        return {"prec": self._prec,
                "coeffs": [[e, str(v)] for e, v in self.items()]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "QSeries":
        return cls(((int(e), Fraction(s)) for e, s in d["coeffs"]),
                   int(d["prec"]))

    def __str__(self):
        if not self._c:
            return f"0 + O(q^{self._prec})"
        parts = []
        for e, v in self.items():
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
        parts.append(f"+ O(q^{self._prec})")
        return " ".join(parts)

    def __repr__(self):
        return f"QSeries({self})"

    # -- internal ----------------------------------------------------

    @classmethod
    def _raw(cls, c: dict[int, Fraction], prec: int) -> "QSeries":
        obj = object.__new__(cls)
        obj._c = c
        obj._prec = prec
        return obj


def _common_denominator(c: dict[int, Fraction]) -> int:
    d = 1
    for v in c.values():
        dv = v.denominator
        if dv != 1:
            d = d * dv // gcd(d, dv)
    return d


# -- the series store ------------------------------------------------------

_store: dict[tuple, QSeries] = {}
_stats: dict[str, list[int]] = {}   # key kind -> [hits, misses]


def cached(key: tuple, prec: int, build) -> QSeries:
    """The series named `key`, known modulo q^prec.

    The store keeps one entry per key, the longest expansion built so far,
    and truncates it for shorter requests; a longer request calls
    build(prec) and keeps its result.  The series must depend only on the
    key and the precision; key[0] names its kind for store_stats.
    """
    counts = _stats.setdefault(key[0], [0, 0])
    hit = _store.get(key)
    if hit is not None and hit._prec >= prec:
        counts[0] += 1
        return hit.truncate(prec)
    counts[1] += 1
    built = _store[key] = build(prec)
    return built.truncate(prec)


def store_stats() -> dict[str, dict[str, int]]:
    """Hits and misses of the series store per key kind."""
    return {kind: {"hits": h, "misses": m}
            for kind, (h, m) in sorted(_stats.items())}


def clear_store() -> None:
    """Empty the series store and its counts."""
    _store.clear()
    _stats.clear()
