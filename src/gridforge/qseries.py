"""Truncated Laurent series in q with exact rational coefficients.

A series sum_e c_e q^e + O(q^P) is known modulo O(q^P).  It is stored as
its valuation v, a dense row of ints r_0, r_1, ... and one positive
denominator d, with c_(v+i) = r_i / d.  The stored form is canonical: the
row has no zero at either end (the zero series has an empty row,
valuation 0 and d = 1) and d shares no factor with the row, so two series
are equal exactly when their fields are.  Arithmetic runs on the integer
rows; a Fraction is built only when a coefficient is read (`coeff`,
`items`).  All arithmetic is exact; precision only tracks how far the
coefficients are determined.  Instances are immutable.

Named values that depend only on a key and a size are kept in one store,
`cached`: series (Hauptmoduln, registry forms, cusp-killing
polynomials) at a size (prec,), and every canonical basis of
`gridforge.basis`, derived ones included, at a size (count, prec).  Each
key has one entry that only grows, to the componentwise max of the sizes
asked for; a caller cuts it down to its request.  `store_stats` counts
hits and misses per kind of key.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, ge, mul, neg

DEFAULT_PREC = 60

CoeffLike = Fraction | int | str

_ZERO = Fraction(0)


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

    Invariants: the coefficient of q^(v+i) is row[i] / d; the row is empty
    or starts and ends with a nonzero entry; d > 0 shares no factor with
    the row; v + len(row) <= prec.  Entries at or beyond prec are silently
    truncated on construction; everything below prec is exact.
    """

    __slots__ = ("_v", "_row", "_d", "_prec")

    def __init__(self, coeffs=None, prec: int = DEFAULT_PREC):
        prec = int(prec)
        c: dict[int, Fraction | int] = {}
        if coeffs:
            items = coeffs.items() if hasattr(coeffs, "items") else coeffs
            for e, x in items:
                e = int(e)
                if e < prec:
                    c[e] = c.get(e, 0) + (x if type(x) is int
                                          else as_coeff(x))
        c = {e: x for e, x in c.items() if x}
        d = lcm(*(x.denominator for x in c.values()))
        v = min(c, default=0)
        row = [0] * (max(c, default=v - 1) + 1 - v)
        for e, x in c.items():
            row[e - v] = x.numerator * (d // x.denominator)
        self._set(v, row, d, prec)

    def _set(self, v: int, row, d: int, prec: int):
        """Store sum row[i]/d q^(v+i) + O(q^prec) in canonical form."""
        hi = min(len(row), prec - v)
        while hi > 0 and not row[hi - 1]:
            hi -= 1
        lo = 0
        while lo < hi and not row[lo]:
            lo += 1
        if lo >= hi:
            v, row, d = 0, (), 1
        else:
            v += lo
            row = tuple(row[lo:hi])
            if d != 1:
                g = gcd(d, *row)
                if g != 1:
                    d //= g
                    row = tuple([x // g for x in row])
        self._v = v
        self._row = row
        self._d = d
        self._prec = prec

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, prec: int = DEFAULT_PREC) -> "QSeries":
        return cls(None, prec)

    @classmethod
    def one(cls, prec: int = DEFAULT_PREC) -> "QSeries":
        return cls({0: 1}, prec)

    @classmethod
    def from_row(cls, valuation: int, row, prec: int,
                 denominator: int = 1) -> "QSeries":
        """sum row[i]/denominator q^(valuation+i) + O(q^prec), for a
        sequence of ints `row` and a positive int denominator."""
        if denominator < 1:
            raise ValueError(
                f"denominator must be positive, got {denominator}")
        obj = object.__new__(cls)
        obj._set(valuation, row, denominator, prec)
        return obj

    # -- accessors ---------------------------------------------------

    @property
    def prec(self) -> int:
        return self._prec

    @property
    def is_zero(self) -> bool:
        return not self._row

    @property
    def denominator(self) -> int:
        """The least d > 0 for which d * self has integer coefficients."""
        return self._d

    def numerators(self, lo: int, hi: int) -> list[int]:
        """The coefficients of q^lo .. q^(hi-1) times the denominator, as
        ints; error if one is undetermined."""
        if hi > lo and hi > self._prec:
            raise PrecisionError(
                f"coefficient not determined at this precision "
                f"(n={hi - 1}, prec={self._prec})")
        n = hi - lo
        if n <= 0:
            return []
        a = lo - self._v
        out = [0] * min(-a, n) if a < 0 else []
        out += self._row[max(a, 0):max(a + n, 0)]
        out += [0] * (n - len(out))
        return out

    def items(self):
        """Stored (exponent, coefficient) pairs, ascending in exponent."""
        v, d = self._v, self._d
        return tuple((v + i, Fraction(x, d))
                     for i, x in enumerate(self._row) if x)

    def coeff(self, n: int) -> Fraction:
        """Coefficient of q^n; zero if absent, error if undetermined."""
        if n >= self._prec:
            raise PrecisionError(
                f"coefficient not determined at this precision "
                f"(n={n}, prec={self._prec})")
        i = n - self._v
        if 0 <= i < len(self._row):
            return Fraction(self._row[i], self._d)
        return _ZERO

    def valuation(self) -> int:
        """Minimal stored exponent."""
        if not self._row:
            raise ValueError("valuation of zero series is undefined")
        return self._v

    def _effective_valuation(self) -> int:
        # For precision propagation a zero series behaves as if its first
        # possibly-nonzero term sits at q^prec.
        return self._v if self._row else self._prec

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QSeries):
            return QSeries.combination(((1, self), (1, other)), self._prec)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, QSeries):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return QSeries._raw(self._v, tuple(map(neg, self._row)), self._d,
                            self._prec)

    def scale(self, k: CoeffLike) -> "QSeries":
        """Scalar multiple; precision is preserved."""
        return QSeries.combination(((k, self),), self._prec)

    @classmethod
    def combination(cls, pairs, prec: int = DEFAULT_PREC) -> "QSeries":
        """sum c*s over the (c, s) pairs, known modulo q^prec and modulo
        every s's precision; the zero series for no pairs."""
        terms = [(as_coeff(c), s) for c, s in pairs]
        prec = min([int(prec), *(s._prec for _, s in terms)])
        terms = [(c, s) for c, s in terms if c and s._row and s._v < prec]
        if not terms:
            return cls._raw(0, (), 1, prec)
        # Over the common denominator d, every c*s is an integer row: the
        # row of s times c.numerator * d / (c.denominator * s._d).
        d = lcm(*(c.denominator * s._d for c, s in terms))
        v = min(s._v for _, s in terms)
        n = min(max(s._v + len(s._row) for _, s in terms), prec) - v
        acc = [0] * n
        for c, s in terms:
            f = c.numerator * (d // (c.denominator * s._d))
            a = s._v - v
            b = min(a + len(s._row), n)
            acc[a:b] = map(add, acc[a:b], map(mul, repeat(f), s._row))
        return cls.from_row(v, acc, prec, d)

    def __mul__(self, other):
        if isinstance(other, QSeries):
            return self._mul_series(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def _mul_series(self, other: "QSeries") -> "QSeries":
        prec = min(self._prec + other._effective_valuation(),
                   other._prec + self._effective_valuation())
        a, b = self._row, other._row
        if not a or not b:
            return QSeries._raw(0, (), 1, prec)
        v = self._v + other._v
        n = min(prec - v, len(a) + len(b) - 1)
        # One pass per nonzero coefficient of the sparser row, so that a
        # rescaled factor such as E_k(dz) costs a d-th of a dense product.
        if len(a) - a.count(0) > len(b) - b.count(0):
            a, b = b, a
        acc = [0] * n
        for i, x in enumerate(a):
            if i >= n:
                break
            if x:
                j = min(i + len(b), n)
                acc[i:j] = map(add, acc[i:j], map(mul, repeat(x), b))
        return QSeries.from_row(v, acc, prec, self._d * other._d)

    def __pow__(self, n: int) -> "QSeries":
        n = int(n)
        if n == 0:
            # q^0 at the relative precision of the base.
            return QSeries.one(self._prec - self._effective_valuation())
        if n < 0:
            if not self._row:
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
        if not self._row:
            raise ValueError("cannot invert zero series")
        v = self._v
        known = self._prec - v
        n = known if terms is None else min(int(terms), known)
        if n <= 0:
            return QSeries._raw(0, (), 1, -v + max(n, 0))
        # self = q^v * sum g_i q^i / d with integer g_i.  The inverse is
        # sum d * c_m / g_0^(m+1) q^(m-v), where c_0 = 1 and
        # c_m = -sum_{i>=1} g_i g_0^(i-1) c_{m-i} stays integral; over the
        # common denominator g_0^n its numerators are d c_m g_0^(n-1-m).
        g = self._row[:n]
        g0 = g[0]
        weights = []
        power = 1
        for gi in g[1:]:
            weights.append(gi * power)
            power *= g0
        c = [1]
        for _ in range(1, n):
            c.append(-sum(map(mul, weights, reversed(c))))
        power = 1
        for m in reversed(range(n)):
            c[m] *= self._d * power
            power *= g0
        if power < 0:
            power = -power
            c = list(map(neg, c))
        return QSeries.from_row(-v, c, n - v, power)

    def derive(self) -> "QSeries":
        """Apply q*d/dq: the coefficient at q^n becomes n*c_n."""
        v = self._v
        return QSeries.from_row(
            v, [(v + i) * x for i, x in enumerate(self._row)], self._prec,
            self._d)

    def truncate(self, prec: int) -> "QSeries":
        """Restrict to exponents < prec (capped by the known precision)."""
        prec = int(prec)
        if prec >= self._prec:
            return self
        return QSeries.from_row(self._v, self._row, prec, self._d)

    # -- comparison --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self._prec == other._prec and self._v == other._v
                and self._d == other._d and self._row == other._row)

    def __hash__(self):
        return hash((self._prec, self._v, self._d, self._row))

    # -- serialization -----------------------------------------------

    def to_json_dict(self) -> dict:
        d = self._d
        return {"prec": self._prec,
                "coeffs": [[e, str(x) if d == 1 else str(Fraction(x, d))]
                           for e, x in enumerate(self._row, self._v) if x]}

    def __str__(self):
        if not self._row:
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
    def _raw(cls, v: int, row: tuple, d: int, prec: int) -> "QSeries":
        """A series from fields already in canonical form."""
        obj = object.__new__(cls)
        obj._v = v
        obj._row = row
        obj._d = d
        obj._prec = prec
        return obj


# -- the store of named series and bases ----------------------------------

_store: dict[tuple, tuple] = {}     # key -> (size, value)
_stats: dict[str, list[int]] = {}   # key kind -> [hits, misses]


def cached(key: tuple, need: tuple, build):
    """The value named `key`, built at a size that covers `need`: (prec,)
    for a series, (count, prec) for a basis.

    The store keeps one entry per key and the size it was built at.  A
    request that size covers in every component is a hit; a miss calls
    build(*size) at the componentwise max of the two sizes and keeps it, so
    an entry only grows and covers every earlier request.  The caller cuts
    the value down to its request.  The value must depend only on the key
    and the size; key[0] names its kind for store_stats.
    """
    counts = _stats.setdefault(key[0], [0, 0])
    entry = _store.get(key)
    if entry is not None:
        if all(map(ge, entry[0], need)):
            counts[0] += 1
            return entry[1]
        need = tuple(map(max, entry[0], need))
    counts[1] += 1
    value = build(*need)
    _store[key] = need, value
    return value


def store_stats() -> dict[str, dict[str, int]]:
    """Hits and misses of the store per key kind."""
    return {kind: {"hits": h, "misses": m}
            for kind, (h, m) in sorted(_stats.items())}


def clear_store() -> None:
    """Empty the store and its counts."""
    _store.clear()
    _stats.clear()
