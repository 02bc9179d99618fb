"""Level-lowering trace operators on canonical basis elements.

A trace from level N to M | N is computed purely by principal-part
matching: when the relevant holomorphic space at level M is trivial, the
trace of a basis element is the unique level-M combination with the same
coefficients at every exponent up to the level-M gap bound.  On the full
space at weight 0 the holomorphic constants survive, so traces there are
canonical representatives normalized to the row-reduced gap form.

The module also classifies when the trace preserves grid duality, lists
the obstruction pairs of the generating-function identities, and verifies
those identities on truncated double expansions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from gridforge.basis import (HAT, INF, _box_sums, build_basis, gap_bound,
                             hauptmodul_series)
from gridforge.leveldata import get_level, u_of, v_of
from gridforge.qseries import DEFAULT_PREC, QSeries


def mk_trivial(M: int, k: int) -> bool:
    """Whether the holomorphic weight-k space at level M is zero: v < 0."""
    return v_of(M, k) < 0


def sk_trivial(M: int, k: int) -> bool:
    """Whether the weight-k cusp space at level M is zero."""
    get_level(M)
    if M == 1:
        return k == 14 or k < 12
    if M == 2:
        return k < 8
    if M == 3:
        return k < 6
    return k < 4


def _check_pair(N: int, M: int):
    get_level(N)
    get_level(M)
    if N % M:
        raise ValueError(f"{M} does not divide {N}")


def _check_positive(name: str, n: int, least: int = 1):
    # a check over no indices compares nothing, so it must not report success
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")


@dataclass(frozen=True)
class TraceReport:
    from_level: int
    to_level: int
    weight: int
    space: str
    index: int
    applicable: bool
    method: str
    reason: str | None = None
    combination: tuple = ()      # of (level-M index, Fraction)
    expansion: QSeries | None = None

    def to_json_dict(self) -> dict:
        return {
            "from": self.from_level,
            "to": self.to_level,
            "weight": self.weight,
            "space": self.space,
            "index": self.index,
            "applicable": self.applicable,
            "method": self.method,
            "reason": self.reason,
            "combination": [[i, str(c)] for i, c in self.combination],
            "expansion": (None if self.expansion is None
                          else self.expansion.to_json_dict()),
        }


def _trace_applicable(M: int, k: int, space: str) -> tuple[bool, str, str]:
    """(ok, method, reason) for tracing into level M."""
    if space == INF:
        if mk_trivial(M, k):
            return True, "principal_part", ""
        if k == 0:
            # The weight-0 space at level M contains the constants, so the
            # principal part pins the trace only up to an additive constant;
            # the row-reduced gap form fixes the canonical representative.
            return True, "principal_part_mod_constants", ""
        return (False, "none",
                f"trace not determined by principal part: M_{k}({M}) != 0")
    if sk_trivial(M, k):
        return True, "principal_part", ""
    return (False, "none",
            f"trace not determined by principal part: S_{k}({M}) != 0")


def trace(N: int, M: int, k: int, space: str, m: int,
          prec: int = DEFAULT_PREC) -> TraceReport:
    """Trace of the index-m basis element of the level-N weight-k space
    down to level M, expressed in the level-M canonical basis."""
    _check_pair(N, M)
    b_n = gap_bound(N, k, space)
    if m < -b_n:
        raise ValueError(f"no basis element of index {m} at level {N} "
                         f"weight {k} {space}")

    if M == N:
        basis = _basis_for(N, k, space, m, prec)
        return TraceReport(N, M, k, space, m, True, "identity",
                           combination=((m, Fraction(1)),),
                           expansion=basis.element(m).truncate(prec))

    ok, method, reason = _trace_applicable(M, k, space)
    if not ok:
        return TraceReport(N, M, k, space, m, False, method, reason=reason)

    # the principal part is read through q^b_m
    b_m = gap_bound(M, k, space)
    src = _basis_for(N, k, space, m, max(prec, b_m + 1)).element(m)

    combo = []
    for j in range(src.valuation(), b_m + 1):
        c = src.coeff(j)
        if c:
            combo.append((-j, c))
    if not combo:
        return TraceReport(N, M, k, space, m, True, method,
                           combination=(), expansion=QSeries.zero(prec))

    top = max(i for i, _ in combo)
    target = _basis_for(M, k, space, top, prec)
    out = QSeries.combination(((c, target.element(i)) for i, c in combo),
                              prec)
    return TraceReport(N, M, k, space, m, True, method,
                       combination=tuple(combo), expansion=out)


def _basis_for(N: int, k: int, space: str, max_index: int, prec: int):
    """Basis covering indices up to max_index at >= prec."""
    B = gap_bound(N, k, space)
    return build_basis(N, k, space, max(max_index + B + 1, 1),
                       max(prec, B + 1))


# -- duality preservation -------------------------------------------------

@dataclass(frozen=True)
class Classification:
    from_level: int
    to_level: int
    weight: int
    preserved: bool
    case: str | None = None      # "f-side" | "g-side" when not preserved

    def to_json_dict(self) -> dict:
        return {"from": self.from_level, "to": self.to_level,
                "weight": self.weight, "preserved": self.preserved,
                "case": self.case}


def classify(N: int, M: int, k: int) -> Classification:
    """Whether tracing the weight-(k, 2-k) grid from N to M preserves
    duality: exactly when both maximal-vanishing orders agree (always for
    M = N)."""
    _check_pair(N, M)
    if k % 2:
        raise ValueError("weight must be even")
    if M == N:
        return Classification(N, M, k, True)
    dv = v_of(N, k) - v_of(M, k)
    du = u_of(N, 2 - k) - u_of(M, 2 - k)
    if dv == 0 and du == 0:
        return Classification(N, M, k, True)
    case = "f-side" if dv < 0 else "g-side"
    return Classification(N, M, k, False, case)


def theorem_list_preserved(N: int, M: int, k: int) -> bool:
    """The explicit classification list: k=0 always; k=-2 for N in
    {2,3,4}; k=-4 for (N,M)=(2,1); and the identity trace."""
    if M == N:
        return True
    if k == 0:
        return True
    if k == -2 and N in (2, 3, 4):
        return True
    if k == -4 and (N, M) == (2, 1):
        return True
    return False


# -- obstruction pairs ----------------------------------------------------

@dataclass(frozen=True)
class ObstructionPair:
    side: str                    # "f" (weight-k identity) or "g"
    f_level: int
    f_weight: int
    f_index: int
    f: QSeries
    g_level: int
    g_weight: int
    g_index: int
    g: QSeries

    def to_json_dict(self) -> dict:
        return {
            "side": self.side,
            "f": {"level": self.f_level, "weight": self.f_weight,
                  "index": self.f_index, "series": self.f.to_json_dict()},
            "g": {"level": self.g_level, "weight": self.g_weight,
                  "index": self.g_index, "series": self.g.to_json_dict()},
        }


@dataclass(frozen=True)
class ObstructionList:
    from_level: int
    to_level: int
    weight: int
    pairs: tuple = field(default=())

    @property
    def is_empty(self) -> bool:
        return not self.pairs

    def to_json_dict(self) -> dict:
        return {"from": self.from_level, "to": self.to_level,
                "weight": self.weight,
                "pairs": [p.to_json_dict() for p in self.pairs]}


def obstructions(N: int, M: int, k: int,
                 prec: int = DEFAULT_PREC) -> ObstructionList:
    """The product pairs obstructing the traced generating-function
    identities; empty exactly when the trace preserves duality."""
    _check_pair(N, M)
    if M == N:
        return ObstructionList(N, M, k)
    pairs = []
    v_n, v_m = v_of(N, k), v_of(M, k)
    # each family is requested at its top index, so it is built once
    if v_n < v_m and mk_trivial(M, k):
        fb = _basis_for(M, k, INF, -v_n - 1, prec)
        gb = _basis_for(N, 2 - k, HAT, v_m, prec)
        for j in range(v_n + 1, v_m + 1):
            pairs.append(ObstructionPair(
                "f", M, k, -j, fb.element(-j).truncate(prec),
                N, 2 - k, j, gb.element(j).truncate(prec)))
    u_n, u_m = u_of(N, 2 - k), u_of(M, 2 - k)
    if u_n < u_m and sk_trivial(M, 2 - k):
        fb = _basis_for(N, k, INF, u_m, prec)
        gb = _basis_for(M, 2 - k, HAT, -u_n - 1, prec)
        for j in range(u_n + 1, u_m + 1):
            pairs.append(ObstructionPair(
                "g", N, k, j, fb.element(j).truncate(prec),
                M, 2 - k, -j, gb.element(-j).truncate(prec)))
    return ObstructionList(N, M, k, tuple(pairs))


# -- generating-function identities ---------------------------------------

def genfun_check(N: int, M: int, k: int, P: int, side: str = "both") -> bool:
    """Verify the traced generating-function identities coefficientwise on
    the truncated double expansion, for all index pairs below P.

    side "k" checks the weight-k (z-variable) identity, side "dual" the
    weight-(2-k) (tau-variable) identity, "both" checks both.
    """
    _check_pair(N, M)
    if side not in ("k", "dual", "both"):
        raise ValueError("side must be 'k', 'dual' or 'both'")
    _check_positive("max index P", P)
    ok = True
    if side in ("k", "both"):
        ok = ok and _genfun_side(N, M, k, INF, P)
    if side in ("dual", "both"):
        ok = ok and _genfun_side(N, M, 2 - k, HAT, P)
    return ok


def _genfun_side(N: int, M: int, k: int, space: str, P: int) -> bool:
    """Traces of the weight-k family in `space` against the level-M family
    minus the obstruction products, compared per power of the other
    variable.  The weight-k identity is the INF case; the dual one is the
    HAT case at weight 2-k, with u in place of v (its two negations
    cancel)."""
    other, name = ((HAT, "weight-k") if space == INF
                   else (INF, "weight-(2-k)"))
    if M != N:
        ok, _, reason = _trace_applicable(M, k, space)
        if not ok:
            raise ValueError(f"{name} identity not checkable: {reason}")
    b_n, b_m = gap_bound(N, k, space), gap_bound(M, k, space)
    _check_positive(f"max index P of the weight {k} identity", P, 1 - b_m)
    prec = P + 2
    xs = range(1, b_m - b_n + 1)
    # top index first, so each basis is built once at its full size
    dual_n = {j: _basis_for(N, 2 - k, other, j, prec)
              for j in (b_n + x for x in reversed(xs))}
    for m in reversed(range(-b_m, P)):
        lhs = (trace(N, M, k, space, m, prec).expansion
               if m >= -b_n else QSeries.zero(prec))
        rhs = _basis_for(M, k, space, m, prec).element(m).truncate(prec)
        for x in xs:
            j = b_n + x
            c = dual_n[j].element(j).coeff(m)
            if c:
                low = _basis_for(M, k, space, -j, prec)
                rhs = rhs - low.element(-j).scale(c)
        if lhs != rhs.truncate(prec):
            return False
    return True


def genfun_closed_form(N: int, k: int, P: int) -> bool:
    """Verify the closed form of the level-N grid generating function,
    (psi(tau) - psi(z)) sum_m f_{k,m}(z) p^m = f_{k,-v}(z) g_{2-k,v+1}(tau)
    with psi the Hauptmodul, modulo q^P against both expansions of the
    grid (Duke-Jenkins at level 1, Griffin-Jenkins-Molnar in genus zero)."""
    v, u = v_of(N, k), u_of(N, 2 - k)
    _check_positive("max index P", P)
    # side (A) compares r in [-v-1, P), side (B) r in [-u-1, P); u = -v-1
    _check_positive("max index P of side (A)", P, -v)
    _check_positive("max index P of side (B)", P, -u)
    # the sides read family indices up to P and psi below q^(P+r) for r up
    # to P - 1; psi's constant term cancels in psi(tau) - psi(z)
    psi = hauptmodul_series(N, 2 * P - 1)
    fb = _basis_for(N, k, INF, P, P + 1)
    gb = _basis_for(N, 2 - k, HAT, P, P + 1)
    # (A) in powers of p, through sum_m f_{k,m}(z) p^m; (B) in powers of q,
    # through -sum_n g_{2-k,n}(tau) q^n
    return (_closed_form_side(psi, fb, gb.element(-u), P)
            and _closed_form_side(psi, gb, fb.element(-v), P))


def _closed_form_side(psi: QSeries, family, other: QSeries, P: int) -> bool:
    """One expansion of the closed form, with b_m the family's element m
    (zero below its first index lo) and lead = b_lo: for each power r in
    [lo-1, P), sum_j psi_j b_{r-j} - psi b_r = lead * other_r modulo q^P.
    psi * b_r is known to q^P only when psi is known to q^(P+r), which
    also covers every psi_j the sum reads; `==` compares precisions too,
    so a term known below q^P fails the check."""
    lo = family.m0
    lead = family.element(lo)
    for r in range(lo - 1, P):
        terms = [(c, family.element(r - j))
                 for j, c in psi.items() if r - j >= lo]
        if r >= lo:
            terms.append((-1, psi * family.element(r)))
        if (QSeries.combination(terms, P)
                != lead.scale(other.coeff(r)).truncate(P)):
            return False
    return True


# -- empirical duality of traced grids ------------------------------------

def empirical_preserves(N: int, M: int, k: int, box: int = 12) -> bool | None:
    """Direct duality check of the traced families on a box-by-box grid of
    coefficients; None when principal-part matching does not apply on both
    sides."""
    _check_pair(N, M)
    _check_positive("box", box)
    if M == N:
        return True
    if not (mk_trivial(M, k) and sk_trivial(M, 2 - k)):
        return None
    v_n = v_of(N, k)
    u_n = u_of(N, 2 - k)
    f_indices = range(-v_n, -v_n + box)
    g_indices = range(-u_n, -u_n + box)
    # _box_sums reads f below q^(box - u_n) and g below q^(box - v_n)
    need = max(-u_n, -v_n) + box
    # top index first, so each basis is built once at its full size
    tf = {m: trace(N, M, k, INF, m, need).expansion
          for m in reversed(f_indices)}
    tg = {n: trace(N, M, 2 - k, HAT, n, need).expansion
          for n in reversed(g_indices)}
    return not any(r for r, _ in _box_sums(tf, tg))
