"""Level-lowering trace operators on canonical basis elements.

A trace from level N to M | N is computed purely by principal-part
matching: when the relevant holomorphic space at level M is trivial, the
trace of a basis element is the unique level-M combination with the same
coefficients at every exponent up to the level-M gap bound.  On the full
space at weight 0 the holomorphic constants survive, so traces there are
canonical representatives normalized to the row-reduced gap form.  One
rule, `_trace_method`, decides which of these applies, or that neither
does; `trace`, `genfun_check`, `obstructions` and `empirical_preserves`
all ask it.

The module also classifies when the trace preserves grid duality, lists
the obstruction pairs of the generating-function identities, and verifies
those identities on truncated double expansions.  Both read a side's
obstruction family from one helper, `_obstruction_family`.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from gridforge.basis import (HAT, INF, _box_residual, _box_rows,
                             build_basis, gap_bound, hauptmodul_series)
from gridforge.leveldata import get_level, u_of, v_of
from gridforge.qseries import DEFAULT_PREC, QSeries


def mk_trivial(M: int, k: int) -> bool:
    """Whether the holomorphic weight-k space at level M is zero: v < 0."""
    return v_of(M, k) < 0


def sk_trivial(M: int, k: int) -> bool:
    """Whether the weight-k cusp space at level M is zero."""
    _check_even(k)
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


def _check_even(k: int):
    if k % 2:
        raise ValueError("weight must be even")


def _check_positive(name: str, n: int, least: int = 1):
    # a check over no indices compares nothing, so it must not report success
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")


class TraceReport(namedtuple(
        "TraceReport", "from_level to_level weight space index applicable "
        "method reason combination expansion", defaults=(None, (), None))):
    """A trace and how it was found: `combination` holds its (level-M
    index, Fraction) pairs, `expansion` its QSeries; `reason` says why a
    trace that is not applicable is not."""
    __slots__ = ()

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


def _trace_method(M: int, k: int, space: str) -> tuple[str, str]:
    """(method, reason) for tracing into the weight-k `space` at level M:
    "principal_part" when its holomorphic part, M_k(M) for the full space
    and S_k(M) for the subspace, is zero; "principal_part_mod_constants"
    on the full space at weight 0, where M_0(M) holds the constants, so
    the principal part pins the trace only up to an additive constant and
    the row-reduced gap form fixes the canonical representative; else
    "none", with the reason."""
    if mk_trivial(M, k) if space == INF else sk_trivial(M, k):
        return "principal_part", ""
    if space == INF and k == 0:
        return "principal_part_mod_constants", ""
    held = "M" if space == INF else "S"
    return ("none",
            f"trace not determined by principal part: {held}_{k}({M}) != 0")


def trace(N: int, M: int, k: int, space: str, m: int,
          prec: int = DEFAULT_PREC) -> TraceReport:
    """Trace of the index-m basis element of the level-N weight-k space
    down to level M, expressed in the level-M canonical basis: the
    principal part `_principal_parts` matches for this one index, with
    Fraction coefficients and the expansion to q^prec, the
    `QSeries.combination` of the named elements (0 + O(q^prec) when the
    principal part names none).  `empirical_preserves` calls the matcher
    itself, and reads a traced element only at the box's exponents, where
    it is compared."""
    _check_pair(N, M)
    if m < -gap_bound(N, k, space):
        raise ValueError(f"no basis element of index {m} at level {N} "
                         f"weight {k} {space}")
    method, reason = (("identity", "") if M == N
                      else _trace_method(M, k, space))
    if method == "none":
        return TraceReport(N, M, k, space, m, False, method, reason=reason)
    (combo,), target = _principal_parts(N, M, k, space, range(m, m + 1),
                                        prec)
    return TraceReport(
        N, M, k, space, m, True, method,
        combination=tuple((i, Fraction(c)) for i, c in combo),
        expansion=QSeries.combination(
            ((c, target.element(i)) for i, c in combo), prec))


def _principal_parts(N: int, M: int, k: int, space: str, indices: range,
                     prec: int):
    """Principal-part matching of the level-N elements at `indices`, a
    nonempty ascending range: each element's coefficients through q^b_m,
    the level-M gap bound, as (level-M index, int) pairs, and the level-M
    basis at >= prec covering every index they name (None when they name
    none; a view of the source's own entry when M = N).

    The source is asked for at the top index and the target at the largest
    index named, the first and largest requests of a descending run of
    single-index traces, so the store sees the same builds."""
    b_m = gap_bound(M, k, space)
    # the principal part is read through q^b_m
    src = _basis_for(N, k, space, indices[-1], max(prec, b_m + 1))
    # element m is q^-m plus its int tail past the level-N gap bound, so
    # its part names index m first
    parts = [[(-j, c) for j, c in
              enumerate(src.numerators(m, -m, b_m + 1), -m) if c]
             for m in indices]
    top = max((part[0][0] for part in parts if part), default=None)
    if top is None:
        return parts, None
    return parts, _basis_for(M, k, space, top, prec)


def _basis_for(N: int, k: int, space: str, max_index: int, prec: int):
    """Basis covering indices up to max_index at >= prec."""
    B = gap_bound(N, k, space)
    return build_basis(N, k, space, max(max_index + B + 1, 1),
                       max(prec, B + 1))


# -- duality preservation -------------------------------------------------

class Classification(namedtuple(
        "Classification", "from_level to_level weight preserved case",
        defaults=(None,))):
    """Whether the trace preserves duality; `case` is "f-side" or "g-side"
    when it does not."""
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"from": self.from_level, "to": self.to_level,
                "weight": self.weight, "preserved": self.preserved,
                "case": self.case}


def classify(N: int, M: int, k: int) -> Classification:
    """Whether tracing the weight-(k, 2-k) grid from N to M preserves
    duality: exactly when both maximal-vanishing orders agree (always for
    M = N).  On every level u(2-k) = -v(k) - 1, which `build_grid` checks,
    so the g-side orders agree exactly when the f-side ones do."""
    _check_pair(N, M)
    dv = v_of(N, k) - v_of(M, k)
    if dv == 0:
        return Classification(N, M, k, True)
    case = "f-side" if dv < 0 else "g-side"
    return Classification(N, M, k, False, case)


def theorem_list_preserved(N: int, M: int, k: int) -> bool:
    """The explicit classification list: k=0 always; k=-2 for N in
    {2,3,4}; k=-4 for (N,M)=(2,1); and the identity trace.  It refuses
    what `classify` refuses."""
    _check_pair(N, M)
    _check_even(k)
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

class ObstructionPair(namedtuple(
        "ObstructionPair", "side f_level f_weight f_index f "
        "g_level g_weight g_index g")):
    """One obstruction product f * g, on `side` "f" (the weight-k identity)
    or "g"."""
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "side": self.side,
            "f": {"level": self.f_level, "weight": self.f_weight,
                  "index": self.f_index, "series": self.f.to_json_dict()},
            "g": {"level": self.g_level, "weight": self.g_weight,
                  "index": self.g_index, "series": self.g.to_json_dict()},
        }


class ObstructionList(namedtuple(
        "ObstructionList", "from_level to_level weight pairs",
        defaults=((),))):
    """The obstruction pairs of tracing from one level to another."""
    __slots__ = ()

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
    pairs = []
    for side, space, w in (("f", INF, k), ("g", HAT, 2 - k)):
        if _trace_method(M, w, space)[0] != "principal_part":
            continue
        for j, fm, gn in _obstruction_family(N, M, w, space, prec):
            pair = (M, w, -j, fm), (N, 2 - w, j, gn)
            f, g = pair if side == "f" else pair[::-1]
            pairs.append(ObstructionPair(side, *f, *g))
    return ObstructionList(N, M, k, tuple(pairs))


def _obstruction_family(N: int, M: int, w: int, space: str, prec: int):
    """One side's obstruction family, the weight-w identity in `space`:
    (j, level-M element -j, level-N element j of weight 2 - w in the
    other space), each cut to q^prec, for b_n < j <= b_m, the gap bounds
    of the space at N and at M."""
    b_n, b_m = gap_bound(N, w, space), gap_bound(M, w, space)
    if b_n >= b_m:
        return []
    # each family is requested at its top index, so it is built once
    fam = _basis_for(M, w, space, -b_n - 1, prec)
    dual = _basis_for(N, 2 - w, HAT if space == INF else INF, b_m, prec)
    return [(j, fam.element(-j).truncate(prec),
             dual.element(j).truncate(prec)) for j in range(b_n + 1, b_m + 1)]


# -- generating-function identities ---------------------------------------

def genfun_check(N: int, M: int, k: int, P: int, side: str = "both") -> bool:
    """Verify the traced generating-function identities coefficientwise on
    the truncated double expansion, for all index pairs below P.

    side "k" checks the weight-k (z-variable) identity, side "dual" the
    weight-(2-k) (tau-variable) identity, "both" checks both.  Each side
    refuses a P that leaves it no coefficient to compare (`_genfun_side`),
    the weight-k side first.
    """
    _check_pair(N, M)
    if side not in ("k", "dual", "both"):
        raise ValueError("side must be 'k', 'dual' or 'both'")
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
    if M != N:
        method, reason = _trace_method(M, k, space)
        if method == "none":
            name = "weight-k" if space == INF else "weight-(2-k)"
            raise ValueError(f"{name} identity not checkable: {reason}")
    b_n, b_m = gap_bound(N, k, space), gap_bound(M, k, space)
    # the indices run from -b_m up to P - 1, whose lead q^(1-P) must fall
    # below the working precision q^(P+2): on an identity trace b_m can
    # exceed 1, and a P < 0 would compare nothing
    _check_positive(f"max index P of the weight {k} identity", P,
                    max(1 - b_m, 0))
    prec = P + 2
    # the level-M family through every index m and -j the right sides
    # name, asked for first, so the obstruction family's and the
    # matcher's requests for it are covered and build nothing
    family = _basis_for(M, k, space, max(P - 1, -b_n - 1), prec)
    # each obstruction's g and the level-M element -j it multiplies
    dual_n = [(g, fm) for _, fm, g in
              _obstruction_family(N, M, k, space, prec)]
    # the level-N family starts at index -b_n; its traces are matched in
    # one pass, after the dual family is read: a weight >= 2 key is built
    # from the other side's key, so the order of requests decides the
    # sizes built
    traced = range(max(-b_n, -b_m), P)
    lhs = {}
    if traced:
        parts, target = _principal_parts(N, M, k, space, traced, prec)
        lhs = {m: QSeries.combination(
                   ((c, target.element(i)) for i, c in part), prec)
               for m, part in zip(traced, parts)}
    zero = QSeries.zero(prec)
    for m in reversed(range(-b_m, P)):
        rhs = QSeries.combination(
            [(1, family.element(m)),
             *((-g.coeff(m), e) for g, e in dual_n)], prec)
        if lhs.get(m, zero) != rhs:
            return False
    return True


def genfun_closed_form(N: int, k: int, P: int) -> bool:
    """Verify the closed form of the level-N grid generating function,
    (psi(tau) - psi(z)) sum_m f_{k,m}(z) p^m = f_{k,-v}(z) g_{2-k,v+1}(tau)
    with psi the Hauptmodul, modulo q^P against both expansions of the
    grid (Duke-Jenkins at level 1, Griffin-Jenkins-Molnar in genus zero)."""
    v, u = v_of(N, k), u_of(N, 2 - k)
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
    # b[m - lo] is b_m, read once, as an element is cut when it is read
    b = [family.element(m) for m in family.indices]
    lead = b[0]
    for r in range(lo - 1, P):
        terms = [(c, b[r - j - lo]) for j, c in psi.items() if r - j >= lo]
        if r >= lo:
            terms.append((-1, psi * b[r - lo]))
        if (QSeries.combination(terms, P)
                != QSeries.combination(((other.coeff(r), lead),), P)):
            return False
    return True


# -- empirical duality of traced grids ------------------------------------

def empirical_preserves(N: int, M: int, k: int, box: int = 12) -> bool | None:
    """Direct duality check of the traced families on a box-by-box grid of
    coefficients, a(m, n) + b(n, m) = 0; None when principal-part matching
    does not apply on both sides.  Each traced element is read only at the
    box's exponents, where it is compared (see `_traced_box`)."""
    _check_pair(N, M)
    _check_even(k)
    _check_positive("box", box)
    if M == N:
        return True
    if any(_trace_method(M, w, space)[0] != "principal_part"
           for w, space in ((k, INF), (2 - k, HAT))):
        return None
    return _box_residual(*_traced_box(N, M, k, box)) == 0


def _traced_box(N: int, M: int, k: int, box: int):
    """The box `empirical_preserves` compares, as two lists of int rows:
    a[i][j] = a(m_i, n_j) of the traced f_{k,m_i} and b[j][i] = b(n_j, m_i)
    of the traced g_{2-k,n_j}, for the first `box` f-indices m_i and
    g-indices n_j.  Each trace is read only at the other side's indices,
    as the combination its principal part names of the level-M elements
    there; basis elements and principal parts are integral, so all are
    exact ints."""
    v_n = v_of(N, k)
    u_n = u_of(N, 2 - k)
    f_indices = range(-v_n, -v_n + box)
    g_indices = range(-u_n, -u_n + box)
    # f is read below q^(box - u_n) and g below q^(box - v_n)
    need = max(-u_n, -v_n) + box
    parts, target = _principal_parts(N, M, k, INF, f_indices, need)
    a = _box_rows(target, parts, g_indices)
    parts, target = _principal_parts(N, M, 2 - k, HAT, g_indices, need)
    return a, _box_rows(target, parts, f_indices)
