#!/usr/bin/env python3
"""When does the trace preserve duality?

The classification is a pure comparison of maximal vanishing orders:
duality survives tr from N to M exactly when v_k(N) = v_k(M) and
u_{2-k}(N) = u_{2-k}(M).  That happens for k = 0 at every level, for
k = -2 when N is 2, 3 or 4, for k = -4 on the pair (2, 1), and trivially
for M = N.  Everywhere else an obstruction pair witnesses the failure.
"""

from gridforge import classify, obstructions, genfun_check
from gridforge.leveldata import ALL_LEVELS, GENUS_ZERO_LEVELS
from gridforge.traceops import genfun_closed_form

print("Preserved cells (N, M, k) for even k in [-8, 8], proper divisors:")
for N in GENUS_ZERO_LEVELS:
    for M in [m for m in ALL_LEVELS if N % m == 0 and m != N]:
        kept = [k for k in range(-8, 10, 2) if classify(N, M, k).preserved]
        if kept:
            print(f"  tr {N:2d} -> {M:2d}: k in {kept}")
print()

print("A broken case and its obstruction pair, weight -6 from level 2:")
ob = obstructions(2, 1, -6, 10)
for p in ob.pairs:
    print(f"  [{p.side}-side]  f_{p.f_weight},{p.f_index} (level {p.f_level})"
          f"  x  g_{p.g_weight},{p.g_index} (level {p.g_level})")
    print("    f =", p.f.truncate(3))
    print("    g =", p.g.truncate(5))
print()

print("The traced generating-function identities hold exactly on both")
print("sides of that grid (truncated double expansion through index 15):")
print("  weight-k side:    ", genfun_check(2, 1, -6, 15, side="k"))
print("  weight-(2-k) side:", genfun_check(2, 1, -6, 15, side="dual"))
print()

print("A preserved case has no obstruction pairs at all:")
print("  (2, 1, -4):", "empty" if obstructions(2, 1, -4, 10).is_empty
      else "nonempty")
print()

print("Level 4 has a closed-form grid generating function: the kernel")
print("times (f_0,1(tau) - f_0,1(z)) collapses to a single product")
print("f_k,-l(z) g_2-k,l+1(tau).  Verified coefficientwise:")
for k in (0, 2, 4):
    print(f"  k = {k}:", genfun_closed_form(4, k, 10))
