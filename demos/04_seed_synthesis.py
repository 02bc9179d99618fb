#!/usr/bin/env python3
"""Seed certificates and their re-derivation.

Five seeds (levels 7, 10, 13 and 25) are stored as certificates; none
has a closed form here.  Each certificate is a short rational combination
of phi_d(ez), E4(dz), E6(dz) and Hauptmodul powers.  gridforge.seedsynth
re-derives them by exact Gaussian elimination over a spanning family:
holomorphic generators times Hauptmodul powers, their Serre derivatives,
and Hauptmodul-derivative products.  The monic element of maximal
valuation drops out, it equals the certificate, and duality validates it
end to end.
"""

from gridforge import build_grid, duality_residual, synthesize_seed
from gridforge.basis import level_form
from gridforge.leveldata import certificates
from gridforge.seedsynth import build_family, family_audit

print("The five certified seeds, each equal to its re-derivation:")
for (N, k), cert in sorted(certificates().items()):
    s = level_form(N, k, 20)
    same = s == synthesize_seed(N, k, 20)
    print(f"  level {N:2d}, weight {k}: {len(cert.terms):2d} terms, "
          f"{s.truncate(s.valuation() + 6)}  (re-derived: {same})")
print()

fam = build_family(10, 2, 3, 20)
print(f"The level-10 weight-2 family at pole bound 3 has "
      f"{len(fam.members)} members, e.g.:")
for label, series in fam.members[:4]:
    print(f"  {label:18s} {series.truncate(3)}")
audit = family_audit(10, 2, J=3, prec=20)
print(f"rank {audit['rank']}, maximal vanishing achieved "
      f"{audit['max_vanishing_achieved']}")
print()

print("Cross-validation: the synthesizer also reproduces every seed that")
print("does have a closed form, with that form excluded from the family:")
for N, k in [(5, 4), (3, 6), (13, 12)]:
    s = synthesize_seed(N, k, 20)
    print(f"  level {N:2d}, weight {k:2d}: {s.truncate(s.valuation() + 4)}")
print()

print("And the end-to-end oracle, exact duality at the certified")
print("weights (residual over a 12x12 coefficient box):")
for N, k in sorted(certificates()):
    r = duality_residual(build_grid(N, k, 12), 12, 12)
    print(f"  level {N:2d}, weight {k}: residual = {r}")
