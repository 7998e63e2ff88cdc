"""Factoring x^s - 1 in the twisted ring: central, yet wildly non-unique.

Over GF(4) with the squaring automorphism, x^s - 1 sits in the center of the
ring exactly when s is even (the automorphism has order 2).  Once central it
admits many genuinely different factorizations into monic linear factors --
and for some s it admits none at all.
"""

from skewqc.factorization import (
    all_linear_factorizations,
    is_central,
    linear_right_roots,
    modulus_right_divisors,
)
from skewqc.field import gf4
from skewqc.notation import poly_to_terms
from skewqc.skewpoly import x_pow_minus_one

F = gf4()

print("== centrality ==")
for s in range(2, 9):
    tag = "central" if is_central(x_pow_minus_one(F, s)) else "not central"
    print(f"x^{s} - 1: {tag}")

print()
print("== x^2 - 1 factors two different ways ==")
for factors in all_linear_factorizations(x_pow_minus_one(F, 2)):
    print("  " + " * ".join(f"({poly_to_terms(f)})" for f in factors))

print()
print("== x^4 - 1 has 15 complete linear factorizations ==")
factorizations = all_linear_factorizations(x_pow_minus_one(F, 4))
print("count:", len(factorizations))
for factors in factorizations[:4]:
    print("  " + " * ".join(f"({poly_to_terms(f)})" for f in factors))
print("  ...")

print()
print("== and x^6 - 1 has none ==")
x6 = x_pow_minus_one(F, 6)
roots = linear_right_roots(x6)
print("linear right factors exist (roots:",
      ", ".join(F.tokens[c] for c in roots) + "),")
print("but no chain of them completes:", all_linear_factorizations(x6))

print()
print("== counting right divisors of x^20 - 1 by degree ==")
for degree in (1, 2, 3, 9, 10):
    divisors = modulus_right_divisors(F, 20, degree)
    print(f"  degree {degree:2d}: {len(divisors)} monic right divisors")
print("(each one is the generator polynomial of a block-length-20 code;")
print(" the scan is vectorized and degrees d > 10 come out as cofactors of")
print(" degree 20 - d, so the cost grows as 4^min(d, 20 - d))")
