"""Similarity of twisted polynomials: the equivalence behind equal codes.

Two monic polynomials a and b are similar when some witness u with
gcld(u, b) = 1 satisfies u*a = lcrm[u, b].  For linear polynomials x - c the
whole question collapses to a norm computation, which makes the classes easy
to see; for codes the relation matters because equal codeword sets force
similar parity-check polynomials.
"""

import itertools

from skewqc.codes import build_code
from skewqc.field import gf4, make_field
from skewqc.notation import poly_to_terms
from skewqc.similarity import are_similar, norm_to_fixed
from skewqc.skewpoly import SkewPoly

F = gf4()
A, A2 = 2, 3


def x_minus(field, c):
    return SkewPoly(field, [field.sub[0][c], 1])


print("== norms over GF(4) ==")
for c in range(4):
    print(f"  norm({F.tokens[c]}) = {F.tokens[norm_to_fixed(F, c)]}")
print("every nonzero element has norm 1, so all of x-1, x-a, x-a^2 are similar:")
for c1, c2 in itertools.combinations((1, A, A2), 2):
    result = are_similar(x_minus(F, c1), x_minus(F, c2))
    print(f"  {poly_to_terms(x_minus(F, c1))} ~ {poly_to_terms(x_minus(F, c2))}: "
          f"{result.status}, witness u = {poly_to_terms(result.witness)}")

print()
print("== GF(9) splits into two classes ==")
F9 = make_field(3, 1, 2)
classes = {}
for c in range(1, 9):
    classes.setdefault(norm_to_fixed(F9, c), []).append(c)
for norm, members in sorted(classes.items()):
    print(f"  norm {F9.tokens[norm]}: x - c for c in",
          "{" + ", ".join(F9.tokens[c] for c in members) + "}")
same = are_similar(x_minus(F9, classes[1][0]), x_minus(F9, classes[1][1]))
cross = are_similar(x_minus(F9, classes[1][0]), x_minus(F9, classes[2][0]))
print("within a class:", same.status, "  across classes:", cross.status)

print()
print("== equal codes have similar parity checks, not conversely ==")
c1 = build_code(F, 2, (x_minus(F, 1),))
c2 = build_code(F, 2, (x_minus(F, A2),))
words = lambda code: {tuple(int(v) for v in code.encode([u])) for u in range(4)}
print("codes from x - 1 and x - a^2, both", c1.params())
print("parity checks", poly_to_terms(c1.h), "and", poly_to_terms(c2.h),
      "are", are_similar(c1.h, c2.h).status)
print("yet the codeword sets differ:", words(c1) != words(c2))
print("(similarity of parity checks is the coarser relation: equal codes")
print(" always have similar parity checks, but not the other way around)")
