"""The subfield oracle: a code over a subfield K of F, read again over F.

Take K inside F with theta_F restricting to theta_K, and the embedding phi of
K into F that sends the root z of K.modulus, K's polynomial basis element,
to the least root of K.modulus in F.  phi is a ring map that commutes with
theta, so it maps K[x; theta_K] into F[x; theta_F]: a tuple over K and its
image over F have gcld, parity polynomial and RREF basis that phi carries
one to the other, and the F-code is the K-code with its scalars extended to
F, which keeps k and d (Lidl and Niederreiter, *Finite Fields*, ch. 2).

The pairs set the exact scan at one field size against itself at another:
bit planes at e = 1 against e = 2, 3 and e = 2 against 4 and 4 against 8,
and the odd-p symbol engine of GF(3) against GF(9).  The ring and row
kernels of both fields run on the same tuple.
"""

import random

import numpy as np
import pytest

from skewqc.codes import build_code
from skewqc.distance import min_distance
from skewqc.errors import DEFAULT_BUDGET
from skewqc.factorization import modulus_right_divisors
from skewqc.field import make_field
from skewqc.skewpoly import SkewPoly

def embedding(K, F):
    """phi as a list: phi[a] is the image in F of the element a of K."""

    def evaluate(digits, r):  # a polynomial over GF(p), low digit first, at r
        acc = 0
        for c in reversed(digits):
            acc = F.add[F.mul[acc][r]][c]
        return acc

    root = min(r for r in range(F.q) if evaluate(K.modulus, r) == 0)
    phi = []
    for a in range(K.q):
        digits = [a // K.p**i % K.p for i in range(K.degree)]
        phi.append(evaluate(digits, root))
    return phi


def image(phi, F, f):
    return SkewPoly(F, [phi[c] for c in f.coeffs])


def random_tuples(K, s, rng):
    """Three seeded tuples of two random components of length s over K."""
    for _ in range(3):
        yield tuple(SkewPoly(K, [rng.randrange(K.q) for _ in range(s)]) for _ in range(2))


def divisor_tuples(K, s, rng):
    """Four seeded tuples (g, f*g) over K: g a right divisor of x^s - 1 of
    degree s - 2 or s - 3, f random.  Random tuples over GF(16) give k = s,
    and at s = 4 the 256^4 messages of their GF(256) codes are too many to
    scan."""
    for dg in (s - 2, s - 3, s - 2, s - 3):
        divisors = modulus_right_divisors(K, s, degree=dg)
        g = divisors[rng.randrange(len(divisors))]
        yield g, SkewPoly(K, [rng.randrange(K.q) for _ in range(s)]) * g


# (K, F, lengths s, tuples): K and F as make_field triples, each s a
# multiple of F.m
PAIRS = {
    "gf2-gf4": ((2, 1, 1), (2, 1, 2), (4, 6), random_tuples),
    "gf2-gf8": ((2, 1, 1), (2, 1, 3), (3, 6), random_tuples),
    "gf4-gf16": ((2, 1, 2), (2, 1, 4), (4, 8), random_tuples),
    "gf4id-gf16": ((2, 2, 1), (2, 2, 2), (2, 4, 6), random_tuples),
    "gf3-gf9": ((3, 1, 1), (3, 1, 2), (4, 6), random_tuples),
    "gf16-gf256": ((2, 2, 2), (2, 2, 4), (4, 8), divisor_tuples),
}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_embedding_is_a_ring_map_that_commutes_with_theta(name):
    K, F = (make_field(*key) for key in PAIRS[name][:2])
    phi = embedding(K, F)
    assert phi[0] == 0 and phi[1] == 1 and len(set(phi)) == K.q
    for a in range(K.q):
        assert F.theta(phi[a]) == phi[K.theta(a)]
        for b in range(K.q):
            assert phi[K.add[a][b]] == F.add[phi[a]][phi[b]]
            assert phi[K.mul[a][b]] == F.mul[phi[a]][phi[b]]


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_codes_agree_over_the_subfield_and_over_f(name):
    """Every tuple over K and its image over F give equal k, module_closed
    and pivots, g, h and generator matrices carried by phi, and, whenever
    the F-code's q^k messages fit DEFAULT_BUDGET, equal exact d."""
    K_key, F_key, lengths, tuples = PAIRS[name]
    K, F = make_field(*K_key), make_field(*F_key)
    phi = embedding(K, F)
    rng = random.Random(name)
    scanned = 0
    for s in lengths:
        for tup in tuples(K, s, rng):
            code_K = build_code(K, s, tup)
            code_F = build_code(F, s, tuple(image(phi, F, f) for f in tup))
            assert code_F.k == code_K.k
            assert code_F.module_closed == code_K.module_closed
            assert code_F.pivots == code_K.pivots
            assert code_F.g == image(phi, F, code_K.g)
            assert code_F.h == image(phi, F, code_K.h)
            assert np.array_equal(code_F.genmatrix, np.array(phi)[code_K.genmatrix])
            if F.q**code_F.k <= DEFAULT_BUDGET:
                rep_K, rep_F = min_distance(code_K), min_distance(code_F)
                assert rep_K.exact and rep_F.exact and rep_F.d == rep_K.d
                scanned += 1
    assert scanned >= 3
