"""Similarity of skew polynomials.

Monic a and b of equal degree are *right similar* when some u with
gcld(u, b) = 1 makes u*a a least common right multiple of u and b; because
deg a = deg b, that reduces to the decidable test

    gcld(u, b) = 1   and   b left-divides u*a

with u searched over all nonzero residues of degree < deg b (equality with
the lcrm then holds up to a unit).  Similar polynomials present the same
quotient module, which is why parity-check polynomials of equal codes are
similar without being equal.

The mirror ("left") orientation swaps the roles: gcrd(u, b) = 1 and
b right-divides a*u.  Both decide the same relation; the module exposes the
two sides so the equivalence can itself be exercised in tests.  A result
carries its status, the witness u itself (None unless similar) and the
number of candidates tried.

For monic linear polynomials there is a closed form: x - alpha and x - beta
are similar iff alpha and beta have the same norm (``norm_to_fixed``) down
to the fixed subfield, so over GF(4) all x - alpha with alpha != 0 are
pairwise similar.  The closed form is the cross-check of the witness search
in ``tests/oracles.py``; ``are_similar`` is the one decision procedure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import DEFAULT_OPEN_BUDGET
from .field import FieldSpec
from .skewpoly import SkewPoly, _euclid, left_divmod, right_divmod


@dataclass(frozen=True)
class SimilarityResult:
    status: str  # "similar" | "dissimilar" | "unknown"
    witness: Optional[SkewPoly]  # the u found, on the side asked for
    checked: int

    def __bool__(self) -> bool:
        return self.status == "similar"


def _check_right(a: SkewPoly, b: SkewPoly, u: SkewPoly) -> bool:
    return (
        len(_euclid(a.field, u._c, b._c, False, cofactors=0)[0]) == 1
        and left_divmod(u * a, b)[1].is_zero
    )


def _check_left(a: SkewPoly, b: SkewPoly, u: SkewPoly) -> bool:
    return (
        len(_euclid(a.field, u._c, b._c, True, cofactors=0)[0]) == 1
        and right_divmod(a * u, b)[1].is_zero
    )


def are_similar(
    a: SkewPoly,
    b: SkewPoly,
    side: str = "right",
    budget: int = DEFAULT_OPEN_BUDGET,
) -> SimilarityResult:
    """Decide similarity of monic nonzero a and b by witness search.

    Completing the scan without a witness proves dissimilarity; once
    ``budget`` witnesses have been tried without success the result is
    "unknown" instead of a guess.
    """
    if a.is_zero or b.is_zero or not (a.is_monic and b.is_monic):
        raise ValueError("similarity is defined for monic nonzero polynomials")
    if side not in ("right", "left"):
        raise ValueError(f"unknown side {side!r}")
    a._check(b)
    check = _check_right if side == "right" else _check_left
    if a.degree != b.degree:
        return SimilarityResult("dissimilar", None, 0)
    if a.degree == 0:
        return SimilarityResult("similar", SkewPoly.one(a.field), 0)
    q = a.field.q
    checked = 0
    # every nonzero u of degree < deg b, the x^0 coefficient varying fastest
    digits = itertools.product(range(q), repeat=b.degree)
    for ds in itertools.islice(digits, 1, None):
        if checked >= budget:
            return SimilarityResult("unknown", None, checked)
        checked += 1
        u = SkewPoly(a.field, ds[::-1])
        if check(a, b, u):
            return SimilarityResult("similar", u, checked)
    assert checked == q**b.degree - 1
    return SimilarityResult("dissimilar", None, checked)


def norm_to_fixed(field: FieldSpec, alpha: int) -> int:
    """Product of theta^j(alpha) over j = 0..m-1; lands in the fixed field."""
    field._check_element(alpha)
    out = 1
    for j in range(field.m):
        out = field.mul[out][field.theta_pows[j][alpha]]
    return out
