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
are similar iff alpha/beta is a ratio c*theta(c)^-1, i.e. iff alpha and beta
have the same norm down to the fixed subfield.  Over GF(4) every such ratio
is attainable, so all x - alpha with alpha != 0 are pairwise similar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DEFAULT_OPEN_BUDGET
from .field import FieldSpec
from .skewpoly import (
    SkewPoly,
    gcld,
    gcrd,
    left_divmod,
    right_divmod,
)


@dataclass(frozen=True)
class SimilarityResult:
    status: str  # "similar" | "dissimilar" | "unknown"
    witness: Optional[SkewPoly]  # the u found, on the side asked for
    checked: int

    def __bool__(self) -> bool:
        return self.status == "similar"


def _candidates(field: FieldSpec, max_degree: int):
    """All nonzero polynomials of degree < max_degree, by integer encoding."""
    q = field.q
    for idx in range(1, q**max_degree):
        coeffs, v = [], idx
        while v:
            coeffs.append(v % q)
            v //= q
        yield SkewPoly(field, coeffs)


def _check_right(a: SkewPoly, b: SkewPoly, u: SkewPoly) -> bool:
    return (
        gcld(u, b).gcd.degree == 0
        and left_divmod(u * a, b)[1].is_zero
    )


def _check_left(a: SkewPoly, b: SkewPoly, u: SkewPoly) -> bool:
    return (
        gcrd(u, b).gcd.degree == 0
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
    check = _check_right if side == "right" else _check_left
    if a.degree != b.degree:
        return SimilarityResult("dissimilar", None, 0)
    if a.degree == 0:
        return SimilarityResult("similar", SkewPoly.one(a.field), 0)
    q = a.field.q
    space = q**b.degree - 1
    checked = 0
    for u in _candidates(a.field, b.degree):
        if checked >= budget:
            return SimilarityResult("unknown", None, checked)
        checked += 1
        if check(a, b, u):
            return SimilarityResult("similar", u, checked)
    assert checked == space
    return SimilarityResult("dissimilar", None, checked)


def norm_to_fixed(field: FieldSpec, alpha: int) -> int:
    """Product of theta^j(alpha) over j = 0..m-1; lands in the fixed field."""
    out = 1
    for j in range(field.m):
        out = field.mul[out][field.theta_pows[j][alpha]]
    return out


def linear_similar(field: FieldSpec, alpha: int, beta: int) -> bool:
    """Fast path: x - alpha similar to x - beta, decided by norms.

    The ratio alpha/beta must lie in {c * theta(c)^-1 : c in F*}, which is
    exactly the kernel of the norm map, so the test is norm equality.
    """
    if beta == 0:
        raise ValueError("beta must be nonzero")
    return norm_to_fixed(field, alpha) == norm_to_fixed(field, beta)
