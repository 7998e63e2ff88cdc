"""Factoring skew polynomials, specialized to small exhaustive regimes.

Because F[x; theta] is non-commutative, factorizations are one-sided and far
from unique: x^s - 1 typically splits into linear factors in many distinct
orders.  This module provides exhaustive right-divisor enumeration (with an
explicit work budget), linear-factor peeling, and checks tied to *central*
polynomials (those commuting with everything), for which left and right
divisors coincide and complementary factors commute.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from .errors import BudgetExceededError
from .field import FieldSpec
from .skewpoly import SkewPoly, right_divmod, x_pow_minus_one

DEFAULT_BUDGET = 2**20


def is_central(f: SkewPoly) -> bool:
    """True when f commutes with every element of the ring.

    The center consists of polynomials in x^m whose coefficients lie in the
    fixed subfield of theta; in particular x^s - 1 is central iff m | s.
    """
    F = f.field
    fixed = set(F.fixed_elements)
    for k, c in enumerate(f.coeffs):
        if c and (k % F.m != 0 or c not in fixed):
            return False
    return True


def monic_polys(field: FieldSpec, degree: int) -> Iterator[SkewPoly]:
    """All monic skew polynomials of the given degree, lexicographic order."""
    if degree < 0:
        return
    q = field.q
    total = q**degree
    for idx in range(total):
        coeffs, v = [], idx
        for _ in range(degree):
            coeffs.append(v % q)
            v //= q
        coeffs.append(1)
        yield SkewPoly(field, coeffs)


def right_divisors(
    f: SkewPoly, degree: Optional[int] = None, budget: int = DEFAULT_BUDGET
) -> List[SkewPoly]:
    """All monic right divisors of f (of one degree, or of every degree).

    The search is a plain scan over monic candidates, so the cost is q^degree
    divisions per degree; a BudgetExceededError is raised up front when the
    scan would be larger than ``budget``.
    """
    if f.is_zero:
        raise ValueError("every polynomial right-divides 0")
    q = f.field.q
    degrees = range(f.degree + 1) if degree is None else [degree]
    cost = sum(q**d for d in degrees if 0 <= d <= f.degree)
    if cost > budget:
        raise BudgetExceededError("right divisor scan too large", cost, budget)
    out = []
    for d in degrees:
        if not 0 <= d <= f.degree:
            continue
        for cand in monic_polys(f.field, d):
            if right_divmod(f, cand)[1].is_zero:
                out.append(cand)
    return out


def linear_right_roots(f: SkewPoly) -> List[int]:
    """All alpha such that (x - alpha) right-divides f."""
    F = f.field
    out = []
    for alpha in F.elements():
        lin = SkewPoly(F, (F.neg[alpha], 1))
        if right_divmod(f, lin)[1].is_zero:
            out.append(alpha)
    return out


def split_linear(f: SkewPoly) -> Optional[List[SkewPoly]]:
    """Greedily peel linear right factors; None if f does not fully split.

    Returns factors left-to-right, i.e. f = product(factors) up to the
    leading coefficient of f (the factors are monic).
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    F = f.field
    rest = f.monic_left()
    tail: List[SkewPoly] = []
    while rest.degree > 0:
        roots = linear_right_roots(rest)
        if not roots:
            return None
        lin = SkewPoly(F, (F.neg[roots[0]], 1))
        rest = right_divmod(rest, lin)[0]
        tail.append(lin)
    tail.reverse()
    return tail


def all_linear_factorizations(
    f: SkewPoly, budget: int = DEFAULT_BUDGET
) -> List[List[SkewPoly]]:
    """Every ordered factorization of monic f into monic linear factors.

    Depth-first over right roots; ``budget`` bounds the number of explored
    nodes (distinct partial quotients), since the count can grow quickly.
    """
    if f.is_zero or not f.is_monic:
        raise ValueError("argument must be monic and nonzero")
    F = f.field
    results: List[List[SkewPoly]] = []
    nodes = 0

    def descend(rest: SkewPoly, tail: List[SkewPoly]) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError("factorization tree too large", nodes, budget)
        if rest.degree == 0:
            results.append(list(reversed(tail)))
            return
        for alpha in linear_right_roots(rest):
            lin = SkewPoly(F, (F.neg[alpha], 1))
            tail.append(lin)
            descend(right_divmod(rest, lin)[0], tail)
            tail.pop()

    descend(f, [])
    return results


def verify_factorization(target: SkewPoly, factors: Sequence[SkewPoly]) -> bool:
    """True when the ordered product of factors equals target."""
    prod = SkewPoly.one(target.field)
    for p in factors:
        prod = prod * p
    return prod == target


def modulus_right_divisors(
    field: FieldSpec,
    s: int,
    degree: Optional[int] = None,
    budget: int = 2**26,
) -> List[SkewPoly]:
    """Monic right divisors of x^s - 1, found by batched remainder tracking.

    g right-divides x^s - 1 exactly when x^s = 1 mod g, so instead of one
    schoolbook division per candidate the scan keeps the residue of x^j
    modulo *every* monic candidate of the target degree at once (a q^degree
    by degree table) and advances j = 0..s-1 with vectorized table lookups.

    When x^s - 1 is central (m | s), a monic right divisor g has a monic
    cofactor h with g*h = h*g = x^s - 1, which is itself a right divisor,
    and g -> h is a bijection between degrees s - d and d.  So only degrees
    d <= s - d are scanned; every divisor of a higher degree d is the
    cofactor of one of degree s - d, found with one division and confirmed
    by the same remainder check as a scan hit.  When m does not divide s
    every degree is scanned directly.

    Each degree is priced at the candidates actually scanned,
    q^min(d, s - d) when central and q^d otherwise, and the budget is checked
    before any work starts.  Output order matches monic_polys (ascending
    degree, lexicographic) on either path.
    """
    if s < 1:
        raise ValueError("s must be positive")
    q = field.q
    degrees = range(s + 1) if degree is None else [degree]
    modulus = x_pow_minus_one(field, s)
    central = is_central(modulus)

    def scanned(d: int) -> int:
        return min(d, s - d) if central else d

    cost = sum(q ** scanned(d) for d in degrees if 1 <= d < s)
    if cost > budget:
        raise BudgetExceededError("divisor scan too large", cost, budget)
    out: List[SkewPoly] = []
    for dg in degrees:
        if dg < 0 or dg > s:
            continue
        if dg == 0:
            out.append(SkewPoly.one(field))
        elif dg == s:
            out.append(modulus)
        elif scanned(dg) < dg:
            cofactors = [
                right_divmod(modulus, g)[0]
                for g in _scan_modulus_divisors(field, modulus, s - dg)
            ]
            found = [h for h in cofactors if right_divmod(modulus, h)[1].is_zero]
            found.sort(key=lambda h: _monic_index(q, h))
            out.extend(found)
        else:
            out.extend(_scan_modulus_divisors(field, modulus, dg))
    return out


def _monic_index(q: int, g: SkewPoly) -> int:
    """Position of monic g among monic_polys(field, g.degree)."""
    return sum(int(c) * q**j for j, c in enumerate(g.coeffs[:-1]))


def _scan_modulus_divisors(
    field: FieldSpec, modulus: SkewPoly, dg: int
) -> List[SkewPoly]:
    """Monic right divisors of modulus = x^s - 1 of degree 0 < dg < s, in
    monic_polys order, by the batched residue scan over all q^dg candidates."""
    q, s = field.q, modulus.degree
    theta = field.np_theta[1 % field.m]
    np_sub, np_mul = field.np_sub, field.np_mul
    out: List[SkewPoly] = []
    total = q**dg
    chunk = min(total, 1 << 20)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cands = np.empty((idx.size, dg), dtype=np.uint8)
        v = idx.copy()
        for j in range(dg):
            cands[:, j] = v % q
            v //= q
        # residue of x^0 = 1 modulo each candidate
        res = np.zeros_like(cands)
        res[:, 0] = 1
        for _ in range(s):
            lead = theta[res[:, -1]]
            res[:, 1:] = theta[res[:, :-1]]
            res[:, 0] = 0
            res = np_sub[res, np_mul[lead[:, None], cands]]
        hits = (res[:, 0] == 1) & (res[:, 1:] == 0).all(axis=1)
        for i in np.flatnonzero(hits):
            g = SkewPoly(field, list(cands[i]) + [1])
            if right_divmod(modulus, g)[1].is_zero:
                out.append(g)
    return out
