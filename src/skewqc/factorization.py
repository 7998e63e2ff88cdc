"""Factoring skew polynomials, specialized to small exhaustive regimes.

Because F[x; theta] is non-commutative, factorizations are one-sided and far
from unique: x^s - 1 typically splits into linear factors in many distinct
orders.  This module provides the divisor scan of x^s - 1 (with a work
budget checked up front), the depth-first search for every ordered
factorization into linear factors (``all_linear_factorizations``; an empty
list means f does not split), and checks tied to *central* polynomials
(those commuting with everything), for which left and right divisors
coincide and complementary factors commute.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .errors import DEFAULT_BUDGET, DEFAULT_OPEN_BUDGET, BudgetExceededError, as_index
from .field import FieldSpec
from .skewpoly import SkewPoly, right_divmod, x_pow_minus_one


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


def linear_right_roots(f: SkewPoly) -> List[int]:
    """All alpha such that (x - alpha) right-divides f."""
    F = f.field
    out = []
    for alpha in F.elements():
        lin = SkewPoly(F, (F.neg[alpha], 1))
        if right_divmod(f, lin)[1].is_zero:
            out.append(alpha)
    return out


def all_linear_factorizations(
    f: SkewPoly, budget: int = DEFAULT_OPEN_BUDGET
) -> List[List[SkewPoly]]:
    """Every ordered factorization of monic f into monic linear factors.

    Depth-first over right roots, alpha in element order: one right division
    of a node by x - alpha both decides the root (zero remainder) and gives
    the child node (the quotient).  ``budget`` bounds the number of explored
    nodes (distinct partial quotients), since the count can grow quickly and
    is only known by running the search (default DEFAULT_OPEN_BUDGET).
    """
    if f.is_zero or not f.is_monic:
        raise ValueError("argument must be monic and nonzero")
    F = f.field
    results: List[List[SkewPoly]] = []
    nodes = 0

    def descend(rest: SkewPoly, factors: List[SkewPoly]) -> None:
        # f = rest * (product of factors, in order)
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError("factorization tree too large", nodes, budget)
        if rest.degree == 0:
            results.append(factors)
            return
        for alpha in F.elements():
            lin = SkewPoly(F, (F.neg[alpha], 1))
            quotient, remainder = right_divmod(rest, lin)
            if remainder.is_zero:
                descend(quotient, [lin] + factors)

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
    budget: int = DEFAULT_BUDGET,
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

    The budget counts candidates examined, the unit of every guarded scan
    (default DEFAULT_BUDGET): a call is priced at the candidates it actually
    scans, q^e for each scanned degree e = min(d, s - d) when central (each
    e scanned once, also when both d and s - d are asked for) and e = d
    otherwise, and the budget is checked before any work starts.  Output is
    in ascending degree, lexicographic within a degree (x^0 coefficient
    varying fastest), on either path.
    """
    s = as_index("s", s)
    if s < 1:
        raise ValueError("s must be positive")
    degrees = range(s + 1) if degree is None else [as_index("degree", degree)]
    cost = _divisor_scan_cost(field, s, degrees)
    if cost > budget:
        raise BudgetExceededError("divisor scan too large", cost, budget)
    modulus = x_pow_minus_one(field, s)
    central = is_central(modulus)
    scanned: Dict[int, List[SkewPoly]] = {}
    out: List[SkewPoly] = []
    for dg in degrees:
        if dg < 0 or dg > s:
            continue
        if dg == 0:
            out.append(SkewPoly.one(field))
        elif dg == s:
            out.append(modulus)
        else:
            low = min(dg, s - dg) if central else dg
            if low not in scanned:
                scanned[low] = _scan_modulus_divisors(field, modulus, low)
            out.extend(scanned[low] if low == dg else _cofactor_divisors(modulus, scanned[low]))
    return out


def _divisor_scan_cost(field: FieldSpec, s: int, degrees: Iterable[int]) -> int:
    """Candidates that modulus_right_divisors examines for these degrees:
    q^d per degree d it scans, each degree once, where a central x^s - 1
    scans min(d, s - d) for each 0 < d < s and any other modulus d itself."""
    central = is_central(x_pow_minus_one(field, s))
    scans = {min(d, s - d) if central else d for d in degrees if 1 <= d < s}
    return sum(field.q**d for d in scans)


def _cofactor_divisors(modulus: SkewPoly, divisors: Sequence[SkewPoly]) -> List[SkewPoly]:
    """The monic right divisors h = modulus / g of a central modulus, one per
    monic right divisor g, each confirmed by the remainder check of a scan
    hit, in _monic_index order."""
    cofactors = [right_divmod(modulus, g)[0] for g in divisors]
    found = [h for h in cofactors if right_divmod(modulus, h)[1].is_zero]
    found.sort(key=lambda h: _monic_index(modulus.field.q, h))
    return found


def _monic_index(q: int, g: SkewPoly) -> int:
    """Rank of monic g in the scan order of its degree (x^0 varies fastest)."""
    return sum(c * q**j for j, c in enumerate(g.coeffs[:-1]))


def _scan_modulus_divisors(
    field: FieldSpec, modulus: SkewPoly, dg: int
) -> List[SkewPoly]:
    """Monic right divisors of modulus = x^s - 1 of degree 0 < dg < s, in
    _monic_index order, by the batched residue scan over all q^dg candidates."""
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
