"""Cross-check oracles for the ring layer: the least common left multiple and
both one-sided divisions recast as dense linear systems over F, the extended
Euclid runs written with SkewPoly arithmetic, the plain right-divisor scan
that tries every monic candidate with a schoolbook division, and the norm
criterion for similarity of linear polynomials.

The linear systems share no code with the schoolbook division loop or the
extended Euclid rows in ``skewqc.skewpoly``, the plain scan shares none with
the batched residue scan of ``modulus_right_divisors``, and the norm
criterion ``linear_similar`` shares none with the witness search of
``are_similar``, so agreement between each pair is evidence for both.  The
object-level Euclid runs step through public divisions and operators, one
new SkewPoly per step, so they check the bookkeeping of ``_euclid`` on
either side (row sizing and slots, in-place updates, factor order); the
kernels underneath are checked by the linear systems.

``reference_build`` is the code construction that ranks all s shift images
and then row-reduces their whole span; ``CodeStructure`` reduces only the
first k images and tests the rest for membership, so agreement checks the
R/R*h' basis argument it relies on.  Every rank and row reduction here is the
list elimination ``linalg._rref_lists``, which shares no code with the
packed rows that ``RowSpace`` reduces in characteristic 2.
``polys_to_blocks`` lays out component polynomials as a block-layout vector
from their ``coeffs``, sharing no code with the byte rows of a build;
``blocks_to_polys`` reads a codeword back as its component polynomials, and
``codeword_set`` lists every codeword of a small code from one vectorized
product over all q^k messages.  Imported by ``test_skewpoly.py``,
``test_factorization.py``, ``test_codes.py``, ``test_linalg.py``,
``test_similarity.py`` and ``test_acceptance.py``.
"""

from typing import FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from skewqc.codes import CodeSpec, CodeStructure, skew_shift
from skewqc.errors import ConsistencyError
from skewqc.field import FieldSpec
from skewqc.linalg import _rref_lists as rref
from skewqc.similarity import norm_to_fixed
from skewqc.skewpoly import (
    SkewPoly,
    gcld_many,
    gcrd,
    left_divmod,
    right_divmod,
    x_pow_minus_one,
)


def monic_polys(field: FieldSpec, degree: int) -> Iterator[SkewPoly]:
    """All monic skew polynomials of the given degree, lexicographic order
    (the x^0 coefficient varies fastest)."""
    if degree < 0:
        return
    q = field.q
    for idx in range(q**degree):
        coeffs, v = [], idx
        for _ in range(degree):
            coeffs.append(v % q)
            v //= q
        coeffs.append(1)
        yield SkewPoly(field, coeffs)


def right_divisors(f: SkewPoly, degree: Optional[int] = None) -> List[SkewPoly]:
    """All monic right divisors of f (of one degree, or of every degree), by
    one schoolbook division per monic candidate: q^degree per degree."""
    if f.is_zero:
        raise ValueError("every polynomial right-divides 0")
    degrees = range(f.degree + 1) if degree is None else [degree]
    return [
        cand
        for d in degrees
        if 0 <= d <= f.degree
        for cand in monic_polys(f.field, d)
        if right_divmod(f, cand)[1].is_zero
    ]


def linear_similar(field: FieldSpec, alpha: int, beta: int) -> bool:
    """x - alpha similar to x - beta, decided by norms.

    The ratio alpha/beta must lie in {c * theta(c)^-1 : c in F*}, which is
    exactly the kernel of the norm map, so the test is norm equality.
    """
    if beta == 0:
        raise ValueError("beta must be nonzero")
    return norm_to_fixed(field, alpha) == norm_to_fixed(field, beta)


def solve(
    field: FieldSpec, rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Optional[List[int]]:
    """A particular solution of M x = rhs (free variables set to 0), or None."""
    if len(rows) != len(rhs):
        raise ValueError("matrix/vector size mismatch")
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    mat, pivots = rref(field, aug)
    if pivots and pivots[-1] == ncols:
        return None
    x = [0] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = mat[i][ncols]
    return x


def lclm_linalg(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic least common left multiple, built from a linear system.

    Unknown coefficients of cofactors u, v with u*f + v*g = 0 are solved
    for at the degree forced by deg f + deg g - deg gcrd(f, g).
    """
    if f.is_zero or g.is_zero:
        raise ValueError("lclm requires nonzero arguments")
    F = f.field
    d = gcrd(f, g).gcd.degree
    target = f.degree + g.degree - d
    du = target - f.degree  # deg u
    dv = target - g.degree  # deg v
    # unknowns: u_0..u_du, v_0..v_dv; one equation per coefficient 0..target,
    # with the x^target coefficient pinned by making u monic of degree du.
    ncols = (du + 1) + (dv + 1)
    rows = []
    rhs = []
    tp, m = F.theta_pows, F.m
    for k in range(target + 1):
        row = [0] * ncols
        for i in range(du + 1):
            cf = f.coeff(k - i)
            if cf:
                row[i] = tp[i % m][cf]
        for j in range(dv + 1):
            cg = g.coeff(k - j)
            if cg:
                row[du + 1 + j] = tp[j % m][cg]
        rows.append(row)
        rhs.append(0)
    # pin u_du = 1: move its column to the right-hand side
    pin = du
    for k in range(target + 1):
        if rows[k][pin]:
            rhs[k] = F.neg[rows[k][pin]]
        rows[k] = rows[k][:pin] + rows[k][pin + 1 :]
    sol = solve(F, rows, rhs)
    if sol is None:
        raise RuntimeError("least common multiple system is inconsistent")
    u = SkewPoly(F, list(sol[:du]) + [1])
    mpoly = u * f
    c = F.inv[mpoly.lead]
    return mpoly.scale_left(c)


def right_divmod_linalg(g: SkewPoly, f: SkewPoly) -> Tuple[SkewPoly, SkewPoly]:
    """Right division g = q*f + r recast as a dense linear solve."""
    g._check(f)
    if f.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    F = g.field
    df, dg = f.degree, g.degree
    if dg < df:
        return SkewPoly.zero(F), g
    dq = dg - df
    # unknowns: q_0..q_dq then r_0..r_{df-1}
    ncols = dq + 1 + df
    rows = []
    rhs = []
    tp, m = F.theta_pows, F.m
    for n in range(dg + 1):
        row = [0] * ncols
        for j in range(dq + 1):
            u = n - j
            if 0 <= u <= df:
                cf = f.coeffs[u]
                if cf:
                    row[j] = tp[j % m][cf]
        if n < df:
            row[dq + 1 + n] = 1
        rows.append(row)
        rhs.append(g.coeff(n))
    sol = solve(F, rows, rhs)
    if sol is None:
        raise RuntimeError("division system is inconsistent")
    return SkewPoly(F, sol[: dq + 1]), SkewPoly(F, sol[dq + 1 :])


def left_divmod_linalg(g: SkewPoly, f: SkewPoly) -> Tuple[SkewPoly, SkewPoly]:
    """Left division g = f*q + r as a dense linear solve.

    Coefficient n of f*q + r reads sum_j f_j theta^j(q_{n-j}) + r_n; applying
    theta^{-n} to equation n turns every twisted unknown theta^{j-n}(q_i)
    into the single substitution q'_i = theta^{-i}(q_i), giving an ordinary
    linear system over F.
    """
    g._check(f)
    if f.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    F = g.field
    df, dg = f.degree, g.degree
    if dg < df:
        return SkewPoly.zero(F), g
    dq = dg - df
    ncols = dq + 1 + df
    rows = []
    rhs = []
    tp, m = F.theta_pows, F.m
    for n in range(dg + 1):
        tn = tp[(-n) % m]
        row = [0] * ncols
        for i in range(dq + 1):
            u = n - i
            if 0 <= u <= df:
                cf = f.coeffs[u]
                if cf:
                    row[i] = tn[cf]
        if n < df:
            row[dq + 1 + n] = 1
        rows.append(row)
        rhs.append(tn[g.coeff(n)])
    sol = solve(F, rows, rhs)
    if sol is None:
        raise RuntimeError("division system is inconsistent")
    qc = [tp[i % m][sol[i]] for i in range(dq + 1)]
    rc = [tp[n % m][sol[dq + 1 + n]] for n in range(df)]
    return SkewPoly(F, qc), SkewPoly(F, rc)


def right_euclid_reference(f: SkewPoly, g: SkewPoly) -> Tuple[SkewPoly, ...]:
    """Extended Euclid with right division, one SkewPoly per step:
    (r0, a0, b0, a1, b1) with a0*f + b0*g = r0 and a1*f + b1*g = 0."""
    f._check(g)
    one, zero = SkewPoly.one(f.field), SkewPoly.zero(f.field)
    r0, a0, b0 = f, one, zero
    r1, a1, b1 = g, zero, one
    while not r1.is_zero:
        q, r2 = right_divmod(r0, r1)
        r0, a0, b0, r1, a1, b1 = r1, a1, b1, r2, a0 - q * a1, b0 - q * b1
    return r0, a0, b0, a1, b1


def left_euclid_reference(f: SkewPoly, g: SkewPoly) -> Tuple[SkewPoly, ...]:
    """The mirror of right_euclid_reference with left division:
    f*a0 + g*b0 = r0 and f*a1 + g*b1 = 0."""
    f._check(g)
    one, zero = SkewPoly.one(f.field), SkewPoly.zero(f.field)
    r0, a0, b0 = f, one, zero
    r1, a1, b1 = g, zero, one
    while not r1.is_zero:
        q, r2 = left_divmod(r0, r1)
        r0, a0, b0, r1, a1, b1 = r1, a1, b1, r2, a0 - a1 * q, b0 - b1 * q
    return r0, a0, b0, a1, b1


def rank(field: FieldSpec, rows: Sequence[Sequence[int]]) -> int:
    return len(rref(field, rows)[1])


class ReferenceBuild(NamedTuple):
    g: SkewPoly
    h: SkewPoly
    k: int
    pivots: List[int]
    genmatrix: np.ndarray
    module_closed: bool


def reference_build(spec: CodeSpec, generator: Optional[SkewPoly] = None) -> ReferenceBuild:
    """The code construction of ``CodeStructure`` by ranks of whole spans.

    The module build (no ``generator``) takes g = gcld(f_1, ..., f_l,
    x^s - 1), requires the rank of all s shift images to be k = s - deg g and
    row-reduces all of them.  The explicit-generator build row-reduces the
    first k images, requires them to be independent, and is closed when all
    s images have rank k.  Refuses what ``CodeStructure`` refuses, with the
    same exception types."""
    F, s = spec.field, spec.s
    modulus = x_pow_minus_one(F, s)
    if generator is None:
        g = gcld_many(list(spec.generators) + [modulus])
    else:
        if generator.field != F:
            raise ValueError("generator over the wrong field")
        if generator.is_zero or generator.degree >= s:
            raise ValueError("generator must be nonzero of degree < s")
        g = generator.monic_left()
    h, r = left_divmod(modulus, g)
    if not r.is_zero or h * g != modulus:
        raise ConsistencyError("generator polynomial does not divide x^s - 1")
    k = s - g.degree
    row = polys_to_blocks(spec, spec.generators)
    rows = []
    for _ in range(s):
        rows.append(row)
        row = skew_shift(F, s, row)
    full_rank = rank(F, rows)
    if generator is None:
        if full_rank != k:
            raise ConsistencyError(f"row-space rank {full_rank} != s - deg g = {k}")
        reduced, pivots = rref(F, rows)
    else:
        reduced, pivots = rref(F, rows[:k])
        if len(pivots) != k:
            raise ConsistencyError(f"first {k} shift images have rank {len(pivots)}")
    genmatrix = np.array(reduced[:k], dtype=np.uint8).reshape(k, spec.n)
    return ReferenceBuild(g, h, k, pivots, genmatrix, full_rank == k)


def polys_to_blocks(spec: CodeSpec, polys: Sequence[SkewPoly]) -> List[int]:
    """The block-layout vector of l component polynomials of degree < s,
    written from their ``coeffs``."""
    s = spec.s
    if any(f.degree >= s for f in polys):
        raise ValueError("component degree exceeds s - 1")
    return [c for f in polys for c in f.coeffs + (0,) * (s - 1 - f.degree)]


def blocks_to_polys(spec: CodeSpec, vec: Sequence[int]) -> List[SkewPoly]:
    """Read a block-layout vector back as its l component polynomials."""
    s = spec.s
    if len(vec) != spec.n:
        raise ValueError("vector length mismatch")
    return [SkewPoly(spec.field, vec[b * s : (b + 1) * s]) for b in range(spec.l)]


def codeword_set(code: CodeStructure) -> FrozenSet[Tuple[int, ...]]:
    """Every codeword as a tuple of ints: message idx has digit i equal to
    (idx // q^i) % q, and its codeword is the sum of digit_i * row_i."""
    F, k = code.spec.field, code.k
    idx = np.arange(F.q**k)
    words = np.zeros((idx.size, code.n), dtype=np.uint8)
    for i, row in enumerate(code.genmatrix):
        digits = (idx // F.q**i) % F.q
        words = F.np_add[words, F.np_mul[digits[:, None], row[None, :]]]
    return frozenset(map(tuple, words.tolist()))
