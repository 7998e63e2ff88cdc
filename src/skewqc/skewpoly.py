"""Skew polynomials F[x; theta] over a small finite field.

Multiplication follows the twisted rule ``x * c = theta(c) * x``, i.e.

    (a x^i) * (b x^j) = a * theta^i(b) * x^(i+j)

so the ring is non-commutative whenever theta is non-trivial.  Coefficients
are int-encoded field elements, stored low-to-high with no trailing zeros as
one byte each (a field has at most 256 elements); the zero polynomial has no
coefficients and degree -1.  ``coeffs`` is a tuple view of the bytes, a tuple
of Python ints, and a polynomial hashes like it.  A degree-12 GF(4)
polynomial takes about 103 B, a degree-8 GF(9) one 99 B and a degree-24
product 114 B (tracemalloc, list slot included).

Every one-sided operation exists in two flavours:

* right division  ``g = q*f + r``   (drives gcrd / lclm)
* left division   ``g = f*q + r``   (drives gcld / lcrm)

``gcrd(f, g)`` returns Bezout multipliers with ``a*f + b*g = d`` (multipliers
act on the left); ``gcld`` mirrors this with ``f*a + g*b = d``.

One extended Euclid run, ``_euclid``, serves both sides: gcrd and lclm read
the last two rows of a right-division run, gcld and lcrm those of a
left-division run.  The row that reaches zero, ``u*f + v*g = 0``, gives the
least common multiple (Ore, 1933); lclm and lcrm return only that multiple,
made monic.

The arithmetic runs on plain coefficient lists through three kernels: one
product, ``_mul_acc`` (for ``*`` and both Euclid updates), and one reduction
loop per side, ``_right_reduce`` / ``_left_reduce`` (for the public division
and the Euclid loop of that side).  ``SkewPoly(field, coeffs)`` is the one
validating constructor: it takes any integer-like coefficients (numpy
integers included) and rejects floats and out-of-range values.  Results
computed here go through the trusted ``_make``.
"""

from __future__ import annotations

import operator
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .field import FieldSpec


class SkewPoly:
    """An element of F[x; theta]; immutable, hashable."""

    __slots__ = ("field", "_c")

    def __init__(self, field: FieldSpec, coeffs: Iterable[int] = ()):
        cs = list(map(operator.index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not 0 <= c < field.q:
                raise ValueError(f"coefficient {c} outside field of order {field.q}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_c", bytes(cs))

    def __setattr__(self, name, value):
        raise AttributeError("SkewPoly is immutable")

    def __reduce__(self):
        return SkewPoly, (self.field, self.coeffs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec) -> "SkewPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldSpec) -> "SkewPoly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: FieldSpec) -> "SkewPoly":
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field: FieldSpec, c: int, k: int) -> "SkewPoly":
        if k < 0:
            raise ValueError("negative exponent")
        return cls(field, (0,) * k + (c,))

    # -- basic queries ----------------------------------------------------

    @property
    def coeffs(self) -> Tuple[int, ...]:
        """The coefficients low-to-high as a tuple of Python ints."""
        return tuple(self._c)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def lead(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == 1

    def coeff(self, k: int) -> int:
        return self._c[k] if 0 <= k < len(self._c) else 0

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "SkewPoly") -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError("mixed-field arithmetic is not defined")

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        add = self.field.add
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add[out[i]][c]
        return _make(self.field, out)

    def __neg__(self) -> "SkewPoly":
        neg = self.field.neg
        return _make(self.field, [neg[c] for c in self._c])

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        return self + (-other)

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        a, b = self._c, other._c
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        _mul_acc(self.field, out, a, b, self.field.add)
        return _make(self.field, out)

    def scale_left(self, c: int) -> "SkewPoly":
        """c * f  (multiply every coefficient by c on the left)."""
        mul = self.field.mul[c]
        return _make(self.field, [mul[x] for x in self._c])

    def scale_right(self, c: int) -> "SkewPoly":
        """f * c  (coefficient i picks up theta^i(c))."""
        F = self.field
        mul, tp, m = F.mul, F.theta_pows, F.m
        return _make(F, [mul[x][tp[i % m][c]] for i, x in enumerate(self._c)])

    def monic_left(self) -> "SkewPoly":
        """The unique monic left-scalar multiple c * f."""
        if self.is_zero:
            return self
        return self.scale_left(self.field.inv[self.lead])

    def monic_right(self) -> "SkewPoly":
        """The unique monic right-scalar multiple f * c."""
        if self.is_zero:
            return self
        F = self.field
        c = F.theta(F.inv[self.lead], -self.degree)
        return self.scale_right(c)

    # -- dunder plumbing -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewPoly)
            and self._c == other._c
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)  # equal polynomials have equal coefficients

    def __repr__(self) -> str:
        from .notation import poly_to_terms

        return f"SkewPoly({poly_to_terms(self)})"


def _make(field: FieldSpec, cs: List[int]) -> SkewPoly:
    """The trusted constructor for results computed here: trims trailing
    zeros off the list ``cs`` of in-range ints, with no range check."""
    while cs and cs[-1] == 0:
        cs.pop()
    p = object.__new__(SkewPoly)
    object.__setattr__(p, "field", field)
    object.__setattr__(p, "_c", bytes(cs))
    return p


def _mul_acc(F: FieldSpec, out: List[int], a: Sequence[int], b: Sequence[int], op) -> None:
    """out[i+j] = op[out[i+j]][a_i * theta^i(b_j)] in place: ``op = F.add``
    adds the product a*b to out, ``op = F.sub`` subtracts it.  out must have
    at least len(a) + len(b) - 1 entries."""
    mul, tp, m = F.mul, F.theta_pows, F.m
    for i, ai in enumerate(a):
        if ai:
            trow = tp[i % m]
            mrow = mul[ai]
            for j, bj in enumerate(b):
                if bj:
                    k = i + j
                    out[k] = op[out[k]][mrow[trow[bj]]]


def x_pow_minus_one(field: FieldSpec, s: int) -> SkewPoly:
    """The modulus polynomial x^s - 1."""
    if s < 1:
        raise ValueError("s must be positive")
    coeffs = [field.neg[1]] + [0] * (s - 1) + [1]
    return SkewPoly(field, coeffs)


class ExtendedGcdResult(NamedTuple):
    gcd: SkewPoly
    cofactor_f: SkewPoly
    cofactor_g: SkewPoly


def _right_reduce(F: FieldSpec, r: List[int], f: Sequence[int]) -> List[int]:
    """Reduce r in place to its remainder on dividing by f on the right
    (r = q*f + remainder), trimmed; return q.  f is nonzero and trimmed."""
    mul, sub, inv, tp, m = F.mul, F.sub, F.inv, F.theta_pows, F.m
    df = len(f) - 1
    flead = f[-1]
    q = [0] * max(len(r) - df, 0)
    for top in range(len(r) - 1, df - 1, -1):
        if r[top]:
            k = top - df
            trow = tp[k % m]
            c = mul[r[top]][inv[trow[flead]]]
            q[k] = c
            crow = mul[c]
            for j in range(df):
                fj = f[j]
                if fj:
                    kj = k + j
                    r[kj] = sub[r[kj]][crow[trow[fj]]]
    del r[df:]
    while r and r[-1] == 0:
        r.pop()
    return q


def _left_reduce(F: FieldSpec, r: List[int], f: Sequence[int]) -> List[int]:
    """The mirror of _right_reduce: r = f*q + remainder."""
    mul, sub, inv, tp, m = F.mul, F.sub, F.inv, F.theta_pows, F.m
    df = len(f) - 1
    inv_lead = inv[f[-1]]
    tlead = tp[(-df) % m]
    q = [0] * max(len(r) - df, 0)
    for top in range(len(r) - 1, df - 1, -1):
        if r[top]:
            k = top - df
            c = tlead[mul[inv_lead][r[top]]]
            q[k] = c
            for j in range(df):
                fj = f[j]
                if fj:
                    kj = k + j
                    r[kj] = sub[r[kj]][mul[fj][tp[j % m][c]]]
    del r[df:]
    while r and r[-1] == 0:
        r.pop()
    return q


def _divmod(g: SkewPoly, f: SkewPoly, reduce) -> Tuple[SkewPoly, SkewPoly]:
    g._check(f)
    if f.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    F = g.field
    if g.degree < f.degree:
        return _make(F, []), g
    r = list(g._c)
    q = reduce(F, r, f._c)
    return _make(F, q), _make(F, r)


def right_divmod(g: SkewPoly, f: SkewPoly) -> Tuple[SkewPoly, SkewPoly]:
    """Quotient and remainder with g = q*f + r, deg r < deg f."""
    return _divmod(g, f, _right_reduce)


def left_divmod(g: SkewPoly, f: SkewPoly) -> Tuple[SkewPoly, SkewPoly]:
    """Quotient and remainder with g = f*q + r, deg r < deg f."""
    return _divmod(g, f, _left_reduce)


def _euclid(
    f: SkewPoly, g: SkewPoly, right: bool, cofactors: int = 2
) -> Tuple[SkewPoly, ...]:
    """Extended Euclid on coefficient lists, with right division when
    ``right`` and left division otherwise: one reduction loop per side, and
    each row update x0 -= q*x1 (right) or x1*q (left) in place.

    Returns the last two rows (r0, a0, b0, a1, b1).  On the right side
    a0*f + b0*g = r0, a gcrd up to a unit, and a1*f + b1*g = 0, a common
    left multiple of least degree; on the left side f*a0 + g*b0 = r0, a gcld
    up to a unit, and f*a1 + g*b1 = 0.  ``cofactors`` is how many of the
    cofactor sequences a, b are updated: 2 for both, 1 for a alone (lclm and
    lcrm read only a1), 0 for callers that keep only r0; the entries of a
    sequence not updated are meaningless."""
    f._check(g)
    F = f.field
    reduce, sub = (_right_reduce if right else _left_reduce), F.sub
    r0, a0, b0 = list(f._c), [1], []
    r1, a1, b1 = list(g._c), [], [1]
    while r1:
        q = reduce(F, r0, r1)  # r0 becomes the remainder r2
        for x0, x1 in ((a0, a1), (b0, b1))[:cofactors]:
            if x1:
                x0 += [0] * (len(q) + len(x1) - 1 - len(x0))
                if right:
                    _mul_acc(F, x0, q, x1, sub)
                else:
                    _mul_acc(F, x0, x1, q, sub)
        r0, a0, b0, r1, a1, b1 = r1, a1, b1, r0, a0, b0
    return _make(F, r0), _make(F, a0), _make(F, b0), _make(F, a1), _make(F, b1)


def gcrd(f: SkewPoly, g: SkewPoly) -> ExtendedGcdResult:
    """Monic greatest common right divisor d with a*f + b*g = d."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcrd(0, 0) is undefined")
    r0, a0, b0, _, _ = _euclid(f, g, True)
    c = f.field.inv[r0.lead]
    return ExtendedGcdResult(r0.scale_left(c), a0.scale_left(c), b0.scale_left(c))


def gcld(f: SkewPoly, g: SkewPoly) -> ExtendedGcdResult:
    """Monic greatest common left divisor d with f*a + g*b = d."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcld(0, 0) is undefined")
    F = f.field
    r0, a0, b0, _, _ = _euclid(f, g, False)
    c = F.theta(F.inv[r0.lead], -r0.degree)
    return ExtendedGcdResult(r0.scale_right(c), a0.scale_right(c), b0.scale_right(c))


def gcld_many(polys: Iterable[SkewPoly]) -> SkewPoly:
    """Monic gcld of a sequence (ignoring zero entries); runs Euclid without
    the Bezout cofactors, which it does not return."""
    acc: Optional[SkewPoly] = None
    for p in polys:
        if p.is_zero:
            continue
        acc = p if acc is None else _euclid(acc, p, False, cofactors=0)[0]
        if acc.degree == 0:
            break
    if acc is None:
        raise ValueError("gcld of all-zero sequence is undefined")
    return acc.monic_right()


def lclm(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic least common left multiple m = u*f = v*g of minimal degree."""
    if f.is_zero or g.is_zero:
        raise ValueError("lclm requires nonzero arguments")
    u = _euclid(f, g, True, cofactors=1)[3]
    return (u * f).monic_left()


def lcrm(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic least common right multiple m = f*u = g*v of minimal degree."""
    if f.is_zero or g.is_zero:
        raise ValueError("lcrm requires nonzero arguments")
    u = _euclid(f, g, False, cofactors=1)[3]
    return (f * u).monic_right()
