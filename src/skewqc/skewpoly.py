"""Skew polynomials F[x; theta] over a small finite field.

Multiplication follows the twisted rule ``x * c = theta(c) * x``, i.e.

    (a x^i) * (b x^j) = a * theta^i(b) * x^(i+j)

so the ring is non-commutative whenever theta is non-trivial.  Coefficients
are stored low-to-high as a tuple of int-encoded field elements with no
trailing zeros; the zero polynomial is the empty tuple and has degree -1.

Every one-sided operation exists in two flavours:

* right division  ``g = q*f + r``   (drives gcrd / lclm)
* left division   ``g = f*q + r``   (drives gcld / lcrm)

``gcrd(f, g)`` returns Bezout multipliers with ``a*f + b*g = d`` (multipliers
act on the left); ``gcld`` mirrors this with ``f*a + g*b = d``.

The extended Euclid algorithm runs in one place per side: gcrd and lclm read
the last two rows of one right-division run (``_right_euclid``), gcld and
lcrm those of one left-division run (``_left_euclid``).  The row that
reaches zero, ``u*f + v*g = 0``, gives the least common multiple (Ore, 1933).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Tuple

from .field import FieldSpec


class SkewPoly:
    """An element of F[x; theta]; immutable, hashable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not 0 <= c < field.q:
                raise ValueError(f"coefficient {c} outside field of order {field.q}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("SkewPoly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field: FieldSpec) -> "SkewPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: FieldSpec) -> "SkewPoly":
        return cls(field, (1,))

    @classmethod
    def constant(cls, field: FieldSpec, c: int) -> "SkewPoly":
        return cls(field, (c,))

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
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "SkewPoly") -> None:
        if self.field != other.field:
            raise ValueError("mixed-field arithmetic is not defined")

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        add = self.field.add
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add[out[i]][c]
        return SkewPoly(self.field, out)

    def __neg__(self) -> "SkewPoly":
        neg = self.field.neg
        return SkewPoly(self.field, [neg[c] for c in self.coeffs])

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        return self + (-other)

    def __mul__(self, other: "SkewPoly") -> "SkewPoly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return SkewPoly.zero(self.field)
        F = self.field
        add, mul, tp, m = F.add, F.mul, F.theta_pows, F.m
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                trow = tp[i % m]
                mrow = mul[ai]
                for j, bj in enumerate(b):
                    if bj:
                        k = i + j
                        out[k] = add[out[k]][mrow[trow[bj]]]
        return SkewPoly(self.field, out)

    def __pow__(self, n: int) -> "SkewPoly":
        if n < 0:
            raise ValueError("negative power of a skew polynomial")
        out = SkewPoly.one(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale_left(self, c: int) -> "SkewPoly":
        """c * f  (multiply every coefficient by c on the left)."""
        mul = self.field.mul[c]
        return SkewPoly(self.field, [mul[x] for x in self.coeffs])

    def scale_right(self, c: int) -> "SkewPoly":
        """f * c  (coefficient i picks up theta^i(c))."""
        F = self.field
        mul, tp, m = F.mul, F.theta_pows, F.m
        return SkewPoly(
            F, [mul[x][tp[i % m][c]] for i, x in enumerate(self.coeffs)]
        )

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

    def apply_theta(self, k: int = 1) -> "SkewPoly":
        """Apply the field automorphism to every coefficient."""
        trow = self.field.theta_pows[k % self.field.m]
        return SkewPoly(self.field, [trow[c] for c in self.coeffs])

    def times_x_pow(self, k: int) -> "SkewPoly":
        """f * x^k  (shift exponents up; no coefficient twist)."""
        if self.is_zero or k == 0:
            return self
        return SkewPoly(self.field, (0,) * k + self.coeffs)

    # -- dunder plumbing -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SkewPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        from .notation import poly_to_terms

        return f"SkewPoly({poly_to_terms(self)})"


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
    side: str


def right_divmod(g: SkewPoly, f: SkewPoly) -> Tuple[SkewPoly, SkewPoly]:
    """Quotient and remainder with g = q*f + r, deg r < deg f."""
    g._check(f)
    if f.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    F = g.field
    df = f.degree
    if g.degree < df:
        return SkewPoly.zero(F), g
    mul, sub, inv, tp, m = F.mul, F.sub, F.inv, F.theta_pows, F.m
    fl = f.coeffs
    flead = fl[-1]
    r = list(g.coeffs)
    q = [0] * (len(r) - df)
    top = len(r) - 1
    while top >= df:
        if r[top]:
            k = top - df
            c = mul[r[top]][inv[tp[k % m][flead]]]
            q[k] = c
            trow = tp[k % m]
            crow = mul[c]
            for j in range(df):
                fj = fl[j]
                if fj:
                    kj = k + j
                    r[kj] = sub[r[kj]][crow[trow[fj]]]
            r[top] = 0
        top -= 1
    return SkewPoly(F, q), SkewPoly(F, r[:df])


def left_divmod(g: SkewPoly, f: SkewPoly) -> Tuple[SkewPoly, SkewPoly]:
    """Quotient and remainder with g = f*q + r, deg r < deg f."""
    g._check(f)
    if f.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    F = g.field
    df = f.degree
    if g.degree < df:
        return SkewPoly.zero(F), g
    mul, sub, inv, tp, m = F.mul, F.sub, F.inv, F.theta_pows, F.m
    fl = f.coeffs
    inv_lead = inv[fl[-1]]
    r = list(g.coeffs)
    q = [0] * (len(r) - df)
    top = len(r) - 1
    while top >= df:
        if r[top]:
            k = top - df
            c = tp[(-df) % m][mul[inv_lead][r[top]]]
            q[k] = c
            for j in range(df):
                fj = fl[j]
                if fj:
                    kj = k + j
                    r[kj] = sub[r[kj]][mul[fj][tp[j % m][c]]]
            r[top] = 0
        top -= 1
    return SkewPoly(F, q), SkewPoly(F, r[:df])


def right_divides(f: SkewPoly, g: SkewPoly) -> bool:
    """True when g = q*f for some q."""
    return right_divmod(g, f)[1].is_zero


def _right_euclid(f: SkewPoly, g: SkewPoly) -> Tuple[SkewPoly, ...]:
    """Extended Euclid with right division; its last two rows (r0, a0, b0,
    a1, b1) satisfy a0*f + b0*g = r0, a gcrd up to a unit, and
    a1*f + b1*g = 0, a common left multiple of least degree."""
    f._check(g)
    F = f.field
    one, zero = SkewPoly.one(F), SkewPoly.zero(F)
    r0, a0, b0 = f, one, zero
    r1, a1, b1 = g, zero, one
    while not r1.is_zero:
        q, r2 = right_divmod(r0, r1)
        r0, a0, b0, r1, a1, b1 = r1, a1, b1, r2, a0 - q * a1, b0 - q * b1
    return r0, a0, b0, a1, b1


def _left_euclid(f: SkewPoly, g: SkewPoly) -> Tuple[SkewPoly, ...]:
    """The mirror of _right_euclid with left division: f*a0 + g*b0 = r0, a
    gcld up to a unit, and f*a1 + g*b1 = 0."""
    f._check(g)
    F = f.field
    one, zero = SkewPoly.one(F), SkewPoly.zero(F)
    r0, a0, b0 = f, one, zero
    r1, a1, b1 = g, zero, one
    while not r1.is_zero:
        q, r2 = left_divmod(r0, r1)
        r0, a0, b0, r1, a1, b1 = r1, a1, b1, r2, a0 - a1 * q, b0 - b1 * q
    return r0, a0, b0, a1, b1


def gcrd(f: SkewPoly, g: SkewPoly) -> ExtendedGcdResult:
    """Monic greatest common right divisor d with a*f + b*g = d."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcrd(0, 0) is undefined")
    r0, a0, b0, _, _ = _right_euclid(f, g)
    c = f.field.inv[r0.lead]
    return ExtendedGcdResult(
        r0.scale_left(c), a0.scale_left(c), b0.scale_left(c), "right"
    )


def gcld(f: SkewPoly, g: SkewPoly) -> ExtendedGcdResult:
    """Monic greatest common left divisor d with f*a + g*b = d."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcld(0, 0) is undefined")
    F = f.field
    r0, a0, b0, _, _ = _left_euclid(f, g)
    c = F.theta(F.inv[r0.lead], -r0.degree)
    return ExtendedGcdResult(
        r0.scale_right(c), a0.scale_right(c), b0.scale_right(c), "left"
    )


def gcrd_many(polys: Iterable[SkewPoly]) -> SkewPoly:
    """Monic gcrd of a sequence (ignoring zero entries)."""
    acc: Optional[SkewPoly] = None
    for p in polys:
        if p.is_zero:
            continue
        acc = p if acc is None else gcrd(acc, p).gcd
        if acc.degree == 0:
            break
    if acc is None:
        raise ValueError("gcrd of all-zero sequence is undefined")
    return acc.monic_left()


def gcld_many(polys: Iterable[SkewPoly]) -> SkewPoly:
    """Monic gcld of a sequence (ignoring zero entries)."""
    acc: Optional[SkewPoly] = None
    for p in polys:
        if p.is_zero:
            continue
        acc = p if acc is None else gcld(acc, p).gcd
        if acc.degree == 0:
            break
    if acc is None:
        raise ValueError("gcld of all-zero sequence is undefined")
    return acc.monic_right()


def lclm_with_cofactors(
    f: SkewPoly, g: SkewPoly
) -> Tuple[SkewPoly, SkewPoly, SkewPoly]:
    """(m, u, v) with monic m = u*f = v*g of minimal degree."""
    if f.is_zero or g.is_zero:
        raise ValueError("lclm requires nonzero arguments")
    _, _, _, a1, b1 = _right_euclid(f, g)
    m = a1 * f
    c = f.field.inv[m.lead]
    return m.scale_left(c), a1.scale_left(c), (-b1).scale_left(c)


def lclm(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic least common left multiple m = u*f = v*g of minimal degree."""
    return lclm_with_cofactors(f, g)[0]


def lcrm_with_cofactors(
    f: SkewPoly, g: SkewPoly
) -> Tuple[SkewPoly, SkewPoly, SkewPoly]:
    """(m, u, v) with monic m = f*u = g*v of minimal degree."""
    if f.is_zero or g.is_zero:
        raise ValueError("lcrm requires nonzero arguments")
    F = f.field
    _, _, _, a1, b1 = _left_euclid(f, g)
    m = f * a1
    c = F.theta(F.inv[m.lead], -m.degree)
    return m.scale_right(c), a1.scale_right(c), (-b1).scale_right(c)


def lcrm(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic least common right multiple m = f*u = g*v of minimal degree."""
    return lcrm_with_cofactors(f, g)[0]
