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


def gcrd(f: SkewPoly, g: SkewPoly) -> ExtendedGcdResult:
    """Monic greatest common right divisor d with a*f + b*g = d."""
    f._check(g)
    if f.is_zero and g.is_zero:
        raise ValueError("gcrd(0, 0) is undefined")
    F = f.field
    one, zero = SkewPoly.one(F), SkewPoly.zero(F)
    r0, a0, b0 = f, one, zero
    r1, a1, b1 = g, zero, one
    while not r1.is_zero:
        q, r2 = right_divmod(r0, r1)
        r0, a0, b0, r1, a1, b1 = r1, a1, b1, r2, a0 - q * a1, b0 - q * b1
    c = F.inv[r0.lead]
    return ExtendedGcdResult(
        r0.scale_left(c), a0.scale_left(c), b0.scale_left(c), "right"
    )


def gcld(f: SkewPoly, g: SkewPoly) -> ExtendedGcdResult:
    """Monic greatest common left divisor d with f*a + g*b = d."""
    f._check(g)
    if f.is_zero and g.is_zero:
        raise ValueError("gcld(0, 0) is undefined")
    F = f.field
    one, zero = SkewPoly.one(F), SkewPoly.zero(F)
    r0, a0, b0 = f, one, zero
    r1, a1, b1 = g, zero, one
    while not r1.is_zero:
        q, r2 = left_divmod(r0, r1)
        r0, a0, b0, r1, a1, b1 = r1, a1, b1, r2, a0 - a1 * q, b0 - b1 * q
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


def _lclm_euclid_with_cofactors(
    f: SkewPoly, g: SkewPoly
) -> Tuple[SkewPoly, SkewPoly, SkewPoly]:
    """(m, u, v) with m = u*f = -v*g taken from the final Euclid row."""
    F = f.field
    one, zero = SkewPoly.one(F), SkewPoly.zero(F)
    r0, a0, b0 = f, one, zero
    r1, a1, b1 = g, zero, one
    while not r1.is_zero:
        q, r2 = right_divmod(r0, r1)
        r0, a0, b0, r1, a1, b1 = r1, a1, b1, r2, a0 - q * a1, b0 - q * b1
    m = a1 * f
    c = F.inv[m.lead] if not m.is_zero else 1
    return m.scale_left(c), a1.scale_left(c), (-b1).scale_left(c)


def lclm_euclid(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic least common left multiple via the extended Euclid rows."""
    if f.is_zero or g.is_zero:
        raise ValueError("lclm requires nonzero arguments")
    return _lclm_euclid_with_cofactors(f, g)[0]


def lclm_with_cofactors(
    f: SkewPoly, g: SkewPoly
) -> Tuple[SkewPoly, SkewPoly, SkewPoly]:
    """(m, u, v) with monic m = u*f = v*g of minimal degree."""
    if f.is_zero or g.is_zero:
        raise ValueError("lclm requires nonzero arguments")
    m, u, v = _lclm_euclid_with_cofactors(f, g)
    return m, u, v


def lclm(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic least common left multiple, built from a linear system.

    Unknown coefficients of cofactors u, v with u*f + v*g = 0 are solved
    for at the degree forced by deg f + deg g - deg gcrd(f, g); the Euclid
    construction is exposed separately as lclm_euclid for cross-checking.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("lclm requires nonzero arguments")
    from . import linalg

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
    sol = linalg.solve(F, rows, rhs)
    if sol is None:
        raise RuntimeError("least common multiple system is inconsistent")
    u = SkewPoly(F, list(sol[:du]) + [1])
    mpoly = u * f
    c = F.inv[mpoly.lead]
    return mpoly.scale_left(c)


def lcrm_with_cofactors(
    f: SkewPoly, g: SkewPoly
) -> Tuple[SkewPoly, SkewPoly, SkewPoly]:
    """(m, u, v) with monic m = f*u = g*v of minimal degree."""
    if f.is_zero or g.is_zero:
        raise ValueError("lcrm requires nonzero arguments")
    F = f.field
    one, zero = SkewPoly.one(F), SkewPoly.zero(F)
    r0, a0, b0 = f, one, zero
    r1, a1, b1 = g, zero, one
    while not r1.is_zero:
        q, r2 = left_divmod(r0, r1)
        r0, a0, b0, r1, a1, b1 = r1, a1, b1, r2, a0 - a1 * q, b0 - b1 * q
    m = f * a1
    c = F.theta(F.inv[m.lead], -m.degree)
    return m.scale_right(c), a1.scale_right(c), (-b1).scale_right(c)


def lcrm(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic least common right multiple m = f*u = g*v of minimal degree."""
    return lcrm_with_cofactors(f, g)[0]


def right_divmod_linalg(g: SkewPoly, f: SkewPoly) -> Tuple[SkewPoly, SkewPoly]:
    """Right division recast as a dense linear solve (independent of the
    schoolbook loop; used to cross-check it)."""
    g._check(f)
    if f.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    F = g.field
    df, dg = f.degree, g.degree
    if dg < df:
        return SkewPoly.zero(F), g
    from . import linalg

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
    sol = linalg.solve(F, rows, rhs)
    if sol is None:
        raise RuntimeError("division system is inconsistent")
    return SkewPoly(F, sol[: dq + 1]), SkewPoly(F, sol[dq + 1 :])


def left_divmod_linalg(g: SkewPoly, f: SkewPoly) -> Tuple[SkewPoly, SkewPoly]:
    """Left division as a dense linear solve.

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
    from . import linalg

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
    sol = linalg.solve(F, rows, rhs)
    if sol is None:
        raise RuntimeError("division system is inconsistent")
    qc = [tp[i % m][sol[i]] for i in range(dq + 1)]
    rc = [tp[n % m][sol[dq + 1 + n]] for n in range(df)]
    return SkewPoly(F, qc), SkewPoly(F, rc)
