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

Every one-sided operation exists in two flavours.  ``gcrd(f, g)`` returns
Bezout multipliers with ``a*f + b*g = d`` (multipliers act on the left);
``gcld`` mirrors this with ``f*a + g*b = d``.

A Euclid run is repeated right division (Ore, 1933), and a right division
is one Euclid step.  ``_euclid`` serves both sides: gcrd and lclm read the
last two rows of a run of right divisions ``g = q*f + r``, gcld and lcrm
those of a run of left divisions ``g = f*q + r``, which are right
divisions g' = q'*f' + r' in the opposite ring F[x; theta^-1] (the map
x^i c -> theta^-i(c) x^i reverses products).  The row that reaches zero,
``u*f + v*g = 0``, gives the least common multiple; lclm and lcrm return
only that multiple, monic.

The arithmetic runs over the field's twisted rows, ``F.twisted_rows[r][c]``
= the 256-byte row b -> c * theta^r(b), in three reduction loops:

* ``_packed_steps`` (characteristic 2, where addition is XOR of the codes):
  a row is one little-endian int, and a quotient term c x^k XORs in the
  divisor row translated through the row of c at theta^k and shifted by k
  bytes.  A Euclid row (r, a, b) packs three byte slots, so one term updates
  the remainder and both cofactors; a right division is one step of g
  against f with a slot byte 1 below f, which collects c * theta^k(1) = c
  at byte k: the quotient.  ``_product`` multiplies the same way.
* ``_right_reduce`` (odd characteristic) reduces a coefficient list in
  place and returns each quotient term as (k, row of c); right_divmod reads
  c = row[1], and a Euclid step subtracts the rows from the cofactors.
* ``_left_reduce`` (left division in every characteristic) walks the
  divisor by residue class j = s mod m with the row of theta^s(c) for each
  quotient term c, faster than a right division in the opposite ring.

gcrd, gcld, lclm and lcrm build only the polynomials they return, made
monic (and mapped back from the opposite ring) in the same pass, one
``translate`` per residue class of the exponent (``_twisted``).  A left
Euclid run maps f and g into the opposite ring with one ``_twisted`` call,
and gcld maps its row r0 | a0 | b0 back with one more: the rows sit in
slots whose width is a multiple of m, so a byte's residue mod m is its
coefficient index's.

``SkewPoly(field, coeffs)`` is the one validating constructor: it takes any
integer-like coefficients (numpy integers included) and rejects floats and
out-of-range values.  Results computed here go through the trusted
``_make``.
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
        F = self.field
        if other.field is not F:
            self._check(other)
        return _make(F, _product(F, self._c, other._c))

    def scale_left(self, c: int) -> "SkewPoly":
        """c * f  (multiply every coefficient by c on the left)."""
        F = self.field
        if not 0 <= c < F.q:
            raise ValueError(f"scalar {c} outside field of order {F.q}")
        return _make(F, self._c.translate(F.mul_bytes[c]))

    def scale_right(self, c: int) -> "SkewPoly":
        """f * c  (coefficient i picks up theta^i(c))."""
        F = self.field
        if not 0 <= c < F.q:
            raise ValueError(f"scalar {c} outside field of order {F.q}")
        return _make(F, _twisted(F, self._c, c))

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


_new_poly = object.__new__
_set_field = SkewPoly.field.__set__  # the slot descriptors, which bypass __setattr__
_set_coeffs = SkewPoly._c.__set__
_ONE_BYTE = tuple(bytes([c]) for c in range(256))  # the interpreter's shared 1-byte strings
_from_bytes = int.from_bytes


def _make(field: FieldSpec, cs) -> SkewPoly:
    """The trusted constructor for results computed here: trims trailing
    zeros off ``cs``, a sequence of in-range ints (list, bytes or bytearray),
    with no range check.  A constant takes the shared 1-byte string that
    ``bytes([c])`` gives, where ``translate`` would make a new one."""
    p = _new_poly(SkewPoly)
    _set_field(p, field)
    data = bytes(cs).rstrip(b"\0")
    _set_coeffs(p, _ONE_BYTE[data[0]] if len(data) == 1 else data)
    return p


def _twisted(F: FieldSpec, cs: Sequence[int], c: int = 1, sign: int = 0) -> bytearray:
    """theta^i(c) * theta^(sign*i)(cs_i) for every coefficient cs_i, one
    translate per residue class of i mod m.  sign = 0 gives f*c; sign = -1
    (with c = 1) the image of f in the opposite ring (see _opposite_rows);
    sign = 1 maps an image back, times theta^i(c)."""
    out = bytearray(cs)
    m, rows, tp = F.m, F.twisted_rows, F.theta_pows
    for s in range(m):
        out[s::m] = out[s::m].translate(rows[sign * s % m][tp[s][c]])
    return out


def _slot(F: FieldSpec, size: int) -> int:
    """``size`` rounded up to a multiple of m: rows joined in slots of this
    width keep each byte's index mod m equal to its coefficient's, so one
    _twisted call maps them all."""
    return -(-size // F.m) * F.m


def _opposite_rows(F: FieldSpec):
    """The twisted rows of the opposite ring F[x; theta^-1]:
    rows[k][c][b] = c * theta^-k(b).  The map x^i c -> theta^-i(c) x^i takes
    F[x; theta] onto it and reverses products, so g = f*q + r becomes
    g' = q'*f' + r': a left division is a right division there."""
    rows = F.twisted_rows
    return rows[:1] + rows[:0:-1]


def _mul_acc(F: FieldSpec, out: List[int], a: Sequence[int], b: Sequence[int]) -> None:
    """out[i+j] += a_i * theta^i(b_j) in place, adding the product a*b to out
    (at least len(a) + len(b) - 1 entries).  One twisted row per a_i."""
    rows, m, add = F.twisted_rows, F.m, F.add
    for i, ai in enumerate(a):
        if ai:
            row = rows[i % m][ai]
            for k, bj in enumerate(b, i):
                if bj:
                    out[k] = add[out[k]][row[bj]]


def _product(F: FieldSpec, a: Sequence[int], b: bytes) -> Sequence[int]:
    """a*b.  In characteristic 2, as bytes: one translate of b through the
    twisted row of each nonzero a_i, read as a little-endian int, shifted by
    i bytes and XORed in (addition is XOR of the codes).  Otherwise a list,
    from _mul_acc."""
    if F.p != 2:
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        _mul_acc(F, out, a, b)
        return out
    if not (a and b):
        return b""
    rows, m = F.twisted_rows, F.m
    acc = shift = 0
    for i, ai in enumerate(a):
        if ai:
            acc ^= _from_bytes(b.translate(rows[i % m][ai]), "little") << shift
        shift += 8
    return acc.to_bytes(len(a) + len(b) - 1, "little")


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


def _packed_steps(F: FieldSpec, rows, p0: int, p1: int, lo: int, steps=-1) -> Tuple[int, int]:
    """Euclid steps on packed rows in characteristic 2, where subtraction is
    XOR.  A row is a little-endian int whose bytes from ``lo`` up hold a
    remainder; the bytes below hold whatever rides along with it.  One step
    reduces p0 by p1 on the right in the ring of ``rows``: a quotient term
    c x^k XORs in p1's bytes translated through rows[k % m][c] and shifted by
    k bytes, which clears p0's top remainder byte; then the two rows swap.
    The run stops when p1's remainder is zero or after ``steps`` steps.
    Returns (p0, p1)."""
    mul, inv, m = F.mul, F.inv, F.m
    n1 = (p1.bit_length() + 7) >> 3  # bytes of p1, lo + len of its remainder
    while n1 > lo and steps:
        row1 = p1.to_bytes(n1, "little")
        inv_lead = inv[row1[-1]]
        n0 = (p0.bit_length() + 7) >> 3
        while (k := n0 - n1) >= 0:  # deg r0 - deg r1: a quotient term c x^k
            by_c = rows[k % m]
            c = mul[p0 >> 8 * n0 - 8][by_c[1][inv_lead]]  # c * theta^k(lead r1) = lead r0
            p0 ^= _from_bytes(row1.translate(by_c[c]), "little") << 8 * k
            n0 = (p0.bit_length() + 7) >> 3
        p0, p1, n1 = p1, p0, n0
        steps -= 1
    return p0, p1


def _right_reduce(F: FieldSpec, rows, r: List[int], f: Sequence[int]) -> List[Tuple[int, bytes]]:
    """Reduce r in place to its remainder on dividing by f on the right
    (r = q*f + remainder) in the ring of ``rows``, trimmed; f is nonzero and
    trimmed.  A quotient term c x^k subtracts the twisted row
    rows[k % m][c] at every f_j.  Returns the quotient terms as (k, row),
    highest k first; row[1] is c."""
    mul, sub, inv, m = F.mul, F.sub, F.inv, F.m
    df = len(f) - 1
    low, inv_lead, terms = f[:df], inv[f[-1]], []
    for k in range(len(r) - 1 - df, -1, -1):
        top = r[k + df]
        if top:
            by_c = rows[k % m]
            row = by_c[mul[top][by_c[1][inv_lead]]]  # c * theta^k(lead f) = top
            terms.append((k, row))
            for kj, fj in enumerate(low, k):
                if fj:
                    r[kj] = sub[r[kj]][row[fj]]
    del r[df:]
    while r and r[-1] == 0:
        r.pop()
    return terms


def _left_reduce(F: FieldSpec, r: List[int], f: Sequence[int]) -> List[int]:
    """The mirror of _right_reduce, in every characteristic: r = f*q +
    remainder; returns q.  A quotient term c x^k subtracts
    f_j * theta^j(c), walked by residue class j = s mod m with the row of
    theta^s(c)."""
    mul, sub, tp, m = F.mul, F.sub, F.theta_pows, F.m
    df = len(f) - 1
    inv_lead, tlead = F.inv[f[-1]], tp[-df % m]
    classes = [(s, f[s:df:m]) for s in range(min(m, df))]
    q = [0] * (len(r) - df)
    for k in range(len(q) - 1, -1, -1):
        top = r[k + df]
        if top:
            c = q[k] = tlead[mul[inv_lead][top]]  # lead f * theta^df(c) = top
            for s, fs in classes:
                row, kj = mul[tp[s][c]], k + s
                for fj in fs:
                    if fj:
                        r[kj] = sub[r[kj]][row[fj]]
                    kj += m
    del r[df:]
    while r and r[-1] == 0:
        r.pop()
    return q


def _divmod(g: SkewPoly, f: SkewPoly, right: bool) -> Tuple[SkewPoly, SkewPoly]:
    F = g.field
    if f.field is not F:
        g._check(f)
    fc = f._c
    if not fc:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(g._c) < len(fc):
        return _make(F, b""), g
    W = len(g._c) - len(fc) + 1  # quotient terms
    if not right:
        r = list(g._c)
        q = _left_reduce(F, r, fc)
    elif F.p == 2:  # one Euclid step of g against f, whose slot byte 1 collects q
        pg, pf = _from_bytes(g._c, "little") << 8 * W, _from_bytes(fc, "little") << 8 * W | 1
        out = _packed_steps(F, F.twisted_rows, pg, pf, W, 1)[1].to_bytes(len(g._c), "little")
        q, r = out[:W], out[W:]
    else:
        r, q = list(g._c), bytearray(W)
        for k, row in _right_reduce(F, F.twisted_rows, r, fc):
            q[k] = row[1]
    return _make(F, q), _make(F, r)


def right_divmod(g: SkewPoly, f: SkewPoly) -> Tuple[SkewPoly, SkewPoly]:
    """Quotient and remainder with g = q*f + r, deg r < deg f."""
    return _divmod(g, f, True)


def left_divmod(g: SkewPoly, f: SkewPoly) -> Tuple[SkewPoly, SkewPoly]:
    """Quotient and remainder with g = f*q + r, deg r < deg f."""
    return _divmod(g, f, False)


def _euclid(
    F: FieldSpec, f: Sequence[int], g: Sequence[int], right: bool,
    cofactors: int = 2, zero_row: bool = True, back: bool = False,
) -> Tuple[Sequence[int], ...]:
    """Extended Euclid on the coefficient sequences f, g over F, with right
    division when ``right`` and otherwise left division, run as the right
    division of the images f', g' in the opposite ring (_opposite_rows).

    Returns the last two rows (r0, a0, b0, a1, b1), trimmed: bytes in
    characteristic 2, lists otherwise (r0, a0, b0 bytes with ``back``).  On
    the right side a0*f + b0*g = r0, a gcrd up to a unit, and
    a1*f + b1*g = 0, a common left multiple of least degree.  On the left
    side the rows are opposite-ring images, which ``_twisted(F, row, c, 1)``
    maps back: f*a0 + g*b0 = r0 and f*a1 + g*b1 = 0.  ``cofactors`` is how
    many of a, b are updated: 2 for both, 1 for a alone (lclm and lcrm read
    only a1), 0 for r0 alone; without ``zero_row`` the step that reaches
    r = 0 leaves a1, b1 as they were (gcrd and gcld read only r0, a0, b0).
    Rows not updated are meaningless.  With ``back`` (left side) r0, a0
    and b0 come mapped back and made monic, ``_twisted(F, row, c, 1)`` with
    c the inverse of r0's lead, in one call over the row a0 | b0 | r0; only
    the last two rows stay images.  f and g go into the opposite ring in
    one call too.  Both calls join rows in slots of a multiple of m bytes
    (_slot), so each byte's residue mod m is its coefficient index's.

    In characteristic 2 a row (r, a, b) is one int of three W-byte slots,
    a lowest, W = len f + len g + 1 rounded up by _slot (no cofactor
    outgrows it, and the + 1 keeps a zero pair apart), or r alone (W = 0)
    without cofactors; such a run computes all five rows.  In odd
    characteristic each step subtracts the rows of _right_reduce's quotient
    terms from the cofactors."""
    if right:
        rows = F.twisted_rows
    else:  # f and g into the opposite ring with one _twisted, g in a slot from W
        W = _slot(F, len(f))
        fg = _twisted(F, bytes(f).ljust(W, b"\0") + bytes(g), 1, -1)
        rows, f, g = _opposite_rows(F), fg[:len(f)], fg[W:]
    if F.p == 2:
        W = _slot(F, len(f) + len(g) + 1) if cofactors else 0
        p0 = _from_bytes(f, "little") << 16 * W
        p1 = _from_bytes(g, "little") << 16 * W
        if cofactors:
            p0 |= 1  # a0 = 1
            p1 |= 1 << 8 * W  # b1 = 1
        p0, p1 = _packed_steps(F, rows, p0, p1, 2 * W)
        row0 = p0.to_bytes((p0.bit_length() + 7) >> 3, "little")
        if back:
            row0 = _twisted(F, row0, F.inv[row0[-1]], 1)
        row1 = p1.to_bytes((p1.bit_length() + 7) >> 3, "little")
        return (row0[2 * W:], row0[:W].rstrip(b"\0"), row0[W:2 * W].rstrip(b"\0"),
                row1[:W].rstrip(b"\0"), row1[W:2 * W].rstrip(b"\0"))
    sub = F.sub
    r0, r1, a0, b0, a1, b1 = list(f), list(g), [1], [], [], [1]
    while r1:
        terms = _right_reduce(F, rows, r0, r1)
        if terms and (r0 or zero_row):
            for x0, x1 in ((a0, a1), (b0, b1))[:cofactors]:
                if x1:
                    x0 += [0] * (terms[0][0] + len(x1) - len(x0))
                    for k, row in terms:
                        for kj, xj in enumerate(x1, k):
                            if xj:
                                x0[kj] = sub[x0[kj]][row[xj]]
        r0, a0, b0, r1, a1, b1 = r1, a1, b1, r0, a0, b0
    if back:
        W = _slot(F, max(len(a0), len(b0)))
        row = bytes(a0).ljust(W, b"\0") + bytes(b0).ljust(W, b"\0") + bytes(r0)
        row = _twisted(F, row, F.inv[r0[-1]], 1)
        r0, a0, b0 = row[2 * W:], row[:W].rstrip(b"\0"), row[W:2 * W].rstrip(b"\0")
    return r0, a0, b0, a1, b1


def gcrd(f: SkewPoly, g: SkewPoly) -> ExtendedGcdResult:
    """Monic greatest common right divisor d with a*f + b*g = d."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcrd(0, 0) is undefined")
    f._check(g)
    F = f.field
    r0, a0, b0, _, _ = _euclid(F, f._c, g._c, True, zero_row=False)
    row = F.mul_bytes[F.inv[r0[-1]]]
    return ExtendedGcdResult(_make(F, bytes(r0).translate(row)),
                             _make(F, bytes(a0).translate(row)),
                             _make(F, bytes(b0).translate(row)))


def gcld(f: SkewPoly, g: SkewPoly) -> ExtendedGcdResult:
    """Monic greatest common left divisor d with f*a + g*b = d."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcld(0, 0) is undefined")
    f._check(g)
    F = f.field
    r0, a0, b0, _, _ = _euclid(F, f._c, g._c, False, zero_row=False, back=True)
    return ExtendedGcdResult(_make(F, r0), _make(F, a0), _make(F, b0))


def gcld_many(polys: Iterable[SkewPoly]) -> SkewPoly:
    """Monic gcld of a sequence (ignoring zero entries); runs Euclid without
    the Bezout cofactors, which it does not return."""
    first: Optional[SkewPoly] = None
    for p in polys:
        if p.is_zero:
            continue
        if first is None:
            first, acc = p, p._c
        else:
            first._check(p)
            acc = _twisted(p.field, _euclid(p.field, acc, p._c, False, cofactors=0)[0], 1, 1)
        if len(acc) == 1:
            break
    if first is None:
        raise ValueError("gcld of all-zero sequence is undefined")
    return _make(first.field, acc).monic_right()


def lclm(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic least common left multiple m = u*f = v*g of minimal degree."""
    if f.is_zero or g.is_zero:
        raise ValueError("lclm requires nonzero arguments")
    f._check(g)
    F = f.field
    out = _product(F, _euclid(F, f._c, g._c, True, cofactors=1)[3], f._c)
    return _make(F, bytes(out).translate(F.mul_bytes[F.inv[out[-1]]]))


def lcrm(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Monic least common right multiple m = f*u = g*v of minimal degree."""
    if f.is_zero or g.is_zero:
        raise ValueError("lcrm requires nonzero arguments")
    f._check(g)
    F = f.field
    out = _product(F, f._c, _twisted(F, _euclid(F, f._c, g._c, False, cofactors=1)[3], 1, 1))
    return _make(F, _twisted(F, out, F.theta(F.inv[out[-1]], 1 - len(out))))
