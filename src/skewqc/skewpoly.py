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

The arithmetic runs over the field's twisted rows, ``F.twisted_rows[r][c]``
= the 256-byte row b -> c * theta^r(b), in one of two kernels chosen by the
characteristic.  In characteristic 2 addition is XOR of the element codes,
so a coefficient string read as one little-endian int adds with one ``^``,
and one ``translate`` through a row applies c * theta^r(.) to the whole
string: a product term or a quotient term costs one translate, one shift
and one XOR, whatever the lengths.  ``_product`` (``*``, lclm, lcrm) and
``_right_reduce_packed`` work so, and ``_euclid_packed`` packs each Euclid
row (r, a, b) into one int of three byte slots, so that one step updates
the remainder and both cofactors.  In odd characteristic the list kernels
take one row per outer coefficient and make one lookup per inner
coefficient: ``_mul_acc`` is the product and ``_right_reduce`` the right
division, and ``_euclid_lists`` runs its own right-division loop, which
subtracts each quotient term's row from the remainder and from both
cofactors.  ``_left_reduce``, the left division in every characteristic,
walks the divisor by residue class j = s mod m with the row of theta^s(c)
for each quotient term c.  Both Euclid kernels run a left-division Euclid
as their right-division loop in the opposite ring F[x; theta^-1]
(x^i c -> theta^-i(c) x^i reverses products, so f*q becomes q'*f').
``_euclid`` picks the kernel by ``F.p`` and returns coefficient sequences
(bytes in characteristic 2, lists otherwise): gcrd, gcld, lclm and lcrm
build only the polynomials they return, made monic (and mapped back from
the opposite ring) in the same pass, one ``translate`` per residue class of
the exponent (``_twisted``).  On the ``ring-algebra`` seed-1 GF(4) pairs
(degree <= 12) a gcrd takes 12 us, a gcld 18 us, an lclm 13 us and a
product 2.8 us, against 22, 26, 23 and 5.3 us on the list kernels
(``tools/bench_ring_ops.py``, 2-core Xeon VM, Python 3.11.7).

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


def _right_reduce(F: FieldSpec, r: List[int], f: Sequence[int]) -> List[int]:
    """Reduce r in place to its remainder on dividing by f on the right
    (r = q*f + remainder), trimmed; return q.  f is nonzero and trimmed.
    A quotient term c x^k subtracts the twisted row b -> c * theta^k(b) at
    every f_j."""
    rows, mul, sub, m = F.twisted_rows, F.mul, F.sub, F.m
    df = len(f) - 1
    low, inv_lead = f[:df], F.inv[f[-1]]
    q = [0] * (len(r) - df)
    for k in range(len(q) - 1, -1, -1):
        top = r[k + df]
        if top:
            by_c = rows[k % m]
            c = q[k] = mul[top][by_c[1][inv_lead]]  # c * theta^k(lead f) = top
            row = by_c[c]
            for kj, fj in enumerate(low, k):
                if fj:
                    r[kj] = sub[r[kj]][row[fj]]
    del r[df:]
    while r and r[-1] == 0:
        r.pop()
    return q


def _right_reduce_packed(F: FieldSpec, g: bytes, f: bytes) -> Tuple[bytearray, bytes]:
    """_right_reduce in characteristic 2, on g read as a little-endian int:
    a quotient term c x^k XORs in f translated through the row of c at
    theta^k, shifted by k bytes, which clears the top byte.  Returns the
    quotient and the remainder (untrimmed).  len(g) >= len(f)."""
    rows, mul, m = F.twisted_rows, F.mul, F.m
    nf, inv_lead = len(f), F.inv[f[-1]]
    r = _from_bytes(g, "little")
    q = bytearray(len(g) - nf + 1)
    k = len(g) - nf  # deg r - deg f: the exponent of the next quotient term
    while k >= 0:
        by_c = rows[k % m]
        c = q[k] = mul[r >> 8 * (k + nf - 1)][by_c[1][inv_lead]]
        r ^= _from_bytes(f.translate(by_c[c]), "little") << 8 * k
        k = ((r.bit_length() + 7) >> 3) - nf
    return q, r.to_bytes(nf - 1, "little")


def _left_reduce(F: FieldSpec, r: List[int], f: Sequence[int]) -> List[int]:
    """The mirror of _right_reduce: r = f*q + remainder.  A quotient term
    c x^k subtracts f_j * theta^j(c), walked by residue class j = s mod m
    with the row of theta^s(c)."""
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


def _divmod(g: SkewPoly, f: SkewPoly, reduce) -> Tuple[SkewPoly, SkewPoly]:
    F = g.field
    if f.field is not F:
        g._check(f)
    fc = f._c
    if not fc:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(g._c) < len(fc):
        return _make(F, b""), g
    if F.p == 2 and reduce is _right_reduce:  # the left division has no packed kernel
        q, r = _right_reduce_packed(F, g._c, fc)
    else:
        r = list(g._c)
        q = reduce(F, r, fc)
    return _make(F, q), _make(F, r)


def right_divmod(g: SkewPoly, f: SkewPoly) -> Tuple[SkewPoly, SkewPoly]:
    """Quotient and remainder with g = q*f + r, deg r < deg f."""
    return _divmod(g, f, _right_reduce)


def left_divmod(g: SkewPoly, f: SkewPoly) -> Tuple[SkewPoly, SkewPoly]:
    """Quotient and remainder with g = f*q + r, deg r < deg f."""
    return _divmod(g, f, _left_reduce)


def _euclid(
    F: FieldSpec, f: Sequence[int], g: Sequence[int], right: bool,
    cofactors: int = 2, zero_row: bool = True,
) -> Tuple[Sequence[int], ...]:
    """Extended Euclid on the coefficient sequences f, g: _euclid_packed in
    characteristic 2, which returns bytes rows and, with any cofactors,
    computes all five (``zero_row`` saves it nothing), and _euclid_lists
    otherwise."""
    if F.p == 2:
        return _euclid_packed(F, f, g, right, cofactors)
    return _euclid_lists(F, f, g, right, cofactors, zero_row)


def _euclid_packed(
    F: FieldSpec, f: Sequence[int], g: Sequence[int], right: bool, cofactors: int,
) -> Tuple[bytes, ...]:
    """_euclid_lists in characteristic 2, where subtraction is XOR.  A row
    (r, a, b) is one little-endian int of three W-byte slots, a lowest and r
    highest, W = len f + len g + 1, which no cofactor outgrows (the + 1
    keeps a zero pair from overlapping).  A quotient term c x^k translates
    the divisor row's bytes through the twisted row of c at theta^k, shifts
    them by k bytes and XORs them in: r0, a0 and b0 in one step.  With
    ``cofactors`` 0 a row is r alone (W = 0).  The degree of r0 is read off
    the int's bit length, so the zero row comes free.  Returns the same
    five rows as bytes, trimmed."""
    if right:
        rows = F.twisted_rows
    else:
        rows, f, g = _opposite_rows(F), _twisted(F, f, 1, -1), _twisted(F, g, 1, -1)
    mul, inv, m = F.mul, F.inv, F.m
    W = len(f) + len(g) + 1 if cofactors else 0
    p0 = _from_bytes(f, "little") << 16 * W
    p1 = _from_bytes(g, "little") << 16 * W
    if cofactors:
        p0 |= 1  # a0 = 1
        p1 |= 1 << 8 * W  # b1 = 1
    n1 = (p1.bit_length() + 7) >> 3  # bytes of row 1, 2W + len r1
    while n1 > 2 * W:
        row1 = p1.to_bytes(n1, "little")
        inv_lead = inv[row1[-1]]
        n0 = (p0.bit_length() + 7) >> 3
        while (k := n0 - n1) >= 0:  # deg r0 - deg r1: a quotient term c x^k
            by_c = rows[k % m]
            c = mul[p0 >> 8 * n0 - 8][by_c[1][inv_lead]]
            p0 ^= _from_bytes(row1.translate(by_c[c]), "little") << 8 * k
            n0 = (p0.bit_length() + 7) >> 3
        p0, p1, n1 = p1, p0, n0
    (r0, a0, b0), (_, a1, b1) = _slots(p0, W), _slots(p1, W)
    return r0, a0, b0, a1, b1


def _slots(p: int, W: int) -> Tuple[bytes, bytes, bytes]:
    """The trimmed (r, a, b) of a packed Euclid row."""
    row = p.to_bytes((p.bit_length() + 7) >> 3, "little")
    return row[2 * W:], row[:W].rstrip(b"\0"), row[W:2 * W].rstrip(b"\0")


def _euclid_lists(
    F: FieldSpec, f: Sequence[int], g: Sequence[int], right: bool,
    cofactors: int = 2, zero_row: bool = True,
) -> Tuple[List[int], ...]:
    """Extended Euclid on the coefficient sequences f, g over F, with right
    division when ``right`` and left division otherwise.  A left run is the
    right run on the images f', g' in the opposite ring (_opposite_rows), so
    one loop serves both sides, with the field tables looked up once: each
    quotient term c x^k of a step takes one twisted row and subtracts it
    from the remainder and, x0 -= q*x1, from the cofactors.

    Returns the last two rows (r0, a0, b0, a1, b1) as trimmed coefficient
    lists.  On the right side a0*f + b0*g = r0, a gcrd up to a unit, and
    a1*f + b1*g = 0, a common left multiple of least degree.  On the left
    side the rows are opposite-ring images, which ``_twisted(F, row, c, 1)``
    maps back: f*a0 + g*b0 = r0, a gcld up to a unit, and f*a1 + g*b1 = 0.
    ``cofactors`` is how many of the cofactor sequences a, b are updated: 2
    for both, 1 for a alone (lclm and lcrm read only a1), 0 for callers that
    keep only r0; without ``zero_row`` the step that reaches r = 0 leaves
    a1, b1 as they were (gcrd and gcld read only r0, a0, b0).  The entries
    of a row not updated are meaningless."""
    if right:
        rows, r0, r1 = F.twisted_rows, list(f), list(g)
    else:
        rows, r0, r1 = _opposite_rows(F), list(_twisted(F, f, 1, -1)), list(_twisted(F, g, 1, -1))
    mul, sub, inv, m = F.mul, F.sub, F.inv, F.m
    a0, b0, a1, b1 = [1], [], [], [1]
    while r1:
        df = len(r1) - 1
        nq = len(r0) - df  # quotient terms
        if nq > 0:
            low, inv_lead, terms = r1[:df], inv[r1[-1]], []
            for k in range(nq - 1, -1, -1):
                top = r0[k + df]
                if top:
                    by_c = rows[k % m]
                    row = by_c[mul[top][by_c[1][inv_lead]]]
                    terms.append((k, row))
                    for kj, xj in enumerate(low, k):
                        if xj:
                            r0[kj] = sub[r0[kj]][row[xj]]
            del r0[df:]
            while r0 and r0[-1] == 0:
                r0.pop()
            if r0 or zero_row:
                for x0, x1 in ((a0, a1), (b0, b1))[:cofactors]:
                    if x1:
                        x0 += [0] * (nq + len(x1) - 1 - len(x0))
                        for k, row in terms:
                            for kj, xj in enumerate(x1, k):
                                if xj:
                                    x0[kj] = sub[x0[kj]][row[xj]]
        r0, a0, b0, r1, a1, b1 = r1, a1, b1, r0, a0, b0
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
    r0, a0, b0, _, _ = _euclid(F, f._c, g._c, False, zero_row=False)
    c = F.inv[r0[-1]]
    return ExtendedGcdResult(_make(F, _twisted(F, r0, c, 1)),
                             _make(F, _twisted(F, a0, c, 1)),
                             _make(F, _twisted(F, b0, c, 1)))


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
