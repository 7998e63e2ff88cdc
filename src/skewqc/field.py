"""Arithmetic for small finite fields GF(p^(t*m)) with a chosen automorphism.

Elements are encoded as plain ints in ``range(q)``: the base-p digits of the
int are the coordinates of the element in the polynomial basis
``1, z, z^2, ...`` of GF(p^(t*m)) over GF(p).  All field operations are table
lookups, so hot loops elsewhere can grab ``field.add`` / ``field.mul`` as
local lists and index into them directly.

The distinguished automorphism is ``theta(e) = e**(p**t)``, i.e. the t-th
power of the absolute Frobenius.  It has order m and fixes exactly the
subfield with p^t elements.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

import numpy as np

MAX_ORDER = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# dense polynomials over GF(p), coefficients low-to-high, used only while
# building the field tables


def _poly_trim(c: List[int]) -> List[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(p: int, f: Sequence[int], g: Sequence[int]) -> List[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return _poly_trim(out)


def _poly_mod(p: int, f: Sequence[int], g: Sequence[int]) -> List[int]:
    r = list(f)
    _poly_trim(r)
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    while len(r) - 1 >= dg and r:
        c = (r[-1] * inv_lead) % p
        k = len(r) - 1 - dg
        for j, gj in enumerate(g):
            if gj:
                r[k + j] = (r[k + j] - c * gj) % p
        _poly_trim(r)
    return r


def _poly_is_irreducible(p: int, f: Sequence[int]) -> bool:
    d = len(f) - 1
    if d <= 0:
        return False
    if f[0] == 0:
        return d == 1
    # trial division by every monic polynomial of degree 1 .. d//2
    for e in range(1, d // 2 + 1):
        for low in range(p**e):
            g = _int_digits(p, low, e) + [1]
            if not _poly_mod(p, f, g):
                return False
    return True


def _int_digits(p: int, val: int, width: int) -> List[int]:
    digits = []
    for _ in range(width):
        digits.append(val % p)
        val //= p
    return digits


def _digits_int(p: int, digits: Sequence[int]) -> int:
    val = 0
    for d in reversed(digits):
        val = val * p + d
    return val


def _canonical_modulus(p: int, d: int) -> Tuple[int, ...]:
    """Monic irreducible of degree d over GF(p) with smallest int encoding."""
    for low in range(p**d):
        f = _int_digits(p, low, d) + [1]
        if _poly_is_irreducible(p, f):
            return tuple(f)
    raise RuntimeError(f"no irreducible polynomial of degree {d} over GF({p})")


class FieldSpec:
    """A finite field GF(p^(t*m)) together with the automorphism z -> z^(p^t).

    Not constructed directly in normal use; call :func:`make_field` so that
    each (p, t, m) triple maps to one shared, fully tabulated instance.
    """

    def __init__(self, p: int, t: int, m: int):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if t < 1 or m < 1:
            raise ValueError("t and m must be positive")
        q = p ** (t * m)
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds supported maximum {MAX_ORDER}")
        self.p = p
        self.t = t
        self.m = m
        self._key = (p, t, m)
        self._hash = hash(self._key)
        self.degree = t * m
        self.q = q
        self.modulus = _canonical_modulus(p, self.degree) if self.degree > 1 else (0, 1)
        self._build_tables()
        self._build_theta()
        self._build_numpy()
        self._build_tokens()

    # -- construction -------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        p, d = self.p, self.degree
        if d == 1:
            return (a * b) % p
        fa = _int_digits(p, a, d)
        fb = _int_digits(p, b, d)
        prod = _poly_mul(p, fa, fb)
        prod = _poly_mod(p, prod, list(self.modulus))
        return _digits_int(p, prod)

    def _build_tables(self) -> None:
        p, q, d = self.p, self.q, self.degree
        # addition / negation are digit-wise mod p
        if p == 2:
            self.add = [[a ^ b for b in range(q)] for a in range(q)]
            self.neg = list(range(q))
        else:
            add = []
            for a in range(q):
                da = _int_digits(p, a, d)
                row = []
                for b in range(q):
                    db = _int_digits(p, b, d)
                    row.append(_digits_int(p, [(x + y) % p for x, y in zip(da, db)]))
                add.append(row)
            self.add = add
            self.neg = [
                _digits_int(p, [(-x) % p for x in _int_digits(p, a, d)])
                for a in range(q)
            ]
        self.sub = [[self.add[a][self.neg[b]] for b in range(q)] for a in range(q)]

        # find the smallest multiplicative generator, then build exp/log
        gen = None
        for cand in range(1, q):
            e, order = cand, 1
            while e != 1:
                e = self._raw_mul(e, cand)
                order += 1
            if order == q - 1:
                gen = cand
                break
        if gen is None:
            raise RuntimeError("no multiplicative generator found")
        self.generator = gen
        exp = [1]
        for _ in range(q - 2):
            exp.append(self._raw_mul(exp[-1], gen))
        log = [-1] * q
        for i, e in enumerate(exp):
            log[e] = i
        self.exp = exp
        self.log = log

        mul = [[0] * q for _ in range(q)]
        for a in range(1, q):
            la = log[a]
            rowa = mul[a]
            for b in range(1, q):
                rowa[b] = exp[(la + log[b]) % (q - 1)]
        self.mul = mul
        self.inv = [0] + [exp[(q - 1 - log[a]) % (q - 1)] for a in range(1, q)]

    def _build_theta(self) -> None:
        p, t, m, q = self.p, self.t, self.m, self.q
        frob_exp = p**t
        theta1 = [self.pow(e, frob_exp) for e in range(q)]
        pows = [list(range(q))]
        for _ in range(m - 1):
            pows.append([theta1[e] for e in pows[-1]])
        self.theta_pows = pows
        assert [theta1[e] for e in pows[-1]] == pows[0], "automorphism order != m"
        self.fixed_elements = tuple(e for e in range(q) if theta1[e] == e)
        assert len(self.fixed_elements) == p**t

    def _build_numpy(self) -> None:
        self.np_add = np.array(self.add, dtype=np.uint8)
        self.np_sub = np.array(self.sub, dtype=np.uint8)
        self.np_mul = np.array(self.mul, dtype=np.uint8)
        self.np_neg = np.array(self.neg, dtype=np.uint8)
        self.np_inv = np.array(self.inv, dtype=np.uint8)
        self.np_theta = np.array(self.theta_pows, dtype=np.uint8)

    def _build_tokens(self) -> None:
        q = self.q
        if q == 4:
            tokens = ["0", "1", "a", "a^2"]
        elif self.degree == 1:
            tokens = [str(e) for e in range(q)]
        else:
            tokens = ["0", "1"]
            for e in range(2, q):
                k = self.log[e]
                tokens.append("g" if k == 1 else f"g^{k}")
        self.tokens = tuple(tokens)
        self.token_to_element = {tok: e for e, tok in enumerate(tokens)}

    # -- element operations --------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def invert(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.inv[a]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("0 has no negative power")
            return 0
        return self.exp[(self.log[a] * n) % (self.q - 1)]

    def theta(self, e: int, k: int = 1) -> int:
        """Apply the field automorphism k times."""
        return self.theta_pows[k % self.m][e]

    def element_token(self, e: int) -> str:
        return self.tokens[e]

    def parse_token(self, tok: str) -> int:
        try:
            return self.token_to_element[tok]
        except KeyError:
            raise ValueError(f"unknown field element token {tok!r}") from None

    # -- misc -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        # make_field shares one instance per (p, t, m), so identity is the
        # common case
        return self is other or (isinstance(other, FieldSpec) and self._key == other._key)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, t={self.t}, m={self.m})"


@functools.lru_cache(maxsize=None)
def make_field(p: int, t: int = 1, m: int = 2) -> FieldSpec:
    """Return the shared FieldSpec for GF(p^(t*m)) with theta = Frobenius^t."""
    return FieldSpec(p, t, m)


#: the default field of the package: GF(4) with the conjugation automorphism
def gf4() -> FieldSpec:
    return make_field(2, 1, 2)
