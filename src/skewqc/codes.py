"""1-generator skew quasi-cyclic codes of index l.

A code lives in R^l with R = F[x; theta]/(x^s - 1) (m must divide s so the
modulus is central).  Codewords are laid out *blockwise*: coordinates
[b*s + j] for block b hold the coefficient of x^j in the b-th component.
The defining symmetry is the skew shift T: rotate every block right by one
position and apply theta to all coordinates — exactly left-multiplication
by x on each component.

From a generating tuple (f_1, ..., f_l) the code is the left R-submodule
{ u * (f_1, ..., f_l) : u in R }.  Its F-dimension k, generator polynomial
g = gcld(f_1, ..., f_l, x^s - 1) and parity polynomial h with
g*h = h*g = x^s - 1 satisfy k = s - deg g = deg h.  As a left module the
code is R/R*h' for a right divisor h' of x^s - 1 of degree k, and the basis
1, x, ..., x^(k-1) of that quotient maps to the first k shift images
T^i(f_1, ..., f_l), which are therefore a basis of the code.

Both build modes row-reduce the first k shift images.  Their span is
*closed* (module_closed) when it is T-invariant, which one membership test
decides: T is theta-semilinear, so it maps span{T^0, ..., T^(k-1)} onto
span{T^1, ..., T^k}, and the span is invariant exactly when T^k lies in it.
Either mode raises ConsistencyError if the k images are dependent, and the
module build also if the span is not closed.  A build from an explicit
right factor g of x^s - 1 (CodeStructure(spec, generator=g)) that is not
closed spans a proper k-dimensional subspace of the module closure, which
some published generator matrices turn out to be.

A build works on byte rows, one byte per symbol in block layout (the layout
of the coefficient bytes of ``SkewPoly``): T is one slice per block and one
``bytes.translate`` through ``field.theta_bytes``, and the images are
row-reduced by ``linalg.RowSpace`` (packed XOR rows in characteristic 2).

A built code has one encoder, ``encode`` (message times the RREF basis), and
one membership test, ``is_codeword`` (``RowSpace.contains``).  Both, and
``skew_shift``, refuse symbols outside the field with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .errors import ConsistencyError, as_index
from .field import FieldSpec
from .skewpoly import SkewPoly, gcld_many, left_divmod, right_divmod, x_pow_minus_one


@dataclass(frozen=True)
class CodeSpec:
    """Defining data of a skew quasi-cyclic code: ring parameters and the
    generating tuple (components are reduced mod x^s - 1 on construction)."""

    field: FieldSpec
    s: int
    generators: Tuple[SkewPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "s", as_index("s", self.s))
        if self.s < 1:
            raise ValueError("s must be positive")
        if self.s % self.field.m != 0:
            raise ValueError(
                f"x^{self.s} - 1 is not central: {self.field.m} does not divide {self.s}"
            )
        if not self.generators:
            raise ValueError("generating tuple must have at least one component")
        modulus = x_pow_minus_one(self.field, self.s)
        reduced = []
        for f in self.generators:
            if f.field != self.field:
                raise ValueError("generator over the wrong field")
            reduced.append(right_divmod(f, modulus)[1])
        object.__setattr__(self, "generators", tuple(reduced))

    @property
    def l(self) -> int:
        return len(self.generators)

    @property
    def n(self) -> int:
        return self.s * self.l


def skew_shift(field: FieldSpec, s: int, vec: Sequence[int]) -> List[int]:
    """Apply T: per-block right rotation by one followed by theta."""
    if len(vec) % s:
        raise ValueError("vector length is not a multiple of s")
    return list(_shift_bytes(field, s, _byte_row(field, vec)))


def _byte_row(field: FieldSpec, vec: Sequence[int]) -> bytes:
    """vec as a byte row, one byte per symbol; ValueError names the first
    symbol outside the field."""
    q = field.q
    for c in vec:
        if not 0 <= c < q:
            raise ValueError(f"symbol {c} outside field of order {q}")
    return bytes(list(vec))


def _shift_bytes(field: FieldSpec, s: int, vec: bytes) -> bytes:
    """T on a byte row: each block rotated right by one, then theta."""
    blocks = (vec[b + s - 1 : b + s] + vec[b : b + s - 1] for b in range(0, len(vec), s))
    return b"".join(blocks).translate(field.theta_bytes)


def _blocks_bytes(s: int, polys: Sequence[SkewPoly]) -> bytes:
    if any(f.degree >= s for f in polys):
        raise ValueError("component degree exceeds s - 1")
    return b"".join(f._c.ljust(s, b"\0") for f in polys)


class CodeStructure:
    """A fully built code: generator/parity polynomials plus the RREF basis
    of the first k shift images; module_closed says whether their span holds
    T^k, i.e. is T-invariant (required unless ``generator`` is given)."""

    def __init__(self, spec: CodeSpec, generator: Optional[SkewPoly] = None):
        self.spec = spec
        F = spec.field
        s, l = spec.s, spec.l
        modulus = x_pow_minus_one(F, s)
        if generator is None:
            self.g = gcld_many(list(spec.generators) + [modulus])
        else:
            if generator.field != F:
                raise ValueError("generator over the wrong field")
            if generator.is_zero or generator.degree >= s:
                raise ValueError("generator must be nonzero of degree < s")
            self.g = generator.monic_left()
        h, r = left_divmod(modulus, self.g)
        if not r.is_zero:
            raise ConsistencyError("generator polynomial does not divide x^s - 1")
        if h * self.g != modulus:
            raise ConsistencyError("parity polynomial fails h*g = x^s - 1")
        self.h = h
        self.k = s - self.g.degree
        self.n = spec.n

        # T^0 .. T^k of the tuple: the first k are a basis, T^k decides closure
        images = [_blocks_bytes(s, spec.generators)]
        for _ in range(self.k):
            images.append(_shift_bytes(F, s, images[-1]))
        self._space = linalg.RowSpace(F, images[: self.k])
        self.pivots = self._space.pivots
        if len(self.pivots) != self.k:
            raise ConsistencyError(f"first {self.k} shift images have rank {len(self.pivots)}")
        basis = b"".join(self._space.rows())
        self.genmatrix = np.frombuffer(basis, dtype=np.uint8).reshape(self.k, self.n).copy()
        self.module_closed = self._space.contains(images[self.k])
        if generator is None and not self.module_closed:
            raise ConsistencyError(f"shift images beyond the first {self.k} leave their span")

    # -- coding operations ------------------------------------------------

    def encode(self, message: Sequence[int]) -> np.ndarray:
        """Map a length-k message to its codeword (block layout)."""
        if len(message) != self.k:
            raise ValueError(f"message length must be {self.k}")
        F = self.spec.field
        acc = np.zeros(self.n, dtype=np.uint8)
        for c, grow in zip(_byte_row(F, message), self.genmatrix):
            if c:
                acc = F.np_add[acc, F.np_mul[c][grow]]
        return acc

    def is_codeword(self, vec: Sequence[int]) -> bool:
        """Membership test in the span of the RREF basis."""
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        return self._space.contains(_byte_row(self.spec.field, vec))

    def params(self, d: Optional[int] = None) -> str:
        return f"[{self.n},{self.k}]" if d is None else f"[{self.n},{self.k},{d}]"


def build_code(
    field: FieldSpec, s: int, generators: Sequence[SkewPoly]
) -> CodeStructure:
    """Convenience wrapper: CodeSpec + CodeStructure in one call."""
    return CodeStructure(CodeSpec(field, s, tuple(generators)))


def degenerate_tuple(
    g: SkewPoly, multipliers: Sequence[SkewPoly], s: int
) -> Tuple[SkewPoly, ...]:
    """The tuple (g, f_1*g, ..., f_{l-1}*g) used by the degenerate family."""
    F = g.field
    modulus = x_pow_minus_one(F, s)
    out = [right_divmod(g, modulus)[1]]
    for f in multipliers:
        out.append(right_divmod(f * g, modulus)[1])
    return tuple(out)


def build_degenerate_code(
    field: FieldSpec, s: int, g: SkewPoly, multipliers: Sequence[SkewPoly]
) -> CodeStructure:
    """Code spanned by k = s - deg g shift images of (g, f_1*g, ...).

    g must be a right factor of x^s - 1.  Identical to the module span
    whenever the tuple is shift-closed (module_closed on the result tells).
    """
    spec = CodeSpec(field, s, degenerate_tuple(g, multipliers, s))
    return CodeStructure(spec, generator=g)
