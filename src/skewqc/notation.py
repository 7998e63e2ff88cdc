"""Text codec for skew polynomials.

The wire format is a *coefficient string*: the tokens of the coefficients in
increasing powers of x, spelled as ``FieldSpec.tokens`` spells the elements.
For GF(4) the four tokens are ``0 1 a a^2`` and the string is written densely
with no separators, e.g. ``a001aa^21`` reads as

    a + x^3 + a*x^4 + a^2*x^5 + x^6

For GF(2) the dense alphabet is ``0 1``.  A dense string is read by one
reader over the field's own spellings, longest first, so ``a^2`` is one
token and ``a^3`` fails at the ``^``.  For every other field the tokens
(``0``, ``1``, ``g``, ``g^k`` for a fixed generator g, or plain digits for a
prime field) are separated by whitespace or commas.
"""

from __future__ import annotations

import re
from typing import List

from .field import FieldSpec
from .skewpoly import SkewPoly


def _read_dense(field: FieldSpec, text: str) -> List[int]:
    """The elements a dense string spells, read longest spelling first."""
    spellings = sorted(field.token_to_element, key=len, reverse=True)
    token = "|".join(map(re.escape, spellings))
    end = re.match(f"(?:{token})*", text).end()  # where the spellings stop
    if end < len(text):
        raise ValueError(f"invalid character {text[end]!r} at position {end}")
    return [field.token_to_element[t] for t in re.findall(token, text)]


def parse_coeff_string(field: FieldSpec, text: str) -> SkewPoly:
    """Parse a coefficient string (increasing powers) into a SkewPoly."""
    parts = text.replace(",", " ").split()
    if field.q in (2, 4):
        coeffs = _read_dense(field, "".join(parts))
    else:
        coeffs = [field.parse_token(tok) for tok in parts]
    if not coeffs:
        raise ValueError("empty coefficient string")
    return SkewPoly(field, coeffs)


def poly_coeff_string(f: SkewPoly) -> str:
    """Inverse of parse_coeff_string; the zero polynomial prints as '0'."""
    if f.is_zero:
        return "0"
    tokens = [f.field.tokens[c] for c in f.coeffs]
    return "".join(tokens) if f.field.q in (2, 4) else " ".join(tokens)


def poly_to_terms(f: SkewPoly) -> str:
    """Human-readable form, highest power first, e.g. 'x^3 + a^2*x^2 + 1'."""
    if f.is_zero:
        return "0"
    tokens = f.field.tokens
    parts = []
    for k in range(f.degree, -1, -1):
        c = f.coeff(k)
        if not c:
            continue
        tok = tokens[c]
        if k == 0:
            parts.append(tok)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            parts.append(xs if c == 1 else f"{tok}*{xs}")
    return " + ".join(parts)
