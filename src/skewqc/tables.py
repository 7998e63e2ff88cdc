"""Bundled catalog of reference skew quasi-cyclic codes over GF(4).

Every entry records the published parameters [n, k, d] and the generator
data as coefficient strings (increasing powers, tokens 0/1/a/a^2; embedded
whitespace is ignored by the parser).  Families:

* ``index2`` / ``index34``  — degenerate construction: the generating tuple
  is (g, f_1*g, ..., f_{l-1}*g) for a right factor g of x^s - 1.
* ``nondegenerate`` / ``large-index`` — the tuple is (f_1, ..., f_l) as is.
* ``new`` — codes whose minimum distance improved the previously best known
  value for their (n, k); two are degenerate, five non-degenerate.

Entries whose source strings show transcription damage (token count not
matching s) carry note="unverified-transcription" and are reported, never
asserted, by the verification tools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .codes import CodeStructure, build_code, build_degenerate_code
from .field import gf4
from .notation import parse_coeff_string


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    family: str
    n: int
    k: int
    d: int
    s: int
    l: int
    g: Optional[str]  # present for degenerate families
    fs: Tuple[str, ...]
    h: Optional[str] = None  # parity string, when published
    note: str = ""

    @property
    def degenerate(self) -> bool:
        return self.g is not None

    @property
    def params(self) -> Tuple[int, int, int]:
        return (self.n, self.k, self.d)

    def build(self) -> CodeStructure:
        F = gf4()
        fs = [parse_coeff_string(F, t) for t in self.fs]
        if self.g is not None:
            return build_degenerate_code(F, self.s, parse_coeff_string(F, self.g), fs)
        return build_code(F, self.s, tuple(fs))


def _deg(family: str, n: int, k: int, d: int, l: int, g: str, *fs: str, **kw) -> CatalogEntry:
    s = n // l
    name = f"{family}-l{l}-{n}-{k}-{d}"
    return CatalogEntry(name, family, n, k, d, s, l, g, tuple(fs), **kw)


def _gen(family: str, n: int, k: int, d: int, *fs: str, **kw) -> CatalogEntry:
    l = len(fs)
    s = n // l
    name = f"{family}-l{l}-{n}-{k}-{d}"
    return CatalogEntry(name, family, n, k, d, s, l, None, tuple(fs), **kw)


INDEX2: Tuple[CatalogEntry, ...] = (
    _deg("index2", 40, 9, 21, 2, "aa^200a1a^2a^210a1", "a0000aa^201"),
    _deg("index2", 40, 10, 20, 2, "a^2a^2a01a0aa^211", "a^2a^2a^200a1aa^21"),
    _deg("index2", 40, 11, 19, 2, "a10aaaa^21a1", "a11aa^2100a^201"),
    _deg("index2", 40, 12, 18, 2, "101a^200aa^21", "1a100aaaaa^2a1"),
    _deg("index2", 40, 14, 16, 2, "10a^21a01", "11aaa^2a011"),
    _deg("index2", 40, 16, 15, 2, "10001", "aa0a^201011a^21a^20a^2"),
    _deg("index2", 40, 17, 14, 2, "a^21a^21", "a^2a1a^210a^20a0a^2a^2a^20a^211"),
    _deg("index2", 44, 12, 20, 2, "11111aa11a^21", "a000a^2a^2aa0a^2a1"),
    _deg("index2", 48, 11, 24, 2, "1aa^21a0a^2a100101", "aaaaa^21a10a1"),
    _deg("index2", 48, 12, 23, 2, "a110a^21a^2a11a^2a^21", "1a^20110010a11"),
    _deg("index2", 48, 13, 22, 2, "a^2aa^200a100111",
         "a^2 0 a^2 1a0a^2a^2a^2aaa^21",
         note="emended: source prints f = 0001a0a^2a^2a^2aaa^21, which spans "
              "dimension 21; restoring coefficients of x^0 and x^2 to a^2 is "
              "the unique <=2-token repair reproducing the published (k, d)"),
    _deg("index2", 48, 14, 21, 2, "11a^2a^2a10a^2101", "1a11010a1a^2aa11"),
    _deg("index2", 48, 15, 20, 2, "a^2a01a1a^2111", "1aa^2a^2a^2a^2a^2a0aa1a11"),
    _deg("index2", 48, 16, 19, 2, "a00101a^2a1", "a^2a0a1a1aa1aa^2aa^2a^21"),
    _deg("index2", 52, 13, 24, 2, "a^2a^2aa^210a^21a11aa1", "aa^211aa^21a^2a^2a^2a^211"),
    _deg("index2", 60, 11, 32, 2, "aaa^2a^2a^2a^211aa110000aa11", "aa^2aa^20aa^2a1a^21"),
    _deg("index2", 60, 14, 28, 2, "11a^2a11a^2a^2a^2a^2aa^2a^2a^2a^2a1", "a^20a^2a0a110a^21011"),
)

INDEX34: Tuple[CatalogEntry, ...] = (
    _deg("index34", 48, 11, 24, 3, "1a01a^21", "1aa^21a1aa111", "a^2a^2aa111"),
    _deg("index34", 48, 13, 22, 3, "a1a1", "aa^2a0aa01aa101", "aa^2a^2011a11"),
    _deg("index34", 48, 14, 21, 3, "a^2a^21", "a^2a^21aaaa^2a^20aaa01", "1a^2aa01a^21"),
    _deg("index34", 48, 15, 20, 3, "a1", "0a^2a^211a0a^21aa^20aa1", "aaa1100a^21"),
    _deg("index34", 54, 13, 26, 3, "a1a1a1", "a1a^201a^2a0a^2a101", "a^2a^21a^20001"),
    _deg("index34", 54, 15, 24, 3, "aa11", "a^2a^2a^21aaa1aa^20a^20a1", "a0aa^20a^2a^2a11a^21"),
    _deg("index34", 60, 14, 28, 3, "a^20aaa01", "111a00aa^210a0a^21", "10a111aa^2a1a^2aa1"),
    _deg("index34", 60, 18, 25, 3, "aa1", "1a1a01aa^2a^2a^2aa^200a^21a^21", "a^2a^2a011a^21aa^2101"),
    _deg("index34", 60, 19, 24, 3, "a1", "00a^2a^2aaaa^21a^21a^2a^2a^2aa^2111", "1aa^20a^21a11a^2a11"),
    _deg("index34", 72, 21, 28, 3, "1aa1", "000a1aa^21a^200aaaa^2aa^2a^2011", "0aa1a^20a^211aa00a1"),
    _deg("index34", 72, 19, 30, 3, "a^2a1001", "1a^2a10a^2a0a^2aa01aaaaa1", "1a^21a^2a^2a1111"),
    _deg("index34", 72, 15, 34, 3, "aaa^21a1aa^211", "a^20a0aa^2a^211a^2aa0a^21",
         "01aa10a0a^2a^21",
         note="not module-closed as printed: the full shift closure has "
              "dimension 22; the 15-row shift span reproduces d = 34 exactly"),
    _deg("index34", 56, 11, 29, 4, "11a1", "0a^200a01a^2", "0a^21a1aa^21", "1a^210aa1a^2a^2"),
    _deg("index34", 56, 12, 28, 4, "101", "a a^2 0 0 a^2 a 1 0 0 a a",
         "a^21a^2a^2a0aa^2aa^2a^2", "a^2a0aaa^21",
         note="emended: source prints f1 = aa^20a^2a100aa, which gives d = 26; "
              "restoring a dropped 0 at the x^3 coefficient is the unique "
              "single-token repair reproducing the published (k, d)"),
    _deg("index34", 64, 13, 32, 4, "a1a1", "11aa1011a^2a^2a", "a^2000a", "10a1a^2011"),
    _deg("index34", 64, 14, 31, 4, "101", "0a1a01a^2a^20aa^2", "1aaa^2a000a^2a^21a", "aa^2a^211a^20aa"),
    _deg("index34", 64, 15, 30, 4, "a^21", "aa11aa^21aaaa", "a^2a^201aa^2aa^2001",
         "1a^2 0 01a1a1",
         note="emended: source prints f3 = 1a^201a1a1 (8 tokens), which spans "
              "dimension 16; restoring a dropped 0 at the x^2 coefficient is "
              "the unique single-token repair reproducing the published (k, d)"),
    _deg("index34", 80, 17, 38, 4, "1111", "a^2a^201aaaa01a^2aa^2a", "11a11aa00aaa^2", "a^2111aa^21aaa1a^20a^2"),
    _deg("index34", 72, 15, 34, 4, "1a^2a1", "0a1011a^2a^20aa^21a", "a010a0a^2a^210aa", "a^201aaa^2"),
    _deg("index34", 96, 20, 44, 4, "10101", "11a^2a000110a^2a^2a0aa^2aa^2", "a0111aaa^20aaa^20a^2a^2", "a^2a^210a^210a"),
    _deg("index34", 96, 23, 41, 4, "a^21", "01aa^2a^21a^200aa^210aaa^2a1", "0aaa^2a^2a^2a^2aa0a^2a00a^2a^2a", "a^2101a^2aaa^21a01a10aa"),
    _deg("index34", 112, 24, 48, 4, "1a^2a01", "00a1a^2a^21000a^2a^21a^200a0a101",
         "a^2aa^2a^2a^21aa^2a01a1a^2a^211a1", "00a^2a00a^2a0a^21a^2101",
         note="not module-closed as printed (closure dimension 27); built "
              "from the 24-row shift span"),
    _deg("index34", 112, 22, 50, 4, "aaa^2a^2a11", "a^21a^2a1a0a^2a^21110a^211",
         "11a1a^2a^210a11a0a^2", "0a^20aaa^2a100a^21a^2a^2",
         note="not module-closed as printed (closure dimension 28); built "
              "from the 22-row shift span"),
    _deg("index34", 120, 21, 57, 4, "aa1aa^2a^211a1", "a^21a^2aa^2a011aa00aa1", "00aa^2aa^21a^20a^200a^2a^20a^2a^2", "1aa0a^2a^2100a^2"),
    _deg("index34", 120, 23, 54, 4, "a010a0a^21", "1a^211a0a00aa^2100a",
         "010a110aa^200a^211a^2aa^2", "aa0aa^200a^21a11001a1a",
         note="not module-closed as printed (closure dimension 30); built "
              "from the 23-row shift span"),
    _deg("index34", 120, 25, 52, 4, "11a^2a^211", "001a00a^2a^21a^21aaaa111",
         "a^20a^2aa1a^21a^2aaa11a^2a", "a^21a^2a00aaa^2a^21a000aaa^2a^2a^21a^2",
         note="not module-closed as printed (closure dimension 30); built "
              "from the 25-row shift span"),
)

NONDEGENERATE: Tuple[CatalogEntry, ...] = (
    _gen("nondegenerate", 40, 20, 12,
         "a^21aaa^2a^2aaaa1aa1010aaa",
         "0a1 0a1aa11a10a 0 1 1 0 1 0"),
    _gen("nondegenerate", 30, 10, 14,
         "a^2aa00a10aa", "000a^2a^2a1a1a^2", "0a^21aa^20aa^21a"),
    _gen("nondegenerate", 36, 12, 16,
         "0 a a^2 0 0 a 0 0 a^2 a^2 a^2 a",
         "011a1a^21a^20aa^20",
         "a^2 a 0 0 a^2 a a a 1 1 a a"),
    _gen("nondegenerate", 42, 14, 18,
         "a a a a^2 1 a^2 a a 1 0 a^2 a^2 a a",
         "a^2 a^2 0 a^2 a^2 a a a 1 0 0 a^2 0 0",
         "1 0 0 a^2 a^2 1 a^2 a^2 a^2 1 a^2 1 0 0"),
    _gen("nondegenerate", 48, 16, 19,
         "a^2 a^2 0 0 a^2 a a a 0 1 1 0 a a 1 a",
         "0 0 1 0 a^2 0 a^2 a 1 a 0 a a a^2 a a",
         "a^2 1 a^2 1 a^2 1 0 1 a 1 a^2 a 0 0 a^2 0"),
    _gen("nondegenerate", 66, 22, 25,
         "a^2 1 0 a a^2 a^2 a 1 a 0 0 a^2 0 0 0 1 0 a 1 a 0 1",
         "0 0 1 a 0 a^2 0 1 a^2 0 a^2 a a a 0 a 0 1 1 a a 0",
         "1 0 0 0 0 0 a^2 1 1 0 a a a a a^2 0 a 0 a 0 a^2 a^2"),
    _gen("nondegenerate", 40, 10, 20,
         "1 a^2 a^2 a a^2 a^2 a^2 a^2 a^2 a",
         "0 a^2 1 1 0 a a^2 a 1 1",
         "a^2 a a^2 a 0 0 0 a^2 a^2 1",
         "a^2 a 0 a^2 1 a 0 a a 0"),
    _gen("nondegenerate", 48, 12, 23,
         "0 1 a^2 a^2 a a^2 0 a^2 a^2 a^2 0 1",
         "a^2 0 a a a^2 1 a a a^2 0 a 1",
         "a a a a^2 a^2 1 0 a^2 a^2 0 0 0",
         "0 a^2 a a a a a 0 1 a^2 a 0"),
    _gen("nondegenerate", 72, 18, 32,
         "a 0 a^2 1 1 a a^2 a^2 0 a 1 1 a^2 a^2 0 a^2 0 0",
         "1 0 0 1 0 1 1 a 1 a 0 a a 0 1 1 a^2 0",
         "0 1 0 a a^2 0 a^2 a 0 a^2 a^2 a 0 0 0 0 a 0",
         "a a 1 0 0 0 a 1 0 a 0 0 1 a 0 a^2 1 a"),
    _gen("nondegenerate", 80, 20, 35,
         "a^2 a^2 1 1 a 1 a^2 a 1 1 a a 0 1 a^2 0 0 a a^2 0",
         "1 0 a^2 a a^2 a a 1 a a^2 a 0 a^2 1 a a a^2 0 a^2 0",
         "a^2 1 a a^2 0 a^2 a^2 1 1 1 a^2 0 1 0 1 1 a a 1 a",
         "1 0 a 0 a^2 0 0 a^2 a^2 a^2 1 1 0 a^2 a^2 1 1 a a 0"),
    _gen("nondegenerate", 96, 24, 40,
         "a 0 a 0 0 1 0 1 1 a^2 a^2 a 1 1 1 1 a^2 a^2 0 a 0 0 0 a^2",
         "0 a^2 1 1 1 0 0 0 a^2 1 0 0 0 1 0 1 a a a^2 0 a^2 0 1 a",
         "a 1 a a^2 0 a^2 a^2 a a^2 a 1 a^2 a^2 0 0 1 a^2 a^2 a a 0 a 0 a",
         "a a 0 1 a 1 0 1 a^2 1 a 0 1 0 a^2 0 1 1 a 0 0 a a a"),
)

LARGE_INDEX: Tuple[CatalogEntry, ...] = (
    _gen("large-index", 60, 12, 31,
         "a^2 a^2aa^2a^2a 1a1010",
         "a a 1 a^2 0 1 1 a a^2 1 a a^2",
         "0 a^2 1 a a^2 a^2 a a a a^2 1 0",
         "a^2 0 a^2 a 1 a^2 a 0 a^2 0 1 1",
         "a 1 0 0 a^2 1 1 a a^2 1 a a"),
    _gen("large-index", 60, 10, 33,
         "1 a^2 0 1 0a^2 0 a^2 10",
         "a a 1 a^2 1 a 0 0 a^2 0",
         "a 0 a 1 1 0 a^2 a^2 a 1",
         "0 0 1 a a 1 a a 0 a",
         "1 1 a 0 1 a^2 a^2 1 a^2 0",
         "a^2 1 0 a 1 0 a^2 a 1 0"),
    _gen("large-index", 100, 20, 46,
         "a^2 a^2 0 1 a a1 a^2 00 1a a^2 a^20 a 1 0 1 a^21 a^2 0",
         "1 1 a^2 a a^2 0 a 1 1 a^2 0 1 0 a a^2 a^2 a^2 a 1 0",
         "1 a a 0 0 1 a a^2 1 0 a^2 a^2 a 0 1 a a^2 1 1 0",
         "1 a 0 0 a^2 a a^2 1 0 0 a^2 a^2 a 0 1 0 1 1 a^2 a",
         "1 a^2 1 a^2 1 a 0 1 0 a^2 0 1 1 1 a^2 0 a^2 1 a 1",
         note="unverified-transcription"),
    _gen("large-index", 110, 22, 50,
         "1 0 a a0 a^2 0 1a^2 1 0 0 a 0 a^2 a 0 a^2 0",
         "a^2 a 0 1 0 1 a a^2 1 a^2 a^2 1 a^21 1 aa a^2 0 0 a^2 1",
         "0 a a^2 0 1 a 0 a a^2 a a a a^2 1 a^2 1 0 1 a^2 a^2 a^2 1",
         "1 a 1 a 0 0 0 0 a a^2 a^2 a 0 a^2 1 1 0 1 a 1 a^2 0",
         "a^2 1 0 0 0 0 a^2 0 a^2 a a a 0 1 a^2 a a^2 a a a^2 a a^2",
         note="unverified-transcription"),
    _gen("large-index", 72, 12, 38,
         "0 a^2 0 a^2 0 1 a a^2 a^2 1 a 0",
         "a 0 a^2 a^2 a 1 a^2 1 1 a 1 a^2",
         "a^2 1 a a^2 0 1 0 0 a a^2 0 a^2",
         "1 1 a a^2 0 0 1 a^2 a 1 a a",
         "1 a^2 a a^2 a 1 a a^2 a^2 a 1 1",
         "a^2 a^2 a^2 a a 1 a^2 a^2 1 0 1 a^2"),
    _gen("large-index", 96, 16, 48,
         "00a a^2 a a 0a^20a^2 0 a^2 a^2 0a^2 a^2",
         "a a a 0 1 0 1 1 1 1 1 a^2 1 0 a^2 a^2",
         "0 1 1 1 a^2 0 0 aa^2 a a^2 a^2 a^2 0 a a",
         "0 a 1 a 0 a^2 1 a 0 0 1 0 1 a^2 1 1",
         "0 0 a 1 0 a^2 1a 1 a 1 a a 1 0 a^2",
         "a a^2 1 a^2 0 1 a^2 a^2 a^2 a^2 a 0 1 1 1 1"),
    _gen("large-index", 70, 10, 40,
         "0 a^2 a a^2 0 0 1 1 a^2 a",
         "a a 0 1 0 0 1 0 1 a^2",
         "a^2 a^2 1 1 a^2 a a^2 1 a^2 0",
         "0 1 a^2 0 1 a^2 0 1 1 a^2",
         "0 0 a^2 0 a 1 a^2 a a^2 a^2",
         "a^2 a 0 0 1 1 1 a 0 a",
         "0 a^2 1 0 a^2 a a^2 1 a^2 a"),
    _gen("large-index", 140, 20, 71,
         "1 a^2 1 a^2 a a^2 a^2 a 1a^2a^2 0 a^2 a a^2 0 a^2 a a^2 0",
         "a^2 0 1 1 a a^2 a 0 a^2 a^2 1 a^2 a 0 a 0 1 a^2 a a",
         "a a a^2 a a^2 a a^2 1 a 1 a^2 a 1 0 a a^2 a a a^2 0",
         "a^2 a a^2 0 a^2 a a^2 1 a^2 a a 0 1 0 a a^2 a a 0 1",
         "1 a^2 0 1 0 a a^2 1 a a^2 a 0 a^2 a^2 a 0 a 0 a^2 1",
         "a^2 1 a^2 0 1 a^2 a 1 0 a 1 0 0 a^2 a^2 a a 1 0 a^2",
         "0 1 a^2 a^2 1 a^2 a 1 a^2 a^2 a^2 a^2 1 a^2 0 a^2 0 0 0 a^2"),
    _gen("large-index", 96, 12, 54,
         "a^2 a^20 a a^20 1 0 0 0 a 1",
         "0 a^2 0 1 0 a^2 a^2 a a a a^2 0",
         "1 a a 0 1 a 1 0 1 a a^2 a^2",
         "a^2 a a^2 0 a 0 a a^2 0 1 a^2 a^2",
         "1 1 0 1 0 1 a 0 a^2 a 0 1",
         "0 a a^2 1 1 0 a^2 0 0 0 a a",
         "a^2 a a a 0 a^2 1 0 a^2 0 a^2 a^2",
         "a 0 0 1 a^2 a^2 a^2 a 1 0 a 0"),
    _gen("large-index", 160, 20, 84,
         "a a^2 a^2 a^2 1 0 a^2 0 0a 1 a 1 a a 1 a^2 0 a a^2",
         "0 a a 1 a^2 0 0 1 a^2 1 a a^2 a a a^2 a 0 a^2 a a",
         "a^2 1 0 0 a^2 a 1 a a 1 0 a^2 a^2 0 a^2 0 a a a^2 1",
         "0 1 a^2 1 1 a 1 1 a a 1 a^2 0 1 1 a^2 0 a a a",
         "0 a 1 0 1 a 0 1 0 a^2 a^2 a^2 a 1 a^2 0 0 1 0 0",
         "1 a a 0 0 a^2 1 a^2 1 0 1 a 0 1 0 1 a^2 0 0 1",
         "1 0 1 1 a a^2 a^2 1 a^2 a a a a^2 1 0 a 1 1 a^2 a^2",
         "1 a^2 a 0 a a 1 0 a^2 0 a a 1 1 1 a 1 a^2 0 a"),
    _gen("large-index", 144, 16, 80,
         "1 1 a 1 0 a^2 1 a^2 0 0 0 1 0 a a^2 a",
         "a^2 a^2 0 a a a^2 a a^2 a^2 a^2 0 a 1 1 a^2 1",
         "0 1 a^2 1 1 a a 1 a 0 1 a a^2 1 a^2 a",
         "1 1 0 a^2 0 a a 0 0 a a a^2 a a a^2 a^2",
         "a 0 1 0 a 0 111 a a^2 0 a^2 a a^2 0",
         "0 a 0 a^2 1 0 a^2 1 0 1 0 1 1 1 1 a^2",
         "a a 1 1 a 0 1 a^2 1 1 a 1 a^2 a 1 a",
         "a 1 0 a^2 1 0 a 0 a^2 a^2 1 1 0 0 a a",
         "a^2 0 1 a 1 a a^2 1 0 0 a a a 0 a^2 a"),
)

NEW_CODES: Tuple[CatalogEntry, ...] = (
    _deg("new", 48, 12, 24, 2,
         "a^2a^2aaa^21aa1a001", "a10aaa^21a^20aa^21",
         h="aa^2a^2aa1a^2a1a001"),
    _deg("new", 72, 21, 29, 3,
         "10a^21",
         "10a00a^2a11a^21a^2a^2a^2aa^201011",
         "0a0a000a^21110a^21",
         h="10a^21a10010a^21a10010a^21a1"),
    _gen("new", 48, 16, 20,
         "0a^2a^2a0a^210a^20a11a^2a^21",
         "100a^20a^2a^2aa^21a^21a^20a^20",
         "a^2aa0a^20aa1a^2aaa0aa"),
    _gen("new", 96, 16, 49,
         "0a^2a^21aa^20aa100a^2a0a",
         "1a^2a^2aa00a^2a^211a^21a0a^2",
         "0a^2a^200aaaa^21a1a^20aa^2",
         "a0a^200a0a^2aa0aa1a^21",
         "a^2011011a^21a1a^2a111",
         "a100a^2a^2a^2a1a001aa^2a^2"),
    _gen("new", 100, 20, 47,
         "a00a^2a^2001a^2a^2a^2011a1a^2a11",
         "01a^20a1a01a^21a1a01001a^2",
         "a1aa1001aa^20000a^2a1a^2a^21",
         "1a1aa11a^2a^2aa^20a^2a0010a^21",
         "a^20111aa^21a^2aa^2a^2a0a^201a11"),
    _gen("new", 140, 20, 72,
         "1a^2a^2aa1a10aa^210a01a^2a^201",
         "aa0a^201a^2aa0a0a1aa1a10",
         "a^2a^2a^21aa^2a1a0aaa^2a^20aa0aa",
         "10001aaa^20a010a^2a^2a0010",
         "a11001a1a^2a^21aa^210aa^21a^2a",
         "a^20a^210a^211a^2a^2a^21a^2a^20a^20110",
         "a^21011000a^2a^201a^201a^2aa^2a^21"),
    _gen("new", 110, 22, 51,
         "1a^2010aa0a^201a^2100a0a^2a0a^20",
         "a^2a0101aa^21a^2a^21a^211aaa^200a^21",
         "00a^2a00a^201a^2aa100a0a^2a11a^2",
         "01a01010a^211a01100a^2a^2a1a",
         "a^20a0a^2a^2a00a^2a10a0aaa1a^21a"),
)

#: the full printed weight distribution of the [48,12,24] record code
FLAGSHIP_ENUMERATOR: Dict[int, int] = {
    0: 1, 24: 3390, 25: 4608, 26: 19944, 27: 25968, 28: 99612, 29: 124272,
    30: 388872, 31: 427392, 32: 1125315, 33: 958464, 34: 2102544,
    35: 1529568, 36: 2798568, 37: 1613664, 38: 2320272, 39: 1078272,
    40: 1224378, 41: 436608, 42: 345096, 43: 84528, 44: 54972, 45: 8112,
    46: 2664, 48: 132,
}


def catalog() -> Tuple[CatalogEntry, ...]:
    """All bundled entries, stable order."""
    return INDEX2 + INDEX34 + NONDEGENERATE + LARGE_INDEX + NEW_CODES


def families() -> Tuple[str, ...]:
    return ("index2", "index34", "nondegenerate", "large-index", "new")


def entries(family: Optional[str] = None) -> Tuple[CatalogEntry, ...]:
    if family is None:
        return catalog()
    if family not in families():
        raise ValueError(f"unknown family {family!r}")
    return tuple(e for e in catalog() if e.family == family)


def get(name: str) -> CatalogEntry:
    for e in catalog():
        if e.name == name:
            return e
    raise KeyError(name)
