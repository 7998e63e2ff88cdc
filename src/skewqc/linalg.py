"""Exact Gaussian elimination over a tabulated finite field.

``RowSpace`` takes byte rows (one byte per symbol, the layout of the shift
images in ``codes``) and keeps its reduced basis in the form that is fastest
for the field's characteristic, chosen by ``field.p``:

* p = 2: a row is one Python int whose byte j (little-endian) is symbol j.
  Adding rows is one XOR, entry j is ``(row >> 8j) & 255``, and scaling by c
  is one ``bytes.translate`` through ``field.mul_bytes[c]``.
* odd p: a row is a list of ints, and ``_rref_lists`` both reduces rows and
  tests membership (does appending the row keep the rank?).  Addition is
  digit-wise mod p there, so no single int or bytes operation adds two rows.

Sizes in this package stay small (a few hundred columns, a few dozen rows),
and both forms return the same unique reduced row echelon form; the tests
compare the packed one with ``_rref_lists``.

``order`` sets the order in which pivot columns are chosen: the rows are
reduced with their columns taken in that order, as if permuted by it, and
every row and pivot that ``RowSpace`` hands out is in the original
coordinates.  Without it the columns are taken left to right.  The
distance engine reads its information sets from it: the columns not yet
used first, so that the pivots land there as far as their rank allows.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from .field import FieldSpec


class RowSpace:
    """The reduced row echelon basis of byte rows of length n over a field
    (n = 0 without rows: the empty basis spans only the zero vector).

    ``pivots`` are the pivot columns in the order chosen (increasing
    without ``order``), ``rows()`` the basis rows as bytes in pivot order,
    and ``contains`` tests a byte row for membership in the span.  The basis
    is kept in the permuted coordinates; ``rows()`` and ``contains`` map
    between them and the original ones."""

    def __init__(self, field: FieldSpec, rows: Sequence[bytes],
                 order: Optional[Sequence[int]] = None):
        self.field = field
        self.n = len(rows[0]) if rows else 0
        self._take = self._put = None  # column permutation and its inverse
        if order is not None:
            order = list(order)
            if sorted(order) != list(range(self.n)):
                raise ValueError(f"order must be a permutation of the {self.n} columns")
            if order != sorted(order):  # so n >= 2 and each getter returns a tuple
                inverse = sorted(range(self.n), key=order.__getitem__)
                self._take, self._put = itemgetter(*order), itemgetter(*inverse)
                rows = [bytes(self._take(r)) for r in rows]
        if field.p == 2:
            packed = [int.from_bytes(r, "little") for r in rows]
            self._basis, self._pivots = self._rref_packed(packed)
        else:
            mat, self._pivots = _rref_lists(field, rows)
            self._basis = mat[: len(self._pivots)]
        self.pivots = self._pivots if self._take is None else [order[c] for c in self._pivots]

    def rows(self) -> List[bytes]:
        if self.field.p == 2:
            out = [r.to_bytes(self.n, "little") for r in self._basis]
        else:
            out = [bytes(r) for r in self._basis]
        return out if self._put is None else [bytes(self._put(r)) for r in out]

    def contains(self, vec: bytes) -> bool:
        if self._take is not None:
            vec = bytes(self._take(vec))
        if self.field.p == 2:
            return not self._reduce_packed(int.from_bytes(vec, "little"))
        return len(_rref_lists(self.field, self._basis + [vec])[1]) == len(self.pivots)

    # -- characteristic 2: packed rows --------------------------------------

    def _scaled(self, row: int, c: int) -> int:
        if c == 1:
            return row
        table = self.field.mul_bytes[c]
        return int.from_bytes(row.to_bytes(self.n, "little").translate(table), "little")

    def _reduce_packed(self, v: int) -> int:
        """v minus its components along the basis: zero exactly when v lies
        in the span."""
        for pc, row in zip(self._pivots, self._basis):
            c = v >> 8 * pc & 255
            if c:
                v ^= self._scaled(row, c)
        return v

    def _rref_packed(self, rows: List[int]) -> Tuple[List[int], List[int]]:
        """Column by column: a row whose leading symbol is lowest becomes the
        next pivot row, scaled to a leading 1, and its column is cleared from
        every other row with one XOR each (at most q - 1 multiples of the
        pivot row are made).  Only the rows that led in that column change
        their leading symbol."""
        inv = self.field.inv
        basis: List[int] = []
        pivots: List[int] = []
        todo = [r for r in rows if r]
        leads = [_lead(r) for r in todo]
        while todo:
            c = min(leads)
            at = leads.index(c)
            del leads[at]
            v = todo.pop(at)
            shift = 8 * c
            v = self._scaled(v, inv[v >> shift & 255])
            multiples = {1: v}

            def clear(row: int) -> int:
                e = row >> shift & 255
                if not e:
                    return row
                m = multiples.get(e)
                if m is None:
                    m = multiples[e] = self._scaled(v, e)
                return row ^ m

            basis[:] = map(clear, basis)
            for i, lead in enumerate(leads):
                if lead == c:
                    todo[i] = clear(todo[i])
                    leads[i] = _lead(todo[i])
            if 0 in todo:
                leads = [lead for lead, r in zip(leads, todo) if r]
                todo = [r for r in todo if r]
            basis.append(v)
            pivots.append(c)
        return basis, pivots


def _lead(row: int) -> int:
    """The column of the lowest nonzero symbol of a packed row (-1 for 0)."""
    return ((row & -row).bit_length() - 1) >> 3


def _rref_lists(field: FieldSpec, rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int]]:
    """(matrix, pivot columns) of the reduced row echelon form, by list
    elimination for any field: the basis in pivot order, then zero rows."""
    mat = [list(r) for r in rows]
    if not mat:
        return mat, []
    ncols = len(mat[0])
    mul, sub, inv = field.mul, field.sub, field.inv
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        scale = mul[inv[prow[c]]]
        for j in range(c, ncols):
            prow[j] = scale[prow[j]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                row = mat[i]
                factor = mul[row[c]]
                for j in range(c, ncols):
                    pj = prow[j]
                    if pj:
                        row[j] = sub[row[j]][factor[pj]]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots
