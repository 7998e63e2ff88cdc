"""Exact Gaussian elimination over a tabulated finite field.

Matrices are plain lists of rows of int-encoded field elements.  Sizes in
this package stay small (a few hundred rows at most), so straightforward
elimination with table lookups is both fast enough and easy to audit.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .field import FieldSpec


def rref(field: FieldSpec, rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
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

