"""The packed row reduction of characteristic 2 against the list elimination.

``linalg.RowSpace`` reduces packed rows over GF(2^e); ``linalg._rref_lists``
is the list elimination that odd p runs and that the reference builds in
``oracles.py`` use.  The reduced row echelon form of a matrix is unique, so
matrix and pivots must be equal on every input.
"""

import random

import pytest

from oracles import polys_to_blocks
from skewqc.codes import skew_shift
from skewqc.field import make_field
from skewqc.linalg import RowSpace, _rref_lists
from skewqc.tables import catalog

CHAR2 = {"GF(2)": (2, 1, 1), "GF(4)": (2, 1, 2), "GF(8)": (2, 1, 3),
         "GF(16)": (2, 2, 2), "GF(256)": (2, 4, 2)}


def _checked_row_space(F, rows):
    """The ``RowSpace`` of rows, checked against ``_rref_lists``: the same
    pivots and the same basis rows."""
    space = RowSpace(F, [bytes(r) for r in rows])
    mat, pivots = _rref_lists(F, rows)
    assert space.pivots == pivots
    assert space.rows() == [bytes(r) for r in mat[: len(pivots)]]
    return space


def _first_images(code):
    """T^0 .. T^(k-1) of the code's tuple, the rows a build reduces."""
    F, s = code.spec.field, code.spec.s
    rows = [polys_to_blocks(code.spec, code.spec.generators)]
    while len(rows) < code.k:
        rows.append(skew_shift(F, s, rows[-1]))
    return rows


def test_packed_rref_matches_the_list_elimination_on_permuted_catalog_images():
    """Every catalog row's first k shift images, under 5 seeded column
    permutations each."""
    rng = random.Random(2101)
    checked = 0
    for entry in catalog():
        code = entry.build()
        F = code.spec.field
        assert F.p == 2
        images = _first_images(code)
        for _ in range(5):
            order = list(range(code.n))
            rng.shuffle(order)
            rows = [[row[j] for j in order] for row in images]
            assert len(_checked_row_space(F, rows).pivots) == code.k
            checked += 1
    assert checked == 5 * 72


@pytest.mark.parametrize("name", list(CHAR2))
def test_packed_rref_matches_the_list_elimination_on_random_matrices(name):
    """Full-rank and rank-deficient matrices, zero rows, repeated rows and
    sparse rows, of every shape up to 12 x 40."""
    F = make_field(*CHAR2[name])
    rng = random.Random(name)
    ranks = set()
    for _ in range(150):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 40)
        rows = [[rng.randrange(F.q) if rng.random() < rng.choice((0.2, 1.0)) else 0
                 for _ in range(ncols)] for _ in range(nrows)]
        kind = rng.randrange(4)
        if kind == 1:  # a zero row
            rows[rng.randrange(nrows)] = [0] * ncols
        elif kind == 2 and nrows > 1:  # a multiple of another row plus a third
            a, b, c = (rng.randrange(nrows) for _ in range(3))
            lam = rng.randrange(F.q)
            rows[a] = [F.add[F.mul[lam][x]][y] for x, y in zip(rows[b], rows[c])]
        elif kind == 3:  # rank at most 2 whatever the shape
            basis = [rows[0], rows[-1]]
            rows = [[F.add[F.mul[u][x]][F.mul[v][y]] for x, y in zip(*basis)]
                    for u, v in ((rng.randrange(F.q), rng.randrange(F.q)) for _ in rows)]
        ranks.add(len(_checked_row_space(F, rows).pivots) < nrows)
    assert ranks == {True, False}  # both full-rank and deficient inputs occurred


@pytest.mark.parametrize("name", ["GF(4)", "GF(256)", "GF(9)"])
def test_row_space_membership_agrees_with_rank(name):
    """contains(v) exactly when appending v keeps the rank, over packed
    (characteristic 2) and list (odd p) rows."""
    F = make_field(3, 1, 2) if name == "GF(9)" else make_field(*CHAR2[name])
    rng = random.Random(7)
    seen = set()
    for _ in range(100):
        ncols = rng.randint(1, 30)
        rows = [[rng.randrange(F.q) for _ in range(ncols)] for _ in range(rng.randint(0, 6))]
        space = _checked_row_space(F, rows)
        combo = [0] * ncols
        for r in rows:
            lam = rng.randrange(F.q)
            combo = [F.add[a][F.mul[lam][b]] for a, b in zip(combo, r)]
        for v in (combo, [rng.randrange(F.q) for _ in range(ncols)]):
            inside = len(_rref_lists(F, rows + [v])[1]) == len(space.pivots)
            assert space.contains(bytes(v)) == inside
            seen.add(inside)
    assert seen == {True, False}


def test_rref_keeps_one_row_per_input_row():
    F = make_field(2, 1, 2)
    assert _rref_lists(F, []) == ([], [])
    # (0, a, a^2) and a times it: rank 1, the zero rows last
    assert _rref_lists(F, [[0, 0, 0], [0, 2, 3], [0, 3, 1]]) == (
        [[0, 1, 2], [0, 0, 0], [0, 0, 0]], [1])


@pytest.mark.parametrize("name,spec", list(CHAR2.items()) + [("GF(9)", (3, 1, 2)), ("GF(3)", (3, 1, 1))])
def test_column_order_chooses_the_pivots_in_the_original_coordinates(name, spec):
    """RowSpace(field, rows, order) is the reduction of the rows with their
    columns permuted by ``order``, mapped back: pivots are original columns
    in the order chosen, each basis row is 1 on its pivot and 0 on the
    others, the span is the same, and an identity order changes nothing."""
    F = make_field(*spec)
    rng = random.Random(name)
    for _ in range(30):
        k, n = rng.randint(1, 6), rng.randint(2, 14)
        rows = [bytes(rng.randrange(F.q) for _ in range(n)) for _ in range(k)]
        order = list(range(n))
        rng.shuffle(order)
        space = RowSpace(F, rows, order)
        permuted = _checked_row_space(F, [[r[c] for c in order] for r in rows])
        assert space.pivots == [order[c] for c in permuted.pivots]
        assert space.rows() == [bytes(r[order.index(c)] for c in range(n)) for r in permuted.rows()]
        for i, row in enumerate(space.rows()):
            assert [row[c] for c in space.pivots] == [int(i == j) for j in range(len(space.pivots))]
        plain = RowSpace(F, rows)
        assert all(space.contains(r) and plain.contains(r) for r in rows + plain.rows())
        assert all(plain.contains(r) for r in space.rows())
        same = RowSpace(F, rows, range(n))
        assert same.pivots == plain.pivots and same.rows() == plain.rows()


def test_column_order_must_be_a_permutation():
    F = make_field(2, 1, 2)
    rows = [bytes([1, 2, 3])]
    for order in ([0, 1], [0, 1, 1], [0, 1, 3]):
        with pytest.raises(ValueError, match="permutation"):
            RowSpace(F, rows, order)
