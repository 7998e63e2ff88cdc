import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from skewqc import distance
from skewqc.codes import build_code, build_degenerate_code
from skewqc.distance import (
    SAMPLE_BATCH,
    WeightEnumerator,
    _combination_table,
    _draw_messages,
    _enumerate_blocks,
    _gray_steps,
    _packed_rows,
    _table_rows,
    min_distance,
    min_distance_sampled,
    pack_planes,
    weight_enumerator,
)
from skewqc.errors import BudgetExceededError
from skewqc.factorization import modulus_right_divisors
from skewqc.field import gf4, make_field
from skewqc.linalg import RowSpace
from skewqc.notation import parse_coeff_string
from skewqc.search import DEFAULT_SAMPLE_TRIALS
from skewqc.skewpoly import SkewPoly
from skewqc.tables import get

F = gf4()
F9 = make_field(3, 1, 2)
F2 = make_field(2, 1, 1)
F8 = make_field(2, 1, 3)
F16 = make_field(2, 1, 4)
F256 = make_field(2, 1, 8)
CHAR2 = (F2, F, F8, F16, F256)
FIELDS = pytest.mark.parametrize(
    "field", [F, F9, F2, F8, F16, F256], ids=["gf4", "gf9", "gf2", "gf8", "gf16", "gf256"]
)
# bit planes per symbol of the characteristic-2 fields GF(2), GF(4), GF(8),
# GF(16) and GF(256)
PLANES = (1, 2, 3, 4, 8)


def rand_code(rng, s, l, field=F):
    while True:
        tup = tuple(
            SkewPoly(field, [rng.randrange(field.q) for _ in range(s)])
            for _ in range(l)
        )
        if any(not f.is_zero for f in tup):
            code = build_code(field, s, tup)
            if code.k > 0:
                return code


def naive_distribution(code):
    """Direct reference enumeration over all q^k messages."""
    q, k, n = code.spec.field.q, code.k, code.n
    mul, add = code.spec.field.mul, code.spec.field.add
    G = [list(row) for row in code.genmatrix]
    counts = {}
    msg = [0] * k
    for idx in range(q**k):
        v = idx
        for i in range(k):
            msg[i] = v % q
            v //= q
        word = [0] * n
        for i in range(k):
            mi = msg[i]
            if mi:
                row = G[i]
                for j in range(n):
                    if row[j]:
                        word[j] = add[word[j]][mul[mi][row[j]]]
        w = sum(1 for c in word if c)
        counts[w] = counts.get(w, 0) + 1
    return counts


def word_dtype(n, j):
    """The width rule for word j of a bit plane of n symbols: words before
    the last are uint64; the last holds the 1..64 symbols left, in uint8 up
    to 8 of them, uint32 up to 32, else uint64."""
    left = n - 64 * j
    if left > 64:
        return np.dtype(np.uint64)
    return np.dtype(np.uint8 if left <= 8 else np.uint32 if left <= 32 else np.uint64)


def word_dtypes(n):
    return [word_dtype(n, j) for j in range((n + 63) // 64)]


def column_loop_pack_planes(mat, e):
    """Reference packing, one column and one plane at a time: word group j,
    shape (e, ...), holds bit b of symbols 64j .. 64j + 63 in its row b, in
    word_dtype(n, j)."""
    mat = np.asarray(mat, dtype=np.uint8)
    n = mat.shape[-1]
    groups = [np.zeros((e,) + mat.shape[:-1], dtype=dt) for dt in word_dtypes(n)]
    for j in range(n):
        w, i = divmod(j, 64)
        word = groups[w].dtype.type
        bit = word(1) << word(i)
        col = mat[..., j]
        for b in range(e):
            groups[w][b] |= np.where((col >> b) & 1, bit, word(0))
    return groups


def unpack_planes(groups, n):
    """Inverse of pack_planes: word groups, shape (e, ...), back to (..., n)
    symbols."""
    assert [g.dtype for g in groups] == word_dtypes(n)
    out = np.zeros(groups[0].shape[1:] + (n,), dtype=np.uint8)
    for j in range(n):
        w, i = divmod(j, 64)
        word = groups[w].dtype.type
        for b, plane in enumerate((groups[w] >> word(i)) & word(1)):
            out[..., j] |= (plane << word(b)).astype(np.uint8)
    return out


def gray_oracle(code):
    """(weight counts, distance) over all q^k messages by a reflected Gray
    walk, one row update per step: independent of the engine's scalar orbits,
    inner table and packing."""
    field = code.spec.field
    k, n = code.genmatrix.shape
    vec = np.zeros(n, dtype=np.uint8)
    counts = {0: 1}
    for j, old, new in _gray_steps(field.q, k):
        delta = field.sub[new][old]
        vec = field.np_add[vec, field.np_mul[delta][code.genmatrix[j]]]
        w = int(np.count_nonzero(vec))
        counts[w] = counts.get(w, 0) + 1
    return counts, min((w for w in counts if w > 0), default=None)


# ---------------------------------------------------------------------------
# packed rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 8, 9, 31, 32, 33, 48, 64, 72, 130])
@pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
def test_pack_gf4_matches_column_loop(lead, n):
    """pack_planes equals the column loop for every plane count in PLANES."""
    rng = np.random.default_rng(n)
    for e in PLANES:
        mat = rng.integers(0, 2**e, size=lead + (n,)).astype(np.uint8)
        got, want = pack_planes(mat, e), column_loop_pack_planes(mat, e)
        assert len(got) == len(want) == (n + 63) // 64
        for j, (g, w) in enumerate(zip(got, want)):
            assert g.dtype == w.dtype == word_dtype(n, j)
            assert g.shape == w.shape == (e,) + lead
            assert g.flags.c_contiguous
            assert np.array_equal(g, w)


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(11)
    for e in PLANES:
        for n in (1, 7, 8, 9, 32, 33, 64, 65, 130):
            vec = rng.integers(0, 2**e, size=n).astype(np.uint8)
            assert np.array_equal(unpack_planes(pack_planes(vec, e), n), vec)


def test_gf4_scale_matches_table():
    """Over every characteristic-2 field, each packed row T[i, lam], the
    column (i, lam) of every group of T, unpacks to lam * G[i] by the mul
    table."""
    rng = np.random.default_rng(33)
    for field in CHAR2:
        q, e = field.q, field.degree
        for n in (5, 31, 32, 33, 64, 70, 130):
            G = rng.integers(0, q, size=(3, n)).astype(np.uint8)
            T, _, _ = _packed_rows(field, G)
            assert [g.shape for g in T] == [(e, 3, q)] * ((n + 63) // 64)
            assert [g.dtype for g in T] == word_dtypes(n)
            got = unpack_planes(T, n)  # (3, q, n)
            for i in range(3):
                for lam in range(q):
                    assert np.array_equal(got[i, lam], field.np_mul[lam][G[i]])


@FIELDS
def test_packed_rows_weight_matches_count_nonzero(field):
    """weights(block, offset, out) writes the weight of each column of the
    table block + offset into out, an accumulator sized as the engine
    sizes it: uint8 up to n = 255, uint16 above.  Row 0 of G has no zero
    symbol, so the messages c * e_0 reach weight n: 255 fills the uint8
    range and 300 needs the wider one.  Over GF(4) the word groups follow
    the width rule over every characteristic-2 field: n = 5 is one uint8
    word, 32 one uint32 word, 72 a uint64 and a uint8 word, and 100, 255
    and 300 uint64 words only.  The two offsets, stacked on a column axis,
    give both rows of weights in one (2, R) broadcast."""
    rng = np.random.default_rng(22)
    q = field.q
    for n in (5, 32, 64, 72, 100, 255, 300):
        G = rng.integers(0, q, size=(4, n)).astype(np.uint8)
        G[0] = rng.integers(1, q, size=n)
        T, add, weights = _packed_rows(field, G)
        msgs = rng.integers(0, q, size=(max(50, 2 * q), 4))  # holds the q - 1 messages c * e_0
        msgs[: q - 1] = [[c, 0, 0, 0] for c in range(1, q)]
        block = [g[:, 0, msgs[:, 0]] for g in T]
        for i in range(1, 4):
            block = [add(a, g[:, i, msgs[:, i]]) for a, g in zip(block, T)]
        block = [np.ascontiguousarray(a) for a in block]
        if field.p == 2:
            assert [g.dtype for g in block] == word_dtypes(n)
        offsets, outs = [], []
        for shift in (np.zeros(4, dtype=int), rng.integers(0, q, size=4)):
            offset = [g[:, 0, shift[0]] for g in T]
            for i in range(1, 4):
                offset = [add(o, g[:, i, shift[i]]) for o, g in zip(offset, T)]
            out = np.empty(len(msgs), dtype=np.min_scalar_type(n))
            assert out.dtype == (np.uint8 if n <= 255 else np.uint16)
            weights(block, offset, out)
            offsets.append(offset)
            outs.append(out)
            for m, w in zip(msgs, out):
                word = [0] * n
                for i in range(4):
                    c = field.add[m[i]][shift[i]]
                    word = [field.add[a][field.mul[c][g]] for a, g in zip(word, G[i])]
                assert w == sum(1 for c in word if c)
            if not shift.any():
                assert list(out[: q - 1]) == [n] * (q - 1)
        both = np.empty((2, len(msgs)), dtype=np.min_scalar_type(n))
        weights(block, [np.stack(o, axis=-1) for o in zip(*offsets)], both)
        assert np.array_equal(both, np.stack(outs))


@pytest.mark.parametrize("n", [72, 136])
def test_rows_tables_and_offsets_share_the_word_dtypes(n):
    """The row table T, the inner table, a chunk table and an offset are
    all lists of word groups in the width rule's dtypes: a uint64 and a
    uint8 word at n = 72, two uint64 and a uint8 word at n = 136."""
    code = MatrixCode(n, 5, seed=n)
    rows = _packed_rows(F, code.genmatrix)
    T, add, _ = rows
    offset = [add(g[:, 0, 1], g[:, 1, 2]) for g in T]
    dtypes = word_dtypes(n)
    assert len(dtypes) == (2 if n == 72 else 3) and dtypes[-1] == np.uint8
    for groups in (T, _combination_table(rows, 1, 4), _combination_table(rows, 0, 3), offset):
        assert [g.dtype for g in groups] == dtypes


# ---------------------------------------------------------------------------
# exact enumeration against a naive reference
# ---------------------------------------------------------------------------


def naive_sized(field, codes, seed):
    """The codes whose q^k messages the naive count can list, at most 4^6,
    then a random [10, k] MatrixCode with the largest such k, so that every
    field checks at least one code."""
    small = [code for code in codes if field.q**code.k <= 4**6]
    return small + [MatrixCode(10, _table_rows(field.q, 4**6, 10), seed, field)]


@FIELDS
def test_weight_enumerator_matches_naive(field):
    """Random codes, with s a multiple of m: 2 or 4 over GF(4) and GF(9)."""
    rng = random.Random(2024)
    codes = [rand_code(rng, math.lcm(rng.choice((2, 4)), field.m), rng.choice((1, 2)), field)
             for _ in range(8)]
    for code in naive_sized(field, codes, seed=2024):
        we = weight_enumerator(code)
        assert we.counts == naive_distribution(code)
        assert we.total == field.q**code.k
        assert we.counts.get(0) == 1


@FIELDS
def test_min_distance_matches_naive(field):
    rng = random.Random(501)
    codes = [rand_code(rng, math.lcm(4, field.m), 2, field) for _ in range(8)]
    for code in naive_sized(field, codes, seed=501):
        ref = naive_distribution(code)
        d_ref = min(w for w in ref if w > 0)
        rep = min_distance(code)
        assert rep.exact and rep.d == d_ref
        # the witness really is a codeword of the reported weight
        assert code.is_codeword(rep.witness)
        assert int(np.count_nonzero(rep.witness)) == rep.d


def test_methods_agree_on_medium_code():
    code = build_code(
        F, 8, (parse_coeff_string(F, "1a01"), parse_coeff_string(F, "0a^211"))
    )
    counts, d = gray_oracle(code)
    assert min_distance(code).d == d
    assert weight_enumerator(code).counts == counts


def multiword_code(s, l, k, seed, field=F):
    """A code [l*s, k], over GF(4) unless ``field`` says otherwise, spanned
    by k shifts of (g, f_1*g, ...), with g a degree-(s - k) right divisor of
    x^s - 1 and random multipliers."""
    rng = random.Random(seed)
    divisors = modulus_right_divisors(field, s, degree=s - k)
    g = divisors[rng.randrange(len(divisors))]
    fs = [SkewPoly(field, [rng.randrange(field.q) for _ in range(s)]) for _ in range(l - 1)]
    return build_degenerate_code(field, s, g, fs)


@pytest.mark.parametrize(
    "field, s, l, k, words",
    [(F, 36, 2, 6, 2), (F, 48, 3, 6, 3), (F, 96, 3, 6, 5), (F8, 36, 2, 4, 2),
     (F16, 48, 3, 3, 3)],
    ids=["n72", "n144", "n288", "gf8-n72", "gf16-n144"],
)
def test_engine_matches_gray_oracle_on_multiword_rows(field, s, l, k, words):
    """Rows of two, three and five words per bit plane: one uint64 word and
    a uint8 last word (n = 72), two and four uint64 words and a uint32 last
    word (n = 144, 288); n = 288 also takes the uint16 accumulator, and its
    heaviest codewords weigh 288.  Over GF(8) and GF(16) each word group
    holds three and four planes."""
    code = multiword_code(s, l, k, seed=s, field=field)
    assert code.k == k and (code.n + 63) // 64 == words
    counts, d = gray_oracle(code)
    assert weight_enumerator(code).counts == counts
    rep = min_distance(code)
    assert rep.exact and rep.d == d
    assert code.is_codeword(rep.witness)
    assert int(np.count_nonzero(rep.witness)) == d
    assert np.array_equal(code.encode(rep.witness_message), rep.witness)


@pytest.mark.parametrize("s, l", [(12, 2), (16, 2)], ids=["n24", "n32"])
def test_engine_matches_gray_oracle_on_uint32_rows(s, l):
    """Rows of one uint32 word per bit plane; with k = 6 the inner table
    holds the last 5 rows and every lead after the first scans a strided
    view of it."""
    code = multiword_code(s, l, 6, seed=s)
    assert code.k == 6 and code.n <= 32
    assert [g.dtype for g in _packed_rows(F, code.genmatrix)[0]] == [np.uint32]
    counts, d = gray_oracle(code)
    assert weight_enumerator(code).counts == counts
    rep = min_distance(code)
    assert rep.exact and rep.d == d
    assert rep.enumerated == (4**6 - 1) // 3
    assert np.array_equal(code.encode(rep.witness_message), rep.witness)
    assert int(np.count_nonzero(rep.witness)) == d


class MatrixCode:
    """A random [n, k] code, over GF(4) unless ``field`` says otherwise,
    given only by its generator matrix: the identity in k random columns,
    random symbols elsewhere.  It carries what the engine and the oracles
    read of a code, and its n need not be l * s, so n can sit on either side
    of every word-width boundary."""

    def __init__(self, n, k, seed, field=F):
        rng = np.random.default_rng(seed)
        G = rng.integers(0, field.q, size=(k, n)).astype(np.uint8)
        G[:, rng.choice(n, size=k, replace=False)] = np.eye(k, dtype=np.uint8)
        self.spec = SimpleNamespace(field=field)
        self.genmatrix, self.k, self.n = G, k, n

    def encode(self, message):
        field = self.spec.field
        word = np.zeros(self.n, dtype=np.uint8)
        for c, row in zip(message, self.genmatrix):
            word = field.np_add[word, field.np_mul[c][row]]
        return word

    def is_codeword(self, vec):
        rows = RowSpace(self.spec.field, [bytes(row) for row in self.genmatrix])
        return rows.contains(bytes(list(vec)))


# the last word of a plane widens from uint8 to uint32 after 8 symbols left
# and to uint64 after 32; a new word starts after every 64
WIDTH_BOUNDARIES = (8, 9, 32, 33, 64, 65, 72, 73, 96, 97, 136)


@pytest.mark.parametrize("n", WIDTH_BOUNDARIES)
def test_engine_matches_oracles_at_width_boundaries(n):
    """On both sides of every width boundary: the inner table's words follow
    the rule, weight_enumerator equals the naive count over all 4^5
    messages and the Gray-walk oracle, and min_distance finds d with a
    witness of that weight."""
    code = MatrixCode(n, 5, seed=n)
    inner = _combination_table(_packed_rows(F, code.genmatrix), 1, 4)
    assert [g.dtype for g in inner] == [word_dtype(n, j) for j in range((n + 63) // 64)]
    counts, d = gray_oracle(code)
    assert naive_distribution(code) == counts
    assert weight_enumerator(code).counts == counts
    rep = min_distance(code)
    assert rep.exact and rep.d == d and rep.enumerated == (4**5 - 1) // 3
    assert np.array_equal(code.encode(rep.witness_message), rep.witness)
    assert int(np.count_nonzero(rep.witness)) == d


# codes pinned below that are not catalog rows: a [24,12,6] code from the
# s=12 l=2 seed-3 campaign, given by its tuple (g, f*g)
CAMPAIGN_TUPLES = {
    "campaign-s12-24-12-6": (12, ("aaa^2a^21", "aaaa11a^2a^20aaa")),
}


class LeadStopCode(MatrixCode):
    """A GF(4) [48,12,9] code whose row 0 weighs 20 on its own columns, so
    no stop below 20 can end inside lead 0: rows 1-11 are random on the 28
    other columns."""

    def __init__(self):
        G = np.zeros((12, 48), dtype=np.uint8)
        G[0, :20] = 1
        G[1:, 20:] = np.random.default_rng(7).integers(0, 4, size=(11, 28))
        self.spec = SimpleNamespace(field=F)
        self.genmatrix, self.k, self.n = G, 12, 48


def pinned_code(name):
    if name in CAMPAIGN_TUPLES:
        s, tup = CAMPAIGN_TUPLES[name]
        return build_code(F, s, tuple(parse_coeff_string(F, t) for t in tup))
    if name == "lead-stop-48-12-9":
        return LeadStopCode()
    return get(name).build()


# (d, exact, enumerated, witness message) for stop_at = 0, an intermediate
# value and n: they fix the order in which the engine visits messages, not
# only the minimum
ROW_ORDER_PINS = {
    "campaign-s12-24-12-6": {
        0: (6, True, 5592405, "102030100000"),
        6: (6, False, 589824, "102030100000"),
        24: (7, False, 65536, "100010000000"),
    },
    "index2-l2-40-9-21": {
        0: (21, True, 87381, "100310000"),
        22: (21, False, 65536, "100310000"),
        40: (21, False, 65536, "100310000"),
    },
    "large-index-l6-72-12-38": {
        0: (38, True, 5592405, "100030000000"),
        22: (38, True, 5592405, "100030000000"),
        72: (38, False, 65536, "100030000000"),
    },
    # stops past lead 0, which takes 4^3 scans of 4^8 rows: stop_at 11, 10
    # and 9 end 1, 4 and 12 scans into lead 1
    "lead-stop-48-12-9": {
        0: (9, True, 5592405, "013210322311"),
        9: (9, False, 4980736, "013210322311"),
        10: (10, False, 4456448, "013030130312"),
        11: (11, False, 4259840, "010030113001"),
    },
}


@pytest.mark.parametrize("name", sorted(ROW_ORDER_PINS))
def test_row_order_is_pinned(name):
    code = pinned_code(name)
    for stop_at, pinned in ROW_ORDER_PINS[name].items():
        rep = min_distance(code, stop_at=stop_at)
        message = "".join(str(c) for c in rep.witness_message)
        assert (rep.d, rep.exact, rep.enumerated, message) == pinned


def gf9_matrix(n, k, seed):
    """A random [n, k] GF(9) generator matrix: the identity, then random
    symbols."""
    G = np.random.default_rng(seed).integers(0, 9, size=(k, n)).astype(np.uint8)
    G[:, :k] = np.eye(k, dtype=np.uint8)
    return G


# (field, generator matrix, stop_at): a one-word GF(4) [48,12] code, exact
# and stopped 4 scans into lead 1; a two-word GF(4) [72,9] code; a GF(9)
# [14,6] code, whose 9^5 = 59,049-column inner table ends in an uneven span
SPAN_CASES = {
    "gf4-48-12": (F, LeadStopCode().genmatrix, 0),
    "gf4-48-12-stop-10": (F, LeadStopCode().genmatrix, 10),
    "gf4-72-9": (F, MatrixCode(72, 9, seed=72).genmatrix, 0),
    "gf9-14-6": (F9, gf9_matrix(14, 6, seed=9), 0),
}


@pytest.mark.parametrize("name", sorted(SPAN_CASES))
def test_scan_spans_change_nothing(monkeypatch, name):
    """The exact scan returns the same histogram, best weight, message and
    row count whether it weighs the inner table whole (2^16 columns), in
    the default spans or in 2^10-column spans."""
    field, G, stop_at = SPAN_CASES[name]
    results = []
    for span in (distance.SCAN_SPAN, 2**16, 2**10):
        monkeypatch.setattr(distance, "SCAN_SPAN", span)
        hist, best, message, rows = _enumerate_blocks(field, G, True, stop_at)
        results.append((hist.tolist(), best, message.tolist(), rows))
    assert results[1] == results[0] and results[2] == results[0]
    if stop_at:
        assert results[0][1:] == (10, [0, 1, 3, 0, 3, 0, 1, 3, 0, 3, 1, 2], 4456448)


def test_workers_do_not_change_the_answer():
    code = build_code(
        F, 10, (parse_coeff_string(F, "1a011"), parse_coeff_string(F, "0a^2111"))
    )
    r1 = min_distance(code, workers=1)
    r0 = min_distance(code)
    assert r1.d == r0.d
    assert r1.d == min(w for w in weight_enumerator(code).counts if w > 0)
    with pytest.raises(ValueError, match="workers"):
        min_distance(code, workers=2)


def test_stop_at_does_not_depend_on_workers():
    code = get("index2-l2-40-9-21").build()
    for stop_at in (code.n, 22, 0):
        r1 = min_distance(code, workers=1, stop_at=stop_at)
        r0 = min_distance(code, stop_at=stop_at)
        assert (r1.d, r1.exact, r1.enumerated) == (r0.d, r0.exact, r0.enumerated)
        assert np.array_equal(r1.witness_message, r0.witness_message)
        with pytest.raises(ValueError, match="workers"):
            min_distance(code, workers=2, stop_at=stop_at)
    stopped = min_distance(code, workers=1, stop_at=code.n)
    assert not stopped.exact and stopped.enumerated < (4**code.k - 1) // 3


def test_gray_handles_gf9():
    code = build_code(
        F9, 4, (SkewPoly(F9, [1, 1]), SkewPoly(F9, [2, 0, 1]))
    )
    counts, d = gray_oracle(code)
    assert sum(counts.values()) == 9**code.k
    assert min_distance(code).d == d
    assert weight_enumerator(code).counts == counts


# ---------------------------------------------------------------------------
# stop_at, budget, sampling
# ---------------------------------------------------------------------------


def test_stop_at_gives_certified_upper_bound():
    code = build_code(
        F, 8, (parse_coeff_string(F, "1a01"), parse_coeff_string(F, "0a^211"))
    )
    exact = min_distance(code)
    stopped = min_distance(code, stop_at=code.n)
    assert not stopped.exact  # the scan stopped at the first codeword
    assert stopped.d >= exact.d
    untouched = min_distance(code, stop_at=exact.d - 1)
    assert untouched.exact and untouched.d == exact.d


def test_budget_guard():
    code = build_code(
        F, 12, (parse_coeff_string(F, "1" + "0" * 10 + "1"),)
    )
    with pytest.raises(BudgetExceededError):
        min_distance(code, budget=10)
    with pytest.raises(BudgetExceededError):
        weight_enumerator(code, budget=10)


def test_numpy_block_length_is_priced_before_any_scan(monkeypatch):
    """build_code with s = np.int64(40) gives a Python int k, so the scan
    is priced at 4^40 and refused; int64 wrapped that price to 0, which
    passed the budget check and started a 4^40-message scan."""

    def no_scan(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(distance, "_enumerate_blocks", no_scan)
    code = build_code(F, np.int64(40), (parse_coeff_string(F, "1a1"),))
    assert distance.exact_cost(code) == 4**40
    with pytest.raises(BudgetExceededError):
        min_distance(code)


@pytest.mark.parametrize("name, value", [("trials", 10.0), ("seed", 1.5), ("seed", "1")])
def test_sampled_distance_refuses_non_integer_trials_and_seed(name, value):
    code = build_code(F, 4, (parse_coeff_string(F, "1111"),))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        min_distance_sampled(code, **{"trials": 10, "seed": 0, name: value})
    assert min_distance_sampled(code, trials=np.int64(10), seed=np.uint8(1)).enumerated == 10


def test_sampled_distance_is_deterministic_upper_bound():
    code = build_code(
        F, 10, (parse_coeff_string(F, "1a011"), parse_coeff_string(F, "0a^2111"))
    )
    exact = min_distance(code)
    s1 = min_distance_sampled(code, trials=20000, seed=5)
    s2 = min_distance_sampled(code, trials=20000, seed=5)
    assert s1.d == s2.d and not s1.exact
    assert s1.d >= exact.d
    assert code.is_codeword(s1.witness)
    assert int(np.count_nonzero(s1.witness)) == s1.d
    s3 = min_distance_sampled(code, trials=20000, seed=6)
    assert s3.d >= exact.d


def test_sampled_distance_rejects_nonpositive_trials():
    code = get("new-l2-48-12-24").build()
    for trials in (0, -5):
        with pytest.raises(ValueError, match="trials"):
            min_distance_sampled(code, trials=trials, seed=1)


def test_sampled_distance_over_gf9():
    code = build_code(F9, 8, (
        SkewPoly(F9, [1, 2, 0, 1, 3, 0, 5, 1]), SkewPoly(F9, [4, 0, 7, 1, 2, 8, 3])
    ))
    assert (code.n, code.k) == (16, 8)
    exact = min_distance(code)
    for trials in (16, 1000):
        rep = min_distance_sampled(code, trials=trials, seed=1)
        assert rep.enumerated == trials and rep.d >= exact.d
        assert code.is_codeword(rep.witness)
        assert int(np.count_nonzero(rep.witness)) == rep.d
        assert np.array_equal(code.encode(rep.witness_message), rep.witness)


def test_sampled_distance_over_gf9_is_pinned():
    """The GF(9) [16,8,6] code of the benchmark's exact-deep workload: its
    sampled batches add rows through the flat F.np_add lookup, and the
    answer is the one the two-index lookup gave."""
    code = build_code(F9, 8, (
        SkewPoly(F9, [1, 2, 0, 1, 3, 0, 5, 1]), SkewPoly(F9, [4, 0, 7, 1, 2, 8, 3])
    ))
    rep = min_distance_sampled(code, trials=300000, seed=1)
    assert rep.d == 6 and rep.enumerated == 300000
    assert rep.witness_message.tolist() == [0, 0, 0, 0, 0, 7, 3, 8]


def test_sampled_distance_on_a_long_row_is_pinned():
    """k = 23, n = 96 over GF(4): four chunk tables of 5 rows and one of 3,
    each plane one uint64 word and a uint32 last word; d and the witness
    message are the ones the row-by-row sum gave."""
    code = get("index34-l4-96-23-41").build()
    assert code.k == 23
    rep = min_distance_sampled(code, trials=20000, seed=7)
    assert rep.d == 54 and rep.enumerated == 20000
    assert rep.witness_message.tolist() == [
        0, 2, 0, 3, 0, 0, 3, 0, 2, 1, 2, 0, 2, 3, 1, 3, 3, 0, 1, 0, 2, 1, 1
    ]
    assert np.array_equal(code.encode(rep.witness_message), rep.witness)
    assert int(np.count_nonzero(rep.witness)) == 54


def test_sampled_distance_on_a_uint8_tail_row_is_pinned():
    """k = 21, n = 72 over GF(4): each plane is one uint64 word and a uint8
    last word in the chunk tables and the accumulator; d, the witness
    message and the count are the ones the uniform uint64 words gave."""
    code = get("new-l3-72-21-29").build()
    assert (code.n, code.k) == (72, 21)
    rep = min_distance_sampled(code, trials=20000, seed=7)
    assert rep.d == 39 and rep.enumerated == 20000
    assert rep.witness_message.tolist() == [
        0, 2, 0, 0, 2, 0, 0, 3, 0, 1, 0, 2, 2, 0, 2, 1, 0, 0, 1, 0, 0
    ]
    assert np.array_equal(code.encode(rep.witness_message), rep.witness)
    assert int(np.count_nonzero(rep.witness)) == 39


# consecutive (b, k) batches from one generator: b*k = 9, 6, 15 and 20 are
# 1, 2, 3 and 0 mod 4, so a byte left over in one batch must not shift the
# next; then the batches of 100,000 trials, 6 x 16,384 + 1,696, at k = 20
DRAW_BATCHES = [(3, 3), (2, 3), (5, 3), (4, 5), (1, 1), (7, 3)] + [
    (min(SAMPLE_BATCH, DEFAULT_SAMPLE_TRIALS - done), 20)
    for done in range(0, DEFAULT_SAMPLE_TRIALS, SAMPLE_BATCH)
]


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64, 128, 256, 3, 9])
def test_drawn_messages_are_numpys_bounded_uint8_draw(q):
    """Every batch the sampler draws equals Generator.integers(0, q, (b, k),
    dtype=uint8) from an identically seeded generator, batch after batch."""
    assert [b for b, _ in DRAW_BATCHES[6:]] == [SAMPLE_BATCH] * 6 + [1696]
    ours = np.random.Generator(np.random.PCG64(2027))
    numpys = np.random.Generator(np.random.PCG64(2027))
    for b, k in DRAW_BATCHES:
        got = _draw_messages(ours, q, b, k)
        want = numpys.integers(0, q, size=(b, k), dtype=np.uint8)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want), (b, k)
    assert ours.integers(0, 2**32) == numpys.integers(0, 2**32)  # the streams end together


def test_sampled_distance_at_the_verify_defaults_is_pinned():
    """The record [140,20,72] row as verify_table samples it: 100,000
    trials at seed 0."""
    code = get("new-l7-140-20-72").build()
    rep = min_distance_sampled(code, trials=DEFAULT_SAMPLE_TRIALS, seed=0)
    assert rep.d == 78 and rep.enumerated == DEFAULT_SAMPLE_TRIALS
    assert rep.witness_message.tolist() == [
        2, 0, 0, 2, 0, 3, 1, 1, 0, 0, 1, 0, 0, 1, 0, 2, 2, 1, 2, 3
    ]
    assert int(np.count_nonzero(rep.witness)) == 78


@pytest.mark.parametrize("field, s, coeffs, d, message", [
    (F8, 9, ([1, 3, 0, 5, 7, 2, 0, 6, 1], [4, 0, 7, 1, 2, 6, 3, 5], [2, 5, 1, 0, 3, 0, 7]),
     14, [5, 6, 0, 7, 0, 0, 1, 0, 0]),
    (F16, 8, ([1, 9, 0, 5, 14, 2, 0, 11], [4, 0, 13, 1, 2, 6, 3, 15]),
     10, [14, 15, 13, 0, 13, 0, 15, 11]),
], ids=["gf8", "gf16"])
def test_sampled_distance_over_gf8_and_gf16_is_pinned(field, s, coeffs, d, message):
    """[27,9] over GF(8) and [16,8] over GF(16), 30,001 trials at seed 4,
    so the last batch of the GF(8) code draws 9 * 13,617 bytes, 1 mod 4."""
    code = build_code(field, s, tuple(SkewPoly(field, c) for c in coeffs))
    assert code.k == len(message)
    rep = min_distance_sampled(code, trials=30001, seed=4)
    assert rep.d == d and rep.enumerated == 30001
    assert rep.witness_message.tolist() == message
    assert np.array_equal(code.encode(rep.witness_message), rep.witness)
    assert int(np.count_nonzero(rep.witness)) == d


def test_sampled_distance_skips_the_zero_message():
    code = build_code(F, 4, (parse_coeff_string(F, "1111"),))  # k = 1, d = 4
    assert code.k == 1
    rep = min_distance_sampled(code, trials=64, seed=0)  # about 16 zero messages
    assert rep.d == 4 and rep.witness_message.any()
    assert int(np.count_nonzero(rep.witness)) == 4


def test_zero_dimensional_code_reports_none():
    code = build_code(F, 4, (parse_coeff_string(F, "10001"),))  # x^4 - 1 itself
    assert code.k == 0
    rep = min_distance(code)
    assert rep.d is None and rep.exact


# ---------------------------------------------------------------------------
# WeightEnumerator helpers
# ---------------------------------------------------------------------------


def test_weight_enumerator_formatting():
    we = WeightEnumerator(4, 1, 4, {0: 1, 3: 3})
    assert we.distance == 3
    assert we.total == 4
    assert we.tsv_lines() == ["0\t1", "3\t3"]
