import random

import numpy as np
import pytest

from skewqc.codes import build_code, build_degenerate_code
from skewqc.distance import (
    WeightEnumerator,
    _gray_steps,
    _packed_rows,
    min_distance,
    min_distance_sampled,
    pack_gf4,
    weight_enumerator,
)
from skewqc.errors import BudgetExceededError
from skewqc.factorization import modulus_right_divisors
from skewqc.field import gf4, make_field
from skewqc.notation import parse_coeff_string
from skewqc.skewpoly import SkewPoly
from skewqc.tables import get

F = gf4()
F9 = make_field(3, 1, 2)
FIELDS = pytest.mark.parametrize("field", [F, F9], ids=["gf4", "gf9"])


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


def column_loop_pack_gf4(mat):
    """Reference packing, one column at a time."""
    mat = np.asarray(mat, dtype=np.uint8)
    n = mat.shape[-1]
    nw = (n + 63) // 64
    lead = mat.shape[:-1]
    lo = np.zeros(lead + (nw,), dtype=np.uint64)
    hi = np.zeros(lead + (nw,), dtype=np.uint64)
    for j in range(n):
        w, b = divmod(j, 64)
        bit = np.uint64(1) << np.uint64(b)
        col = mat[..., j]
        lo[..., w] |= np.where(col & 1, bit, np.uint64(0))
        hi[..., w] |= np.where(col & 2, bit, np.uint64(0))
    return lo, hi


def unpack_gf4(lo, hi, n):
    """Inverse of pack_gf4: (..., nw) bit planes back to (..., n) symbols."""
    out = np.zeros(lo.shape[:-1] + (n,), dtype=np.uint8)
    for j in range(n):
        w, b = divmod(j, 64)
        bit = np.uint64(b)
        out[..., j] = (((lo[..., w] >> bit) & np.uint64(1))
                       | (((hi[..., w] >> bit) & np.uint64(1)) << np.uint64(1)))
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


@pytest.mark.parametrize("n", [1, 48, 64, 72, 130])
@pytest.mark.parametrize("lead", [(), (5,), (3, 4)])
def test_pack_gf4_matches_column_loop(lead, n):
    rng = np.random.default_rng(n)
    mat = rng.integers(0, 4, size=lead + (n,)).astype(np.uint8)
    for got, want in zip(pack_gf4(mat), column_loop_pack_gf4(mat)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(11)
    for n in (1, 7, 64, 65, 130):
        vec = rng.integers(0, 4, size=n).astype(np.uint8)
        lo, hi = pack_gf4(vec)
        assert np.array_equal(unpack_gf4(lo, hi, n), vec)


def test_gf4_scale_matches_table():
    """Each packed row T[i, lam] unpacks to lam * G[i] by the mul table."""
    rng = np.random.default_rng(33)
    for n in (5, 64, 70, 130):
        G = rng.integers(0, 4, size=(3, n)).astype(np.uint8)
        T, _, _ = _packed_rows(F, G)
        nw = (n + 63) // 64
        assert T.shape == (3, 4, 2 * nw) and T.dtype == np.uint64
        for i in range(3):
            for lam in range(4):
                got = unpack_gf4(T[i, lam, :nw], T[i, lam, nw:], n)
                assert np.array_equal(got, F.np_mul[lam][G[i]])


@FIELDS
def test_packed_rows_weight_matches_count_nonzero(field):
    """weights(block, offset, out) writes the weight of each column of the
    word-major block + offset into out, an accumulator sized as the engine
    sizes it: uint8 up to n = 255, uint16 above.  Row 0 of G has no zero
    symbol, so the messages c * e_0 reach weight n: 255 fills the uint8
    range and 300 needs the wider one."""
    rng = np.random.default_rng(22)
    q = field.q
    for n in (5, 64, 100, 255, 300):
        G = rng.integers(0, q, size=(4, n)).astype(np.uint8)
        G[0] = rng.integers(1, q, size=n)
        T, add, weights = _packed_rows(field, G)
        msgs = rng.integers(0, q, size=(50, 4))
        msgs[: q - 1] = [[c, 0, 0, 0] for c in range(1, q)]
        acc = T[0, msgs[:, 0]]
        for i in range(1, 4):
            acc = add(acc, T[i, msgs[:, i]])
        block = np.ascontiguousarray(acc.T)
        for shift in (np.zeros(4, dtype=int), rng.integers(0, q, size=4)):
            offset = T[0, shift[0]]
            for i in range(1, 4):
                offset = add(offset, T[i, shift[i]])
            out = np.empty(len(msgs), dtype=np.min_scalar_type(n))
            assert out.dtype == (np.uint8 if n <= 255 else np.uint16)
            weights(block, offset, out)
            for m, w in zip(msgs, out):
                word = [0] * n
                for i in range(4):
                    c = field.add[m[i]][shift[i]]
                    word = [field.add[a][field.mul[c][g]] for a, g in zip(word, G[i])]
                assert w == sum(1 for c in word if c)
            if not shift.any():
                assert list(out[: q - 1]) == [n] * (q - 1)


# ---------------------------------------------------------------------------
# exact enumeration against a naive reference
# ---------------------------------------------------------------------------


@FIELDS
def test_weight_enumerator_matches_naive(field):
    rng = random.Random(2024)
    for _ in range(8):
        code = rand_code(rng, rng.choice((2, 4)), rng.choice((1, 2)), field)
        if field.q**code.k > 4**6:
            continue
        we = weight_enumerator(code)
        assert we.counts == naive_distribution(code)
        assert we.total == field.q**code.k
        assert we.counts.get(0) == 1


@FIELDS
def test_min_distance_matches_naive(field):
    rng = random.Random(501)
    for _ in range(8):
        code = rand_code(rng, 4, 2, field)
        if field.q**code.k > 4**6:
            continue
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


def multiword_code(s, l, k, seed):
    """A GF(4) code [l*s, k] spanned by k shifts of (g, f_1*g, ...), with g
    a degree-(s - k) right divisor of x^s - 1 and random multipliers."""
    rng = random.Random(seed)
    divisors = modulus_right_divisors(F, s, degree=s - k)
    g = divisors[rng.randrange(len(divisors))]
    fs = [SkewPoly(F, [rng.randrange(4) for _ in range(s)]) for _ in range(l - 1)]
    return build_degenerate_code(F, s, g, fs)


@pytest.mark.parametrize(
    "s, l, words", [(36, 2, 2), (48, 3, 3), (96, 3, 5)], ids=["n72", "n144", "n288"]
)
def test_engine_matches_gray_oracle_on_multiword_rows(s, l, words):
    """Rows of two, three and five uint64 words per bit plane; n = 288 also
    takes the uint16 accumulator, and its heaviest codewords weigh 288."""
    code = multiword_code(s, l, 6, seed=s)
    assert code.k == 6 and (code.n + 63) // 64 == words
    counts, d = gray_oracle(code)
    assert weight_enumerator(code).counts == counts
    rep = min_distance(code)
    assert rep.exact and rep.d == d
    assert code.is_codeword(rep.witness)
    assert int(np.count_nonzero(rep.witness)) == d
    assert np.array_equal(code.encode(rep.witness_message), rep.witness)


# (d, exact, enumerated, witness message) for stop_at = 0, 22 and n: they fix
# the order in which the engine visits messages, not only the minimum
ROW_ORDER_PINS = {
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
}


@pytest.mark.parametrize("name", sorted(ROW_ORDER_PINS))
def test_row_order_is_pinned(name):
    code = get(name).build()
    for stop_at, pinned in ROW_ORDER_PINS[name].items():
        rep = min_distance(code, stop_at=stop_at)
        message = "".join(str(c) for c in rep.witness_message)
        assert (rep.d, rep.exact, rep.enumerated, message) == pinned


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
    assert we.polynomial_string() == "1 + 3*y^3"
    assert we.tsv_lines() == ["0\t1", "3\t3"]
