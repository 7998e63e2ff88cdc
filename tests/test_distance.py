import random

import numpy as np
import pytest

from skewqc.codes import build_code
from skewqc.distance import (
    WeightEnumerator,
    gf4_scale,
    gf4_weights,
    min_distance,
    min_distance_sampled,
    pack_gf4,
    unpack_gf4,
    weight_enumerator,
)
from skewqc.errors import BudgetExceededError
from skewqc.field import gf4, make_field
from skewqc.notation import parse_coeff_string
from skewqc.skewpoly import SkewPoly
from skewqc.tables import get

F = gf4()


def rand_code(rng, s, l):
    while True:
        tup = tuple(
            SkewPoly(F, [rng.randrange(4) for _ in range(s)]) for _ in range(l)
        )
        if any(not f.is_zero for f in tup):
            code = build_code(F, s, tup)
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


# ---------------------------------------------------------------------------
# bitsliced GF(4) plumbing
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


def test_gf4_weights_match_direct_count():
    rng = np.random.default_rng(22)
    for n in (5, 64, 100):
        vec = rng.integers(0, 4, size=n).astype(np.uint8)
        lo, hi = pack_gf4(vec)
        assert int(gf4_weights(lo[None, :], hi[None, :])[0]) == int(
            np.count_nonzero(vec)
        )


def test_gf4_scale_matches_table():
    rng = np.random.default_rng(33)
    vec = rng.integers(0, 4, size=70).astype(np.uint8)
    lo, hi = pack_gf4(vec)
    for lam in range(4):
        slo, shi = gf4_scale(lam, lo, hi)
        assert np.array_equal(unpack_gf4(slo, shi, 70), F.np_mul[lam][vec])


# ---------------------------------------------------------------------------
# exact enumeration against a naive reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["blocks", "gray"])
def test_weight_enumerator_matches_naive(method):
    rng = random.Random(2024)
    for _ in range(8):
        code = rand_code(rng, rng.choice((2, 4)), rng.choice((1, 2)))
        if code.k > 6:
            continue
        we = weight_enumerator(code, method=method)
        assert we.counts == naive_distribution(code)
        assert we.total == 4**code.k
        assert we.counts.get(0) == 1


@pytest.mark.parametrize("method", ["blocks", "gray"])
def test_min_distance_matches_naive(method):
    rng = random.Random(501)
    for _ in range(8):
        code = rand_code(rng, 4, 2)
        if code.k > 6:
            continue
        ref = naive_distribution(code)
        d_ref = min(w for w in ref if w > 0)
        rep = min_distance(code, method=method)
        assert rep.exact and rep.d == d_ref
        # the witness really is a codeword of the reported weight
        assert code.is_codeword(rep.witness)
        assert int(np.count_nonzero(rep.witness)) == rep.d


def test_methods_agree_on_medium_code():
    code = build_code(
        F, 8, (parse_coeff_string(F, "1a01"), parse_coeff_string(F, "0a^211"))
    )
    rb = min_distance(code, method="blocks")
    rg = min_distance(code, method="gray")
    assert rb.d == rg.d
    wb = weight_enumerator(code, method="blocks")
    wg = weight_enumerator(code, method="gray")
    assert wb.counts == wg.counts


def test_workers_do_not_change_the_answer():
    code = build_code(
        F, 10, (parse_coeff_string(F, "1a011"), parse_coeff_string(F, "0a^2111"))
    )
    r1 = min_distance(code, method="blocks", workers=1)
    r2 = min_distance(code, method="blocks", workers=2)
    assert r1.d == r2.d
    w1 = weight_enumerator(code, method="blocks", workers=1)
    w2 = weight_enumerator(code, method="blocks", workers=2)
    assert w1.counts == w2.counts


def test_stop_at_does_not_depend_on_workers():
    code = get("index2-l2-40-9-21").build()
    for stop_at in (code.n, 22, 0):
        r1 = min_distance(code, method="blocks", workers=1, stop_at=stop_at)
        r2 = min_distance(code, method="blocks", workers=2, stop_at=stop_at)
        assert (r1.d, r1.exact, r1.enumerated) == (r2.d, r2.exact, r2.enumerated)
        assert np.array_equal(r1.witness_message, r2.witness_message)
    stopped = min_distance(code, method="blocks", workers=2, stop_at=code.n)
    assert not stopped.exact and stopped.enumerated < (4**code.k - 1) // 3


def test_gray_handles_gf9():
    F9 = make_field(3, 1, 2)
    code = build_code(
        F9, 4, (SkewPoly(F9, [1, 1]), SkewPoly(F9, [2, 0, 1]))
    )
    rep = min_distance(code, method="gray")
    we = weight_enumerator(code, method="gray")
    assert we.total == 9**code.k
    assert rep.d == we.distance


# ---------------------------------------------------------------------------
# stop_at, budget, sampling
# ---------------------------------------------------------------------------


def test_stop_at_gives_certified_upper_bound():
    code = build_code(
        F, 8, (parse_coeff_string(F, "1a01"), parse_coeff_string(F, "0a^211"))
    )
    exact = min_distance(code, method="blocks")
    stopped = min_distance(code, method="blocks", stop_at=code.n)
    assert not stopped.exact  # the scan stopped at the first codeword
    assert stopped.d >= exact.d
    untouched = min_distance(code, method="blocks", stop_at=exact.d - 1)
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
    exact = min_distance(code, method="blocks")
    s1 = min_distance_sampled(code, trials=20000, seed=5)
    s2 = min_distance_sampled(code, trials=20000, seed=5)
    assert s1.d == s2.d and not s1.exact
    assert s1.d >= exact.d
    assert code.is_codeword(s1.witness)
    assert int(np.count_nonzero(s1.witness)) == s1.d
    s3 = min_distance_sampled(code, trials=20000, seed=6)
    assert s3.d >= exact.d


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
