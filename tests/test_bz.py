"""Brouwer-Zimmermann against the brute scan.

``distance._brouwer_zimmermann`` is called directly here, never through the
engine choice of ``search._distance``, and its d must equal the best weight
of ``distance._enumerate_blocks`` on campaign candidates over GF(4), GF(9)
and GF(8), on seeded random matrices whose later information sets are
rank-deficient, on the 26 exact catalog rows, and with the half-table limit
made small so that the left half's classes come from digit batches.  The
codewords it weighs are pinned to counts recorded before the walk weighed
each weight class as one broadcast, which shows the message set unchanged.
The last tests pin the witness, the limit and the engine choice itself.
"""

import itertools
import math

import numpy as np
import pytest

from skewqc import distance, search
from skewqc.codes import build_code, degenerate_tuple
from skewqc.distance import (
    BZ_COST_RATIO,
    _brouwer_zimmermann,
    _enumerate_blocks,
    bz_cost,
    exact_cost,
    min_distance,
    min_distance_bz,
)
from skewqc.errors import DEFAULT_BUDGET
from skewqc.field import make_field
from skewqc.linalg import RowSpace
from skewqc.search import SearchConfig, _candidate_stream, _window_divisors
from skewqc.tables import catalog

NO_LIMIT = 2**62
FIELDS = {2: (2, 1, 1), 3: (3, 1, 1), 4: (2, 1, 2), 8: (2, 1, 3), 9: (3, 1, 2), 16: (2, 2, 2)}


def _campaign_codes(config):
    """The nonzero codes of a campaign's candidates, in stream order, as
    run_search builds them."""
    F = make_field(config.p, config.t, config.m)
    gmin, gmax = config.degree_window
    divisors = _window_divisors(F, config.s, range(gmin, gmax + 1), config.budget)
    stream = _candidate_stream(config, F, divisors)
    codes = (build_code(F, config.s, degenerate_tuple(g, fs, config.s))
             for g, fs in itertools.islice(stream, config.trials))
    return [code for code in codes if code.k]


def _assert_same_d(F, G):
    """BZ's d equals the brute scan's best weight on the full-rank G."""
    best = _enumerate_blocks(F, G, False)[1]
    d, message, _ = _brouwer_zimmermann(F, G, NO_LIMIT)
    assert d == best
    assert message.shape == (G.shape[0],) and message.any()


CAMPAIGNS = [SearchConfig(s=12, l=2, trials=60, seed=seed) for seed in range(3, 8)] + [
    SearchConfig(p=3, t=1, m=2, s=8, l=2, trials=30, seed=3),
    SearchConfig(p=2, t=1, m=3, s=9, l=2, trials=30, seed=3),
]


@pytest.mark.parametrize("config", CAMPAIGNS,
                         ids=[f"q{c.p ** (c.t * c.m)}-s{c.s}-seed{c.seed}" for c in CAMPAIGNS])
def test_bz_matches_the_brute_scan_on_campaign_candidates(config):
    codes = _campaign_codes(config)
    assert len(codes) >= 25
    for code in codes:
        _assert_same_d(code.spec.field, code.genmatrix)


def _random_matrices(q, seed, count):
    """Seeded full-rank (k, n) matrices over GF(q), k = 1..8 with
    q^k <= 2^20 and n = k .. 3k + 5.  Every third one gets zero columns and
    copies of other columns, so that its later information sets are
    rank-deficient."""
    F = make_field(*FIELDS[q])
    rng = np.random.default_rng((seed, q))
    top = min(8, int(20 / math.log2(q)))
    out = []
    while len(out) < count:
        k = int(rng.integers(1, top + 1))
        n = int(rng.integers(k, 3 * k + 6))
        G = rng.integers(0, q, size=(k, n)).astype(np.uint8)
        if len(out) % 3 == 2 and n > k:
            cols = rng.choice(n, size=int(rng.integers(1, n - k + 1)), replace=False)
            for c in cols:
                G[:, c] = 0 if rng.integers(2) else G[:, int(rng.integers(n))]
        if len(RowSpace(F, [bytes(r) for r in G]).pivots) == k:
            out.append(G)
    return F, out


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_bz_matches_the_brute_scan_on_random_matrices(q):
    F, mats = _random_matrices(q, 27, 40)
    deficient = 0
    for G in mats:
        _assert_same_d(F, G)
        k, n = G.shape
        fresh, used = list(range(n)), 0
        # the ranks of the greedy sets, as the engine takes them
        while fresh:
            taken = set(fresh)
            order = fresh + [c for c in range(n) if c not in taken]
            space = RowSpace(F, [bytes(r) for r in G], order)
            r = sum(c in taken for c in space.pivots)
            if not r:
                break
            deficient += 0 < r < k and used > 0
            used += 1
            fresh = [c for c in fresh if c not in set(space.pivots[:r])]
    assert deficient >= 5


def _exact_rows(max_k):
    rows = []
    for entry in catalog():
        if entry.note == "unverified-transcription":
            continue
        code = entry.build()
        if exact_cost(code) <= DEFAULT_BUDGET and code.k <= max_k:
            rows.append((entry.name, code))
    return rows


def test_bz_matches_the_brute_scan_on_exact_catalog_rows():
    rows = _exact_rows(64)
    assert len(rows) == 26
    for _, code in rows:
        _assert_same_d(code.spec.field, code.genmatrix)


# the codewords that min_distance_bz weighs with no limit, counted when the
# walk still summed every message through chunk tables: each message of
# weight w whose first nonzero digit is 1, once, per set and weight walked
ENUMERATED_ROWS = {
    "index2-l2-40-9-21": 27306,
    "index2-l2-40-10-20": 27580,
    "index2-l2-40-11-19": 154550,
    "index2-l2-40-12-18": 239121,
    "index2-l2-44-12-20": 318828,
    "index2-l2-48-11-24": 191972,
    "index2-l2-48-12-23": 254676,
    "index2-l2-48-13-22": 1339468,
    "index2-l2-52-13-24": 505492,
    "index2-l2-60-11-32": 464497,
    "index34-l3-48-11-24": 191972,
    "index34-l3-48-13-22": 1339468,
    "index34-l3-54-13-26": 1339468,
    "index34-l4-56-11-29": 202543,
    "index34-l4-56-12-28": 847599,
    "index34-l4-64-13-32": 1882829,
    "nondegenerate-l3-30-10-14": 15015,
    "nondegenerate-l3-36-12-16": 174969,
    "nondegenerate-l4-40-10-20": 27580,
    "nondegenerate-l4-48-12-23": 543360,
    "large-index-l5-60-12-31": 1072131,
    "large-index-l6-60-10-33": 102606,
    "large-index-l6-72-12-38": 927306,
    "large-index-l7-70-10-40": 109501,
    "large-index-l8-96-12-54": 1984848,
    "new-l2-48-12-24": 318828,
}
# the same for the seed-3 campaign's candidates that search._distance scored
# by BZ then, by index among its nonzero codes
ENUMERATED_SEED3 = {3: 290, 4: 222, 9: 290, 10: 155, 11: 420, 12: 290, 16: 2400, 17: 11,
                    20: 420, 21: 10, 22: 420, 23: 290, 28: 187, 29: 420, 34: 420, 35: 290,
                    40: 352, 42: 222, 43: 10, 46: 1837, 50: 290, 53: 10, 54: 352, 55: 187,
                    58: 420, 59: 420}


def test_bz_weighs_the_same_codewords_as_before():
    """Each weight-w message with first digit 1, once: the counts are the
    recorded ones on the 26 exact catalog rows and the seed-3 candidates."""
    for name, code in _exact_rows(64):
        assert min_distance_bz(code, NO_LIMIT).enumerated == ENUMERATED_ROWS[name], name
    codes = _campaign_codes(CAMPAIGNS[0])
    for i, count in ENUMERATED_SEED3.items():
        assert min_distance_bz(codes[i], NO_LIMIT).enumerated == count, i


@pytest.mark.parametrize("q", [2, 4, 9])
def test_bz_without_a_left_table_matches_the_brute_scan(q, monkeypatch):
    """With INNER_TABLE_LIMIT = q^2 the right half takes two rows and a
    left half of three or more rows has no table: its classes are digit
    batches summed through chunk tables.  d equals the brute scan's, the
    count equals the one with both tables, and the witness is a word of
    weight d."""
    F, mats = _random_matrices(q, 28, 40)
    cases = [(G, _enumerate_blocks(F, G, False)[1], _brouwer_zimmermann(F, G, NO_LIMIT)[2])
             for G in mats if G.shape[0] >= 5]
    assert len(cases) >= 8
    batched = []
    monkeypatch.setattr(distance, "INNER_TABLE_LIMIT", q**2)
    real = distance._message_sums
    monkeypatch.setattr(distance, "_message_sums",
                        lambda rows, count: batched.append(count) or real(rows, count))
    for G, best, seen in cases:
        d, message, count = _brouwer_zimmermann(F, G, NO_LIMIT)
        assert (d, count) == (best, seen)
        word = np.zeros(G.shape[1], dtype=np.uint8)
        reduced = np.frombuffer(b"".join(RowSpace(F, [bytes(r) for r in G]).rows()),
                                dtype=np.uint8).reshape(G.shape)
        for c, row in zip(message, reduced):
            word = F.np_add[word, F.np_mul[c][row]]
        assert np.count_nonzero(word) == d
    assert batched and min(batched) >= 3


def test_bz_witness_is_a_codeword_of_weight_d():
    codes = _campaign_codes(CAMPAIGNS[0])[:12] + _campaign_codes(CAMPAIGNS[5])[:6]
    for code in codes:
        rep = min_distance_bz(code, NO_LIMIT)
        assert rep.method == "bz" and rep.exact
        assert rep.d == min_distance(code).d
        assert np.count_nonzero(rep.witness) == rep.d
        assert np.array_equal(code.encode(rep.witness_message), rep.witness)
        assert code.is_codeword(rep.witness.tolist())


def test_bz_hands_over_when_it_runs_out_of_codewords():
    code = _campaign_codes(CAMPAIGNS[0])[0]
    rep = min_distance_bz(code, NO_LIMIT)
    assert min_distance_bz(code, rep.enumerated - 1) is None
    assert min_distance_bz(code, rep.enumerated).enumerated == rep.enumerated


def test_bz_limit_is_a_nonnegative_integer():
    """The limit goes through errors.as_index, like every parameter that
    prices work: a string or a float is refused, not compared mid-walk."""
    code = _campaign_codes(CAMPAIGNS[0])[0]
    count = min_distance_bz(code, NO_LIMIT).enumerated
    for bad in ("100", 1.5, -1):
        with pytest.raises(ValueError, match="limit"):
            min_distance_bz(code, bad)
    assert min_distance_bz(code, np.int64(count)).enumerated == count
    assert min_distance_bz(code, 0) is None


def _rows(code):
    q = code.spec.field.q
    return (q**code.k - 1) // (q - 1)


def test_distance_falls_back_to_the_brute_scan(monkeypatch):
    """A code predicted cheap for BZ whose allowance runs out is scanned by
    the brute scan, whose report comes back."""
    code = next(c for c in _campaign_codes(CAMPAIGNS[0])
                if _rows(c) // BZ_COST_RATIO < min_distance_bz(c, NO_LIMIT).enumerated)
    monkeypatch.setattr(search, "bz_cost", lambda code: 0)
    rep = search._distance(code, DEFAULT_BUDGET, 10, 0)
    assert rep.method == "blocks" and rep.enumerated == _rows(code)
    assert rep.d == min_distance(code).d


# the engine search._distance picks for each exact catalog row
ENGINES = dict.fromkeys(ENUMERATED_ROWS, "bz") | {
    "index2-l2-40-9-21": "blocks",
    "large-index-l6-60-10-33": "blocks",
    "large-index-l7-70-10-40": "blocks",
}


def test_engine_choice_is_pinned():
    """The pinned engine for every exact catalog row, BZ on every k = 12-13
    row among them, and BZ for the k = 12 candidates of the seed-3
    campaign."""
    rows = _exact_rows(64)
    assert len(rows) == 26
    for name, code in rows:
        rep = search._distance(code, DEFAULT_BUDGET, 10, 0)
        assert rep.method == ENGINES[name], name
        assert (bz_cost(code) * BZ_COST_RATIO < _rows(code)) == (rep.method == "bz"), name
        if code.k >= 12:
            assert rep.method == "bz" and rep.enumerated == ENUMERATED_ROWS[name], name
    twelve = [code for code in _campaign_codes(CAMPAIGNS[0]) if code.k == 12]
    assert len(twelve) == 10
    for code in twelve:
        rep = search._distance(code, DEFAULT_BUDGET, 10, 0)
        assert rep.method == "bz" and rep.exact and rep.enumerated < 20000
