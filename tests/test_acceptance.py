"""End-to-end acceptance checks, one per headline capability.

Each test is self-contained, prints a single summary line on success, and
asserts the stated runtime envelope where one applies.  Together they cover:
twisted ring laws, division and Euclidean identities, non-unique modulus
factorization, catalog-wide generator/parity structure, full-enumeration
reproduction of the [48,12,24] record code, exact and extended catalog tiers,
large-code sampling consistency, polynomial similarity, and campaign
determinism.
"""

import random
import time

from oracles import codeword_set, left_divmod_linalg, linear_similar, rank, right_divmod_linalg
from skewqc.cli import main as cli_main
from skewqc.distance import min_distance, min_distance_sampled, weight_enumerator
from skewqc.factorization import is_central, verify_factorization
from skewqc.field import gf4, make_field
from skewqc.search import SearchConfig, export_records, run_search, verify_entry
from skewqc.similarity import are_similar
from skewqc.skewpoly import (
    SkewPoly,
    gcld,
    gcrd,
    lclm,
    left_divmod,
    right_divmod,
    x_pow_minus_one,
)
from skewqc.tables import FLAGSHIP_ENUMERATOR, catalog, entries, get

F = gf4()
A, A2 = 2, 3

EXACT_BUDGET = 2**26
EXTENDED_BUDGET = 2**32
CONSISTENCY_TRIALS = 10_000_000


def lin(c):
    return SkewPoly(F, [c, 1])


def rand_poly(rng, max_deg, nonzero=False):
    coeffs = [rng.randrange(4) for _ in range(rng.randrange(max_deg + 1) + 1)]
    poly = SkewPoly(F, coeffs)
    while nonzero and poly.is_zero:
        poly = SkewPoly(F, [rng.randrange(4) for _ in range(max_deg + 1)])
    return poly


def report(number, detail, t0):
    print(f"[acceptance] criterion {number:02d} PASS — {detail} ({time.perf_counter() - t0:.2f}s)")


# ---------------------------------------------------------------------------
# 1. twisted ring laws
# ---------------------------------------------------------------------------


def test_criterion_01_twisted_ring_laws():
    t0 = time.perf_counter()
    ax, a2x = SkewPoly(F, [0, A]), SkewPoly(F, [0, A2])
    assert ax * a2x == SkewPoly(F, [0, 0, A2])  # (ax)(a^2 x) = a^2 x^2
    assert a2x * ax == SkewPoly(F, [0, 0, A])   # (a^2 x)(ax) = a x^2
    rng = random.Random(1)
    for _ in range(1000):
        f, g, h = (rand_poly(rng, 8) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "twisted monomial products and 1000 random law triples", t0)


# ---------------------------------------------------------------------------
# 2. division round-trip, two implementations
# ---------------------------------------------------------------------------


def test_criterion_02_division_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(2)
    for _ in range(10_000):
        f = rand_poly(rng, 5, nonzero=True)
        g = rand_poly(rng, 9)
        q, r = right_divmod(g, f)
        assert g == q * f + r
        assert r.is_zero or r.degree < f.degree
        assert (q, r) == right_divmod_linalg(g, f)
        ql, rl = left_divmod(g, f)
        assert g == f * ql + rl
        assert rl.is_zero or rl.degree < f.degree
        assert (ql, rl) == left_divmod_linalg(g, f)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, "10000 pairs, both sides, schoolbook == elimination", t0)


# ---------------------------------------------------------------------------
# 3. Euclidean identities
# ---------------------------------------------------------------------------


def test_criterion_03_euclidean_identities():
    t0 = time.perf_counter()
    rng = random.Random(3)
    for _ in range(10_000):
        f = rand_poly(rng, 5, nonzero=True)
        g = rand_poly(rng, 5, nonzero=True)
        right = gcrd(f, g)
        assert right.cofactor_f * f + right.cofactor_g * g == right.gcd
        left = gcld(f, g)
        assert f * left.cofactor_f + g * left.cofactor_g == left.gcd
        assert lclm(f, g).degree == f.degree + g.degree - right.gcd.degree
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, "10000 pairs: Bezout both sides and the lclm degree identity", t0)


# ---------------------------------------------------------------------------
# 4. non-unique factorization of the modulus
# ---------------------------------------------------------------------------


def test_criterion_04_modulus_factorizations():
    t0 = time.perf_counter()
    x4 = x_pow_minus_one(F, 4)
    displayed = [
        [lin(1), lin(1), lin(1), lin(1)],
        [lin(A), lin(A2), lin(A), lin(A2)],
        [lin(A), lin(A), lin(A2), lin(A2)],
        [lin(A), lin(A2), lin(1), lin(1)],
    ]
    for factors in displayed:
        assert verify_factorization(x4, factors)
    x2 = x_pow_minus_one(F, 2)
    assert lin(1) * lin(1) == x2
    assert lin(A) * lin(A2) == x2
    for s in range(2, 13):
        assert is_central(x_pow_minus_one(F, s)) == (s % 2 == 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(4, "x^4-1 four ways, x^2-1 two ways, centrality iff 2 | s", t0)


# ---------------------------------------------------------------------------
# 5. generator/parity structure across the catalog
# ---------------------------------------------------------------------------


def test_criterion_05_generator_parity_structure():
    t0 = time.perf_counter()
    families = ("index2", "index34", "nondegenerate", "large-index")
    rows = [
        e
        for fam in families
        for e in entries(fam)
        if e.k <= 16 and e.note != "unverified-transcription"
    ]
    assert len(rows) == 43
    for entry in rows:
        code = entry.build()
        modulus = x_pow_minus_one(code.spec.field, entry.s)
        assert code.g * code.h == modulus
        assert code.h * code.g == modulus
        spanning_rank = rank(code.spec.field, code.genmatrix)
        assert spanning_rank == entry.s - code.g.degree == code.h.degree == code.k
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, f"{len(rows)} rows: g*h = h*g = x^s-1 and rank = s - deg g = deg h", t0)


# ---------------------------------------------------------------------------
# 6. the [48,12,24] record code, reproduced by full enumeration
# ---------------------------------------------------------------------------


def test_criterion_06_record_code_full_enumeration():
    t0 = time.perf_counter()
    code = get("new-l2-48-12-24").build()
    assert (code.n, code.k) == (48, 12)
    enum = weight_enumerator(code, budget=EXTENDED_BUDGET)
    assert enum.total == 4**12 == 16_777_216
    assert sum(enum.counts.values()) == 4**12
    assert enum.distance == 24
    assert enum.counts[24] == 3390
    assert enum.counts[48] == 132
    assert dict(enum.counts) == dict(FLAGSHIP_ENUMERATOR)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(6, "[48,12,24]: d = 24 exact, full 4^12 weight distribution matches", t0)


# ---------------------------------------------------------------------------
# 7. exact and extended catalog tiers
# ---------------------------------------------------------------------------


def test_criterion_07_exact_tier_small_dimensions():
    t0 = time.perf_counter()
    rows = [e for e in entries("index2") if e.k <= 13]
    named = {
        (40, 9, 21), (40, 10, 20), (40, 11, 19), (40, 12, 18), (44, 12, 20),
        (48, 11, 24), (48, 12, 23), (48, 13, 22), (52, 13, 24), (60, 11, 32),
    }
    assert named <= {(e.n, e.k, e.d) for e in rows}
    for entry in rows:
        rep = verify_entry(entry, budget=EXACT_BUDGET)
        assert rep.passed is True and rep.exact, rep.line()
    report(7, f"{len(rows)} rows with k <= 13 reproduce (k, d) exactly", t0)


def test_criterion_07_extended_tier_dimensions_14_to_16():
    t0 = time.perf_counter()
    rows = [e for e in entries("index2") if 14 <= e.k <= 16]
    assert len(rows) == 6
    for entry in rows:
        rep = verify_entry(entry, budget=EXTENDED_BUDGET)
        assert rep.passed is True and rep.exact, rep.line()
    report(7, "6 rows with 14 <= k <= 16 reproduce (k, d) under the 2^32 budget", t0)


# ---------------------------------------------------------------------------
# 8. large-code consistency tier
# ---------------------------------------------------------------------------

LARGE_NEW_CODES = [
    "new-l3-72-21-29",
    "new-l6-96-16-49",
    "new-l5-100-20-47",
    "new-l7-140-20-72",
    "new-l5-110-22-51",
    "new-l3-48-16-20",
]


def test_criterion_08_large_code_consistency():
    t0 = time.perf_counter()
    for name in LARGE_NEW_CODES:
        entry = get(name)
        code = entry.build()
        assert code.k == entry.k, name
        rep = min_distance_sampled(code, trials=CONSISTENCY_TRIALS, seed=0)
        assert rep.d is not None and rep.d >= entry.d, (
            f"{name}: sampled weight {rep.d} below claimed {entry.d}"
        )
    report(8, f"6 codes: k exact; no weight below claim in {CONSISTENCY_TRIALS} samples", t0)


def test_criterion_08_exact_and_extended_large_codes():
    t0 = time.perf_counter()
    rep = min_distance(get("new-l3-48-16-20").build(), budget=EXTENDED_BUDGET)
    assert rep.exact and rep.d == 20
    rep = min_distance(get("new-l6-96-16-49").build(), budget=EXTENDED_BUDGET)
    assert rep.exact and rep.d == 49
    report(8, "[48,16,20] and [96,16,49] verified exactly under the 2^32 budget", t0)


# ---------------------------------------------------------------------------
# 9. similarity
# ---------------------------------------------------------------------------


def test_criterion_09_similarity():
    t0 = time.perf_counter()
    linears = [lin(1), lin(A), lin(A2)]
    for i in range(3):
        for j in range(3):
            assert are_similar(linears[i], linears[j]).status == "similar"
    for field in (F, make_field(3, 1, 2)):
        x_minus = lambda c: SkewPoly(field, [field.sub[0][c], 1])
        for alpha in range(field.q):
            for beta in range(1, field.q):
                fast = linear_similar(field, alpha, beta)
                searched = are_similar(x_minus(alpha), x_minus(beta)).status
                assert fast == (searched == "similar")

    # codes with equal codeword sets have similar parity checks (s <= 8)
    from skewqc.codes import build_code

    groups_seen = 0
    for s in (2, 4, 6, 8):
        rng = random.Random(900 + s)
        by_set = {}
        for _ in range(40):
            f = SkewPoly(F, [rng.randrange(4) for _ in range(s)])
            if f.is_zero:
                continue
            code = build_code(F, s, (f,))
            if code.k == 0 or code.k > 7:
                continue
            by_set.setdefault(codeword_set(code), []).append(code)
        for codes in by_set.values():
            if len(codes) < 2:
                continue
            groups_seen += 1
            first = codes[0]
            for other in codes[1:]:
                assert are_similar(first.h, other.h, budget=1 << 16).status == "similar"
    assert groups_seen >= 4
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(9, "linear classes, fast path == search on GF(4)/GF(9), equal codes", t0)


# ---------------------------------------------------------------------------
# 10. campaign determinism
# ---------------------------------------------------------------------------


def test_criterion_10_campaign_determinism(tmp_path):
    t0 = time.perf_counter()
    config = SearchConfig(s=8, l=2, trials=40, seed=11)
    runs = [export_records(list(run_search(config)), "tsv") for _ in range(2)]
    assert runs[0] == runs[1]
    json_runs = [export_records(list(run_search(config)), "json") for _ in range(2)]
    assert json_runs[0] == json_runs[1]

    cfg_path = tmp_path / "campaign.cfg"
    cfg_path.write_text("s = 8\nl = 2\ntrials = 40\nseed = 11\n")
    outputs = []
    for tag in ("one", "two"):
        out_path = tmp_path / f"run-{tag}.tsv"
        assert cli_main(
            ["search", "--config", str(cfg_path), "--output", str(out_path)]
        ) == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].decode() == runs[0]  # the command writes the library export
    report(10, "seeded campaign byte-identical across reruns (library and command)", t0)
