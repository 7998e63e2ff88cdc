"""Tests for search campaigns, record exports, and catalog verification."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from skewqc import factorization, search
from skewqc.distance import exact_cost, min_distance, weight_enumerator
from skewqc.errors import BudgetExceededError
from skewqc.field import make_field
from skewqc.notation import parse_coeff_string
from skewqc.search import (
    SearchConfig,
    SearchRecord,
    TSV_HEADER,
    classify,
    export_records,
    load_bounds,
    load_config,
    parse_config_text,
    records_from_json,
    records_to_json,
    records_to_tsv,
    run_search,
    table_ok,
    verify_entry,
    verify_table,
)
from skewqc.factorization import modulus_right_divisors
from skewqc.skewpoly import gcld_many, x_pow_minus_one
from skewqc.tables import get


# ---------------------------------------------------------------------------
# configuration parsing


def test_parse_config_text():
    text = """
    # campaign over blocks of length 8
    s = 8
    l = 3            # trailing comment
    sampling = "exhaustive"
    g-degree-max = 5
    bounds = 'best.txt'
    """
    values = parse_config_text(text)
    assert values == {
        "s": 8,
        "l": 3,
        "sampling": "exhaustive",
        "g_degree_max": 5,
        "bounds": "best.txt",
    }


def test_config_hash_inside_quotes_is_not_a_comment():
    """A # starts a comment only outside quotes, and a quote left open is an
    error naming its line."""
    assert parse_config_text('output = "runs#3.tsv"  # where') == {"output": "runs#3.tsv"}
    assert parse_config_text("s = 8\nbounds = 'a#b.txt'#c") == {"s": 8, "bounds": "a#b.txt"}
    with pytest.raises(ValueError, match="line 2: unclosed quote"):
        parse_config_text('s = 8\noutput = "runs#3.tsv  # where')


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_config_text("mystery = 3")
    with pytest.raises(ValueError):
        parse_config_text("just some words")


def test_config_values_take_their_field_type(tmp_path):
    """A value is converted by its SearchConfig field's type, not guessed
    from its text: coefficient strings and paths that read as integers stay
    strings, and an int field refuses anything int() refuses."""
    assert parse_config_text("g = 11\nfs = '101'\nbounds = 7\noutput = 1") == {
        "g": "11", "fs": "101", "bounds": "7", "output": "1"}
    config = load_config(None, overrides={"s": "8", "g": "101", "fs": "1"})
    assert (config.s, config.g, config.fs) == (8, "101", "1")
    config = load_config(None, overrides={"s": 8, "bounds": "7", "output": "1"})
    assert (config.bounds, config.output) == ("7", "1")
    with pytest.raises(ValueError, match="s must be an integer, got 'abc'"):
        load_config(None, overrides={"s": "abc"})
    with pytest.raises(ValueError, match="trials must be an integer, got 'true'"):
        load_config(None, overrides={"s": 8, "trials": "true"})
    path = tmp_path / "c.cfg"
    path.write_text("s = 8\nseed = false\n")
    with pytest.raises(ValueError, match="seed must be an integer, got 'false'"):
        load_config(str(path))


def test_load_config_file_plus_overrides(tmp_path):
    path = tmp_path / "campaign.cfg"
    path.write_text("s = 8\ntrials = 5\nseed = 1\n")
    config = load_config(str(path), overrides={"trials": "9", "l": 4})
    assert (config.s, config.trials, config.seed, config.l) == (8, 9, 1, 4)
    with pytest.raises(ValueError):
        load_config(str(path), overrides={"mystery": 3})
    with pytest.raises(ValueError):
        load_config(None, overrides={"l": 2})  # s is mandatory


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(s=7)  # x^7 - 1 is not central when m = 2
    with pytest.raises(ValueError):
        SearchConfig(s=8, sampling="greedy")
    with pytest.raises(ValueError):
        SearchConfig(s=8, trials=-1)
    with pytest.raises(ValueError):
        SearchConfig(s=8, l=0)
    with pytest.raises(ValueError):
        SearchConfig(s=8, g_degree_min=0)
    with pytest.raises(ValueError):
        SearchConfig(s=8, g_degree_max=8)
    with pytest.raises(ValueError):
        SearchConfig(s=8, budget=0)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("trials", 2.0), ("budget", "8"), ("g_degree_max", 1.0), ("s", 4.0),
])
def test_config_refuses_non_integer_int_fields(field, value):
    """Every int field goes through operator.index, so a seed of 1.5 no
    longer waits for numpy's SeedSequence to fail mid-campaign."""
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SearchConfig(**{"s": 4, "budget": 8, "g_degree_max": 1, field: value})


def test_config_takes_numpy_integers_as_python_ints():
    config = SearchConfig(s=np.int64(8), seed=np.uint8(3), g_degree_max=np.int32(5))
    assert config == SearchConfig(s=8, seed=3, g_degree_max=5)
    assert all(type(getattr(config, name)) is int for name in ("s", "seed", "g_degree_max"))


def test_degree_window():
    assert SearchConfig(s=8).degree_window == (1, 7)
    assert SearchConfig(s=8, g_degree_min=2, g_degree_max=5).degree_window == (2, 5)
    # an explicit fixed tuple bypasses the window check entirely
    cfg = SearchConfig(s=8, g="11", g_degree_min=9)
    assert cfg.g == "11"


# ---------------------------------------------------------------------------
# bounds tables and classification


def test_load_bounds(tmp_path):
    path = tmp_path / "best.txt"
    path.write_text(
        "n k best_d\n"  # header row is tolerated once
        "# comment line\n"
        "40 9 21\n"
        "\n"
        "48 11 24\n"
    )
    assert load_bounds(str(path)) == {(40, 9): 21, (48, 11): 24}


def test_load_bounds_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("40 9\n")
    with pytest.raises(ValueError):
        load_bounds(str(path))
    path.write_text("n k best_d\n40 nine 21\n")  # second non-numeric row is an error
    with pytest.raises(ValueError):
        load_bounds(str(path))


def test_classify():
    bounds = {(40, 9): 21}
    assert classify(40, 9, 22, True, bounds) == "new"
    assert classify(40, 9, 21, True, bounds) == "good"
    assert classify(40, 9, 20, True, bounds) == "below"
    assert classify(40, 9, None, True, bounds) == "below"
    # parameters missing from the table count as best 0
    assert classify(48, 11, 1, True, bounds) == "new"
    assert classify(48, 11, 24, True, {}) == "new"
    # a sampled d is an upper bound: below the table is decided, the rest open
    assert classify(40, 9, 20, False, bounds) == "below"
    assert classify(40, 9, 21, False, bounds) == "open"
    assert classify(40, 9, 22, False, bounds) == "open"
    assert classify(48, 11, 24, False, {}) == "open"
    # a sampled None (no nonzero message drawn) bounds nothing
    assert classify(40, 9, None, False, bounds) == "open"


def test_sampled_replay_is_open_not_new(tmp_path):
    """A sampled upper bound above the table is not a record: the row's exact
    d is 19, and 10^5 samples only reach 22."""
    entry = get("index2-l2-48-16-19")
    path = tmp_path / "bounds.txt"
    path.write_text("48 16 19\n")
    config = SearchConfig(s=entry.s, l=entry.l, trials=1, g=entry.g,
                          fs=",".join(entry.fs), bounds=str(path))
    (record,) = list(run_search(config))
    assert (record.n, record.k, record.exact) == (48, 16, False)
    assert record.d >= 19 and record.comparison == "open"


# ---------------------------------------------------------------------------
# records and exports


def test_record_round_trips():
    record = SearchRecord(
        n=40, k=9, d=21, exact=True, comparison="good", generators=("a1", "11")
    )
    assert SearchRecord.from_dict(record.as_dict()) == record
    none_d = SearchRecord(
        n=8, k=4, d=None, exact=False, comparison="below", generators=("11",)
    )
    text = records_to_json([record, none_d])
    assert records_from_json(text) == [record, none_d]
    assert json.loads(text)[1]["d"] is None


def test_tsv_format():
    record = SearchRecord(
        n=40, k=9, d=21, exact=True, comparison="good", generators=("a1", "11")
    )
    none_d = dataclasses.replace(record, d=None, exact=False, comparison="below")
    text = records_to_tsv([record, none_d])
    lines = text.splitlines()
    assert lines[0] == TSV_HEADER
    assert lines[1] == "40\t9\t21\ttrue\tgood\ta1,11\t"
    assert lines[2] == "40\t9\t\tfalse\tbelow\ta1,11\t"


def test_export_format_dispatch():
    record = SearchRecord(
        n=8, k=4, d=4, exact=True, comparison="new", generators=("a1",)
    )
    assert export_records([record], "tsv") == records_to_tsv([record])
    assert export_records([record], "json") == records_to_json([record])
    with pytest.raises(ValueError):
        export_records([record], "xml")


# ---------------------------------------------------------------------------
# campaigns


def test_campaign_deterministic():
    config = SearchConfig(s=4, l=2, trials=12, seed=7)
    first = list(run_search(config))
    second = list(run_search(config))
    assert first == second
    assert export_records(first, "tsv") == export_records(second, "tsv")
    assert export_records(first, "json") == export_records(second, "json")
    shifted = list(run_search(dataclasses.replace(config, seed=8)))
    assert shifted != first  # the seed really drives the draw


def test_fixed_campaign_export_is_byte_identical():
    """The fixed campaign s=12 l=2 trials=60 seed=3: its TSV export is
    pinned by digest, so any change to the stream or the records shows."""
    records = list(run_search(SearchConfig(s=12, l=2, trials=60, seed=3)))
    tsv = export_records(records, "tsv")
    assert hashlib.sha256(tsv.encode()).hexdigest() == (
        "76b239733197468d07951ad2554df5f332345e0772c5b6516b5a7c4404815949")


def _spy_on_divisor_scans(monkeypatch):
    """The degrees of every batched divisor scan made from now on."""
    scans = []

    def spied(field, modulus, dg):
        scans.append(dg)
        return scan(field, modulus, dg)

    scan = factorization._scan_modulus_divisors
    monkeypatch.setattr(factorization, "_scan_modulus_divisors", spied)
    return scans


def test_campaign_scans_each_divisor_degree_once(monkeypatch):
    """The seed-3 window 1..11 of x^12 - 1 scans degrees 1..6 once each,
    5,460 candidates, where one scan per window degree made 11 over 6,824."""
    scans = _spy_on_divisor_scans(monkeypatch)
    list(run_search(SearchConfig(s=12, l=2, trials=1, seed=3)))
    assert sorted(scans) == [1, 2, 3, 4, 5, 6]
    assert sum(4**d for d in scans) == 5460


@pytest.mark.parametrize("window", [(1, 11), (7, 11), (4, 9), (6, 6)])
def test_window_divisors_list_every_degree_in_order(monkeypatch, window):
    """The window lists what one modulus_right_divisors call per degree
    lists, in the same order, with each degree min(d, 12 - d) scanned once."""
    field = make_field(2, 1, 2)
    degrees = range(window[0], window[1] + 1)
    expected = [g for d in degrees for g in modulus_right_divisors(field, 12, d)]
    scans = _spy_on_divisor_scans(monkeypatch)
    assert search._window_divisors(field, 12, degrees, 2**26) == expected
    assert sorted(scans) == sorted({min(d, 12 - d) for d in degrees})


def test_campaign_refuses_an_over_budget_window_before_any_scan(monkeypatch):
    """Each degree is priced alone, as one modulus_right_divisors call per
    degree prices it: at s = 20 and budget 4^6 degrees 1..6 and 14..19 fit
    and degree 7 does not, so the campaign is refused with no scan made."""
    scans = _spy_on_divisor_scans(monkeypatch)
    with pytest.raises(BudgetExceededError) as info:
        list(run_search(SearchConfig(s=20, l=2, trials=1, budget=2**12)))
    assert scans == []
    assert (info.value.required, info.value.budget) == (4**7, 2**12)
    window = SearchConfig(s=20, l=2, trials=1, budget=2**12, g_degree_max=6)
    assert len(list(run_search(window))) == 1
    assert sorted(scans) == [1, 2, 3, 4, 5, 6]


def test_campaign_records_check_out():
    field = make_field(2, 1, 2)
    modulus = x_pow_minus_one(field, 4)
    config = SearchConfig(s=4, l=2, trials=10, seed=1)
    records = list(run_search(config))
    assert records
    for record in records:
        assert record.n == 4 * 2
        # dimension agrees with the left-gcd rank formula
        components = [parse_coeff_string(field, g) for g in record.generators]
        assert record.k == 4 - gcld_many(components + [modulus]).degree
        assert record.exact  # 4^k fits any sane budget here
        # the stored strings rebuild the same code
        rebuilt = record.rebuild()
        assert rebuilt.k == record.k
        assert record.d is not None and 1 <= record.d <= record.n


def test_gf9_record_round_trips_through_json():
    config = SearchConfig(s=4, p=3, t=1, m=2, trials=3, seed=1)
    records = list(run_search(config))
    assert records
    back = records_from_json(export_records(records, "json"))
    assert back == records
    for record in back:
        assert record.field == (3, 1, 2)
        assert record.rebuild().k == record.k


def test_gf9_campaign_tsv_names_its_field():
    """A GF(9) export carries a trailing field column, one cell per row;
    GF(4) exports have no such column (see the seed-3 digest above)."""
    records = list(run_search(SearchConfig(s=4, p=3, t=1, m=2, trials=3, seed=1)))
    lines = export_records(records, "tsv").splitlines()
    assert lines[0] == TSV_HEADER + "\tfield"
    assert len(lines) == len(records) + 1 >= 2
    assert [line.split("\t")[-1] for line in lines[1:]] == ["3,1,2"] * len(records)


def test_campaign_exhaustive_small_case():
    # s = 2, single-component tuples: the candidates are exactly the three
    # monic linear right divisors of x^2 - 1, each generating a [2,1,2] code.
    config = SearchConfig(s=2, l=1, sampling="exhaustive", trials=10)
    records = list(run_search(config))
    assert [r.generators for r in records] == [("11",), ("a1",), ("a^21",)]
    assert all((r.n, r.k, r.d, r.exact) == (2, 1, 2, True) for r in records)
    # l = 2: each divisor g with every multiplier f of degree < 2, the x^0
    # coefficient of f varying fastest; the records show (g, f*g)
    config = SearchConfig(s=2, l=2, sampling="exhaustive", trials=20)
    assert [r.generators for r in run_search(config)] == [
        ("11", "0"), ("11", "11"), ("11", "aa"), ("11", "a^2a^2"),
        ("11", "11"), ("11", "0"), ("11", "a^2a^2"), ("11", "aa"),
        ("11", "aa"), ("11", "a^2a^2"), ("11", "0"), ("11", "11"),
        ("11", "a^2a^2"), ("11", "aa"), ("11", "11"), ("11", "0"),
        ("a1", "0"), ("a1", "a1"), ("a1", "a^2a"), ("a1", "1a^2"),
    ]


def test_campaign_trials_zero_is_empty():
    assert list(run_search(SearchConfig(s=4, trials=0))) == []
    assert export_records([], "tsv") == TSV_HEADER + "\n"


def test_campaign_fixed_tuple_replay(tmp_path):
    entry = get("index2-l2-40-9-21")
    outcomes = {}
    for best, expected in ((21, "good"), (20, "new"), (22, "below")):
        path = tmp_path / f"best{best}.txt"
        path.write_text(f"40 9 {best}\n")
        config = SearchConfig(
            s=entry.s, l=entry.l, trials=1,
            g=entry.g, fs=",".join(entry.fs), bounds=str(path),
        )
        (record,) = list(run_search(config))
        assert (record.n, record.k, record.d, record.exact) == (40, 9, 21, True)
        outcomes[best] = record.comparison
        assert outcomes[best] == expected
    # without a bounds table every nonzero distance counts as new
    config = SearchConfig(s=entry.s, l=entry.l, trials=1, g=entry.g, fs=",".join(entry.fs))
    (record,) = list(run_search(config))
    assert record.comparison == "new"


def test_config_rejects_fs_without_g():
    with pytest.raises(ValueError, match="fs requires g"):
        SearchConfig(s=8, l=2, trials=3, seed=1, fs="a1")


def test_campaign_fixed_tuple_multiplier_count():
    config = SearchConfig(s=4, l=3, trials=1, g="11", fs="a1")  # needs 2 multipliers
    with pytest.raises(ValueError):
        list(run_search(config))


def test_campaign_skips_zero_code():
    # x^4 + 1 reduces to zero mod x^4 - 1, so the candidate generates nothing
    messages = []
    config = SearchConfig(s=4, l=1, trials=1, g="10001")
    assert list(run_search(config, progress=messages.append)) == []
    assert messages == ["candidate 0: zero code, skipped"]


def test_sampled_candidate_without_an_upper_bound_is_open():
    """A [4,1] candidate past the budget whose one sampled message is zero
    has no bound on d: it is open, and its progress line shows no d."""
    messages = []
    config = SearchConfig(s=2, l=2, trials=1, seed=9, g="11", fs="1", budget=1,
                          distance_trials=1)
    (record,) = list(run_search(config, progress=messages.append))
    assert (record.n, record.k, record.d, record.exact) == (4, 1, None, False)
    assert record.comparison == "open"
    assert messages == ["candidate 0: [4,1] sampled open"]


def test_only_one_worker_is_accepted():
    code = get("index2-l2-40-9-21").build()
    config = SearchConfig(s=4, l=2, trials=8, seed=3)
    rows = [get("index2-l2-40-9-21")]
    for workers in (2, 0):
        with pytest.raises(ValueError, match="workers"):
            min_distance(code, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            next(run_search(config, workers=workers))
        with pytest.raises(ValueError, match="workers"):
            verify_table(rows, workers=workers)
    assert min_distance(code, workers=1).d == min_distance(code).d == 21
    assert [r.status for r in verify_table(rows, workers=1)] == ["ok"]


def test_campaign_workers_do_not_change_output():
    config = SearchConfig(s=4, l=2, trials=8, seed=3)
    assert list(run_search(config, workers=1)) == list(run_search(config))
    with pytest.raises(ValueError, match="workers"):
        next(run_search(config, workers=2))


# ---------------------------------------------------------------------------
# catalog verification


def test_verify_entry_ok():
    report = verify_entry(get("index2-l2-40-9-21"))
    assert report.status == "ok"
    assert report.passed is True
    assert (report.k_found, report.d_found, report.exact) == (9, 21, True)
    assert report.line().startswith("ok  ")


def test_verify_entry_detects_wrong_distance():
    entry = dataclasses.replace(get("index2-l2-40-9-21"), name="fab-wrong-d", d=22)
    report = verify_entry(entry)
    assert report.status == "fail"
    assert report.passed is False
    assert report.d_found == 21 and report.exact
    assert "21 != 22" in report.detail
    assert report.line().startswith("FAIL")


def test_verify_entry_detects_wrong_dimension():
    entry = dataclasses.replace(get("index2-l2-40-9-21"), name="fab-wrong-k", k=10)
    report = verify_entry(entry)
    assert report.status == "fail"
    assert report.k_found == 9
    assert "dimension" in report.detail


def test_verify_entry_unverified_rows_reported_not_asserted():
    entry = dataclasses.replace(
        get("index2-l2-40-9-21"), name="fab-unv", note="unverified-transcription"
    )
    report = verify_entry(entry)
    assert report.status == "unverified"
    assert report.passed is None
    assert report.k_found == 9  # the build is still reported
    assert report.line().startswith("??? ")


def test_verify_rejects_nonpositive_sample_trials():
    """Zero samples would certify a sampled row; both calls refuse before
    building anything."""
    entry = get("new-l2-48-12-24")
    lines = []
    for trials in (0, -5):
        with pytest.raises(ValueError, match="sample_trials"):
            verify_entry(entry, sample_trials=trials)
        with pytest.raises(ValueError, match="sample_trials"):
            verify_table([entry], sample_trials=trials, progress=lines.append)
    assert lines == []


@pytest.mark.parametrize("budget", [0, -1])
def test_verify_rejects_nonpositive_budget(budget):
    """A budget below 1 would downgrade every exact row to a sample; both
    calls refuse before building anything."""
    entry = get("index2-l2-40-9-21")
    lines = []
    with pytest.raises(ValueError, match="budget"):
        verify_entry(entry, budget=budget)
    with pytest.raises(ValueError, match="budget"):
        verify_table([entry], budget=budget, progress=lines.append)
    assert lines == []


def test_verify_rejects_negative_seed():
    """numpy refuses a negative seed only at the first sampled row, after the
    exact rows' work; both calls refuse before building anything."""
    exact_row, sampled_row = get("index2-l2-40-9-21"), get("new-l3-72-21-29")
    lines = []
    with pytest.raises(ValueError, match="seed"):
        verify_entry(sampled_row, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        verify_table([exact_row, sampled_row], seed=-1, progress=lines.append)
    assert lines == []


@pytest.mark.parametrize("name, value", [("sample_trials", 10.0), ("seed", 1.5)])
def test_verify_refuses_non_integer_trials_and_seed(name, value):
    """Both calls refuse before building anything."""
    entry = get("new-l3-72-21-29")
    lines = []
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        verify_entry(entry, **{name: value})
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        verify_table([entry], progress=lines.append, **{name: value})
    assert lines == []


def test_config_rejects_negative_seed():
    """Sampled candidates draw from seed + index, which numpy refuses below 0."""
    with pytest.raises(ValueError, match="seed"):
        SearchConfig(s=8, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        load_config(None, overrides={"s": 8, "seed": "-3"})
    assert SearchConfig(s=8, seed=0).seed == 0


def test_one_budget_unit_for_distance_and_verification():
    """min_distance, weight_enumerator and verify_entry all price the
    [40,9,21] row at its 4^9 messages, so they draw the line at one budget."""
    entry = get("index2-l2-40-9-21")
    code = entry.build()
    assert exact_cost(code) == 4**9
    assert min_distance(code, budget=4**9).d == 21
    assert weight_enumerator(code, budget=4**9).total == 4**9
    for call in (min_distance, weight_enumerator):
        with pytest.raises(BudgetExceededError):
            call(code, budget=4**9 - 1)
    exact = verify_entry(entry, budget=4**9)
    assert (exact.status, exact.exact, exact.d_found) == ("ok", True, 21)
    sampled = verify_entry(entry, budget=4**9 - 1, sample_trials=2000)
    assert (sampled.status, sampled.exact) == ("ok", False)
    assert sampled.detail == "consistent over 2000 samples"


def test_verify_table_contains_per_row_errors():
    good = get("index2-l2-40-9-21")
    broken = dataclasses.replace(good, name="fab-broken", g="zz")
    unverified = dataclasses.replace(
        good, name="fab-unv", note="unverified-transcription"
    )
    lines = []
    reports = verify_table([good, broken, unverified], progress=lines.append)
    assert [r.status for r in reports] == ["ok", "error", "unverified"]
    assert len(lines) == 3 and lines[1].startswith("ERR ")
    assert table_ok(reports) is False
    assert table_ok([reports[0], reports[2]]) is True  # unverified never fails a table
