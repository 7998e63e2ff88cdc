import pytest

from skewqc.distance import min_distance
from skewqc.field import gf4
from skewqc.notation import parse_coeff_string
from skewqc.skewpoly import right_divmod, x_pow_minus_one
from skewqc.tables import (
    FLAGSHIP_ENUMERATOR,
    CatalogEntry,
    catalog,
    entries,
    families,
    get,
)

F = gf4()


# ---------------------------------------------------------------------------
# catalog shape
# ---------------------------------------------------------------------------


def test_catalog_size_and_families():
    assert families() == ("index2", "index34", "nondegenerate", "large-index", "new")
    counts = {fam: len(entries(fam)) for fam in families()}
    assert counts == {
        "index2": 17,
        "index34": 26,
        "nondegenerate": 11,
        "large-index": 11,
        "new": 7,
    }
    assert len(catalog()) == 72


def test_names_unique_and_resolvable():
    names = [e.name for e in catalog()]
    assert len(set(names)) == len(names)
    for name in names:
        assert get(name).name == name
    with pytest.raises(KeyError):
        get("no-such-entry")


def test_entry_shape_invariants():
    for e in catalog():
        assert e.n == e.s * e.l
        assert 0 < e.k <= e.s
        if e.degenerate:
            assert e.k < e.s  # a proper divisor g leaves k = s - deg g < s
        assert e.params == (e.n, e.k, e.d)
        assert len(e.fs) == (e.l - 1 if e.degenerate else e.l)
        if e.degenerate:
            assert e.g is not None


def test_string_token_counts():
    """Generating strings carry one token per coefficient: s for full-length
    components, s - k + 1 for the degenerate generator polynomial."""
    for e in catalog():
        if e.note:  # emended/unverified rows are annotated exceptions
            continue
        if e.degenerate:
            g = parse_coeff_string(F, e.g)
            assert g.degree == e.s - e.k, e.name


# ---------------------------------------------------------------------------
# structural re-checks (cheap: no distance enumeration)
# ---------------------------------------------------------------------------


def test_degenerate_generators_divide_modulus():
    for e in catalog():
        if not e.degenerate:
            continue
        g = parse_coeff_string(F, e.g).monic_left()
        modulus = x_pow_minus_one(F, e.s)
        assert right_divmod(modulus, g)[1].is_zero, e.name


def test_all_entries_build_to_published_dimension():
    for e in catalog():
        if e.note == "unverified-transcription":
            continue
        code = e.build()
        assert code.k == e.k, e.name
        assert code.n == e.n, e.name


def test_parity_cofactor_commutation():
    """h*g = g*h = x^s - 1 for every built entry: complementary factors of a
    central polynomial commute."""
    for e in catalog():
        if e.note == "unverified-transcription":
            continue
        code = e.build()
        modulus = x_pow_minus_one(F, e.s)
        assert code.h * code.g == modulus, e.name
        assert code.g * code.h == modulus, e.name
        assert code.h.degree == code.k, e.name


def test_known_open_rows_are_flagged():
    open_rows = {e.name for e in catalog() if e.note and "not module-closed" in e.note}
    built_open = set()
    for e in catalog():
        if e.note == "unverified-transcription":
            continue
        if not e.build().module_closed:
            built_open.add(e.name)
    assert built_open == open_rows


def test_published_h_strings_match_computed_parity():
    for e in catalog():
        if e.h is None or e.note == "unverified-transcription":
            continue
        assert e.build().h == parse_coeff_string(F, e.h).monic_left(), e.name


# ---------------------------------------------------------------------------
# spot distance checks on small rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    [
        "index2-l2-40-9-21",
        "index2-l2-48-11-24",
        "index34-l4-56-11-29",
        "index34-l4-56-12-28",
        "nondegenerate-l3-30-10-14",
        "large-index-l6-60-10-33",
    ],
)
def test_small_row_distances_exact(name):
    e = get(name)
    code = e.build()
    rep = min_distance(code, budget=1 << 24)
    assert rep.exact and rep.d == e.d


def test_emended_rows_carry_notes():
    for e in catalog():
        if e.name in ("index2-l2-48-13-22", "index34-l4-56-12-28", "index34-l4-64-15-30"):
            assert e.note.startswith("emended")


# ---------------------------------------------------------------------------
# the frozen flagship weight distribution
# ---------------------------------------------------------------------------


def test_flagship_enumerator_is_self_consistent():
    assert sum(FLAGSHIP_ENUMERATOR.values()) == 4**12
    assert FLAGSHIP_ENUMERATOR[0] == 1
    assert min(w for w in FLAGSHIP_ENUMERATOR if w > 0) == 24
    assert max(FLAGSHIP_ENUMERATOR) == 48
    assert all(c > 0 for c in FLAGSHIP_ENUMERATOR.values())


def test_catalog_entry_is_immutable():
    e = get("new-l2-48-12-24")
    with pytest.raises(Exception):
        e.k = 13
