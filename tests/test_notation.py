import random

import pytest

from skewqc.field import gf4, make_field
from skewqc.notation import parse_coeff_string, poly_coeff_string, poly_to_terms
from skewqc.skewpoly import SkewPoly

F = gf4()
A, A2 = 2, 3

# ---------------------------------------------------------------------------
# parsing: tokens follow increasing powers, a^2 is one token (greedy)
# ---------------------------------------------------------------------------


def test_worked_example_string():
    """a001aa^21 reads as x^6 + a^2 x^5 + a x^4 + x^3 + a."""
    f = parse_coeff_string(F, "a001aa^21")
    assert list(f.coeffs) == [A, 0, 0, 1, A, A2, 1]
    assert f.degree == 6
    assert poly_to_terms(f) == "x^6 + a^2*x^5 + a*x^4 + x^3 + a"


def test_constant_and_simple_strings():
    assert parse_coeff_string(F, "1") == SkewPoly.one(F)
    g = parse_coeff_string(F, "10001")
    assert list(g.coeffs) == [1, 0, 0, 0, 1]  # x^4 + 1
    assert parse_coeff_string(F, "0").is_zero


def test_whitespace_and_commas_are_separators():
    a = parse_coeff_string(F, "a^2 0 a^2 1")
    b = parse_coeff_string(F, "a^20a^21")
    c = parse_coeff_string(F, "a^2,0,a^2,1")
    assert a == b == c


def test_greedy_a_caret_2():
    f = parse_coeff_string(F, "a^2a")
    assert list(f.coeffs) == [A2, A]
    g = parse_coeff_string(F, "aa^2")
    assert list(g.coeffs) == [A, A2]


def test_invalid_strings_raise():
    with pytest.raises(ValueError):
        parse_coeff_string(F, "ab1")
    with pytest.raises(ValueError):
        parse_coeff_string(F, "a^")
    with pytest.raises(ValueError):
        parse_coeff_string(F, "a^3")
    with pytest.raises(ValueError):
        parse_coeff_string(F, "")


# ---------------------------------------------------------------------------
# printing and round trips
# ---------------------------------------------------------------------------


def test_print_parse_round_trip_random():
    rng = random.Random(314)
    for _ in range(300):
        deg = rng.randrange(31)
        coeffs = [rng.randrange(4) for _ in range(deg)] + [rng.randrange(1, 4)]
        f = SkewPoly(F, coeffs)
        assert parse_coeff_string(F, poly_coeff_string(f)) == f


def test_parse_print_round_trip_random():
    rng = random.Random(159)
    tokens = ["0", "1", "a", "a^2"]
    for _ in range(300):
        n = rng.randrange(1, 32)
        toks = [rng.choice(tokens) for _ in range(n)]
        while toks[-1] == "0":  # canonical form trims trailing zeros
            toks[-1] = rng.choice(tokens)
        s = "".join(toks)
        assert poly_coeff_string(parse_coeff_string(F, s)) == s


@pytest.mark.parametrize(
    "key", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 4, 2)],
    ids=["gf2", "gf4", "gf8", "gf9", "gf16", "gf256"],
)
def test_print_parse_round_trip_every_spelling(key):
    """Seeded polynomials over every kind of field spelling, dense (q = 2, 4)
    or separated: printing then parsing gives the polynomial back, and
    parsing the printed string prints it again."""
    field = make_field(*key)
    rng = random.Random(2718 + field.q)
    for _ in range(100):
        coeffs = [rng.randrange(field.q) for _ in range(rng.randrange(12))]
        f = SkewPoly(field, coeffs + [rng.randrange(1, field.q)])
        text = poly_coeff_string(f)
        assert parse_coeff_string(field, text) == f
        assert poly_coeff_string(parse_coeff_string(field, text)) == text


@pytest.mark.parametrize(
    "key, text, message",
    [
        ((2, 1, 2), "zz", "invalid character 'z' at position 0"),
        ((2, 1, 2), "1a^3", "invalid character '^' at position 2"),
        ((2, 1, 2), "a^", "invalid character '^' at position 1"),
        ((2, 1, 1), "1, 0a", "invalid character 'a' at position 2"),
    ],
    ids=["not-a-spelling", "a-cubed", "bare-caret", "gf2-letter"],
)
def test_dense_reader_names_the_first_unread_character(key, text, message):
    with pytest.raises(ValueError) as exc:
        parse_coeff_string(make_field(*key), text)
    assert str(exc.value) == message


def test_zero_prints_as_zero():
    assert poly_coeff_string(SkewPoly.zero(F)) == "0"
    assert poly_to_terms(SkewPoly.zero(F)) == "0"


def test_gf2_strings():
    F2 = make_field(2, 1, 1)
    f = parse_coeff_string(F2, "1011")
    assert list(f.coeffs) == [1, 0, 1, 1]
    assert poly_coeff_string(f) == "1011"


def test_generic_field_space_separated_tokens():
    F9 = make_field(3, 1, 2)
    f = SkewPoly(F9, [1, 0, 5, 2])
    s = poly_coeff_string(f)
    assert parse_coeff_string(F9, s) == f


def test_terms_formatting():
    assert poly_to_terms(parse_coeff_string(F, "11")) == "x + 1"
    assert poly_to_terms(parse_coeff_string(F, "0a^2")) == "a^2*x"
    assert poly_to_terms(SkewPoly.one(F)) == "1"
