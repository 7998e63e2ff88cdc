import hashlib
import itertools
import random

import pytest
from oracles import codeword_set, linear_similar

from skewqc.codes import build_code
from skewqc.field import gf4, make_field
from skewqc.notation import parse_coeff_string
from skewqc.similarity import are_similar, norm_to_fixed
from skewqc.skewpoly import SkewPoly, gcld, gcrd, left_divmod

F = gf4()
A, A2 = 2, 3


def lin(field, c):
    return SkewPoly(field, [field.neg[c], 1])  # x - c


def right_similar_implies_left(a, b, u):
    """From a right witness u, recover c with u*a = b*c and validate the
    left-side data (gcrd(c, a) = 1); False on a corrupt witness."""
    if u.is_zero or gcld(u, b).gcd.degree != 0:
        return False
    c, r = left_divmod(u * a, b)
    if not r.is_zero:
        return False
    if c.is_zero:
        return a.degree == 0
    return gcrd(c, a).gcd.degree == 0


# ---------------------------------------------------------------------------
# linear polynomials: similarity is norm equality
# ---------------------------------------------------------------------------


def test_x_minus_one_a_a2_pairwise_similar():
    polys = [lin(F, 1), lin(F, A), lin(F, A2)]
    for p1, p2 in itertools.combinations(polys, 2):
        res = are_similar(p1, p2)
        assert res.status == "similar"
        assert res.witness is not None


@pytest.mark.parametrize("side", ["right", "left"])
def test_similarity_refuses_mixed_fields(side):
    """a and b over different fields are refused, whatever their degrees."""
    F9 = make_field(3, 1, 2)
    for b in (SkewPoly(F9, [1, 1]), SkewPoly(F9, [1, 0, 1])):
        with pytest.raises(ValueError, match="mixed-field"):
            are_similar(SkewPoly(F, [1, 1]), b, side=side)


def test_norm_map_on_gf4():
    # N(c) = c * theta(c) = c^3 for nonzero c, which is always 1 on GF(4)*
    assert norm_to_fixed(F, 0) == 0
    for c in (1, A, A2):
        assert norm_to_fixed(F, c) == 1


@pytest.mark.parametrize("field", [gf4(), make_field(3, 1, 2)], ids=["gf4", "gf9"])
def test_norm_rejects_elements_outside_the_field(field):
    """-1, q and q + 3 are no field elements; theta_pows would read -1 as
    the last element and fail on q with an IndexError."""
    for alpha in (-1, field.q, field.q + 3):
        with pytest.raises(ValueError, match=f"element {alpha} outside field of order {field.q}"):
            norm_to_fixed(field, alpha)


@pytest.mark.parametrize("field", [gf4(), make_field(3, 1, 2)])
def test_linear_fast_path_agrees_with_witness_search(field):
    """Exhaustive over all pairs (alpha, beta) with beta nonzero."""
    for alpha in range(field.q):
        for beta in range(1, field.q):
            fast = linear_similar(field, alpha, beta)
            slow = bool(are_similar(lin(field, alpha), lin(field, beta)))
            assert fast == slow, (alpha, beta)


def _similarity_digest(pairs):
    """sha256 over status, witness and candidates checked, both sides."""
    rows = []
    for a, b in pairs:
        for side in ("right", "left"):
            res = are_similar(a, b, side=side)
            witness = None if res.witness is None else res.witness.coeffs
            rows.append((side, a.coeffs, b.coeffs, res.status, witness, res.checked))
    return hashlib.sha256(repr(rows).encode()).hexdigest(), [row[3] for row in rows]


def test_linear_pairs_keep_their_witnesses():
    """Every x - alpha against every x - beta over GF(4) and GF(9), recorded
    from the witness search: same status, same witness, same count."""
    pairs = [(lin(field, alpha), lin(field, beta))
             for field in (gf4(), make_field(3, 1, 2))
             for alpha in field.elements() for beta in field.elements()]
    digest, statuses = _similarity_digest(pairs)
    # per side: GF(4)* is one norm class and GF(9)* two of four; x ~ x in each
    assert statuses.count("similar") == 2 * (3 * 3 + 1 + 4 * 4 + 4 * 4 + 1)
    assert digest == "cfddb228f23537f79861774ecce0cad5e51ff732ffad38fb4e63b5e1731be813"


HIGHER_PAIRS = [
    # (p, t, m), a, b: two similar pairs and one dissimilar pair per row
    ((2, 1, 2), ("a^2a^21", "a^2a1"), ("1a^21", "111"), ("001", "1a^21")),
    ((2, 1, 2), ("a^2011", "a^2a01"), ("0a^2a1", "0aa1"), ("1a^201", "a^20a^21")),
    ((3, 1, 2), ("g^2 0 1", "g^4 g^4 1"), ("g^5 0 1", "g g^6 1"), ("g^6 g 1", "g^5 g^7 1")),
    ((3, 1, 2), ("g^4 g^4 g^2 1", "g^4 g^5 1 1"), ("g g^3 g^4 1", "g^3 g^3 g^6 1"),
     ("g^4 g^6 g 1", "1 g^3 g^4 1")),
]


def test_degree_two_and_three_pairs_keep_their_witnesses():
    pairs = [(parse_coeff_string(make_field(*key), a), parse_coeff_string(make_field(*key), b))
             for key, *row in HIGHER_PAIRS for a, b in row]
    digest, statuses = _similarity_digest(pairs)
    assert statuses == (["similar"] * 4 + ["dissimilar"] * 2) * len(HIGHER_PAIRS)
    assert digest == "215cea103dcaab2c0fd473164016c09963c5adf7c5a90b8975cfc99af2eb2540"


def test_x_itself_only_similar_to_x():
    x = SkewPoly.x(F)
    assert are_similar(x, x).status == "similar"
    for c in (1, A, A2):
        assert are_similar(x, lin(F, c)).status == "dissimilar"


def test_gf9_norm_classes():
    F9 = make_field(3, 1, 2)
    # N(c) = c * c^3 = c^4; the norm map onto GF(3)* is 2-to-... : classes
    classes = {}
    for c in range(1, 9):
        classes.setdefault(norm_to_fixed(F9, c), []).append(c)
    assert len(classes) == 2  # GF(3)* has two elements
    for group in classes.values():
        for c1, c2 in itertools.combinations(group, 2):
            assert linear_similar(F9, c1, c2)


# ---------------------------------------------------------------------------
# general similarity
# ---------------------------------------------------------------------------


def test_every_monic_poly_similar_to_itself():
    rng = random.Random(9)
    for _ in range(20):
        coeffs = [rng.randrange(4) for _ in range(rng.randrange(1, 5))] + [1]
        f = SkewPoly(F, coeffs)
        assert are_similar(f, f).status == "similar"


def test_different_degrees_never_similar():
    f = parse_coeff_string(F, "11")
    g = parse_coeff_string(F, "101")
    assert are_similar(f, g).status == "dissimilar"


def test_witness_properties():
    res = are_similar(lin(F, 1), lin(F, A))
    assert gcld(res.witness, lin(F, A)).gcd.degree == 0  # u is coprime to b
    assert right_similar_implies_left(lin(F, 1), lin(F, A), res.witness)


def test_budget_exhaustion_reports_unknown():
    f = parse_coeff_string(F, "1a0a1")
    g = parse_coeff_string(F, "a^21011")
    res = are_similar(f, g, budget=3)
    assert res.status == "unknown"
    assert res.checked == 3


def test_similarity_requires_monic():
    with pytest.raises(ValueError):
        are_similar(SkewPoly(F, [1, A]), lin(F, 1))


def test_constants_trivially_similar():
    one = SkewPoly.one(F)
    assert are_similar(one, one).status == "similar"


# ---------------------------------------------------------------------------
# equal codes have similar parity-check polynomials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", [2, 4, 6, 8])
def test_equal_codes_have_similar_parity_checks(s):
    """Single-block codes from random generating polynomials, grouped by
    their literal codeword sets: equal sets force similar parity checks."""
    rng = random.Random(1000 + s)
    by_set = {}
    for _ in range(40):
        f = SkewPoly(F, [rng.randrange(4) for _ in range(s)])
        if f.is_zero:
            continue
        code = build_code(F, s, (f,))
        if code.k == 0 or code.k > 7:
            continue
        by_set.setdefault(codeword_set(code), []).append(code)
    groups = 0
    for codes in by_set.values():
        if len(codes) < 2:
            continue
        groups += 1
        for c1, c2 in itertools.combinations(codes, 2):
            assert are_similar(c1.h, c2.h, budget=1 << 16).status == "similar"
    assert groups >= 1  # distinct tuples do collide onto the same code


def test_distinct_codes_from_similar_parity_checks():
    """Similarity of parity checks is coarser than equality of generator
    polynomials: x - 1 and x - a are similar, yet the codes they check
    differ as sets."""
    g1 = lin(F, 1)  # generator with parity h1 = (x^2-1)/(x-1)
    code1 = build_code(F, 2, (g1,))
    code2 = build_code(F, 2, (lin(F, A2),))
    assert are_similar(code1.h, code2.h).status == "similar"
    assert codeword_set(code1) != codeword_set(code2)
