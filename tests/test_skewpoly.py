import copy
import hashlib
import json
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from oracles import (
    lclm_linalg,
    left_divmod_linalg,
    left_euclid_reference,
    right_divmod_linalg,
    right_euclid_reference,
)
from skewqc.field import gf4, make_field
from skewqc.skewpoly import (
    SkewPoly,
    _euclid,
    _from_bytes,
    _mul_acc,
    _opposite_rows,
    _packed_steps,
    _product,
    _right_reduce,
    _twisted,
    gcld,
    gcld_many,
    gcrd,
    lclm,
    lcrm,
    left_divmod,
    right_divmod,
    x_pow_minus_one,
)

F = gf4()
A, A2 = 2, 3  # the encodings of a and a^2

# The ring oracles run over GF(4) and GF(9), where theta has order 2 and so
# theta^-1 = theta; over GF(8) and GF(27), where theta has order 3 and a
# wrong sign in a theta exponent shows; over GF(2), where theta is the
# identity (m = 1); over GF(16) with t = 2, where theta fixes GF(4); and over
# GF(256) with m = 8, more than most divisor degrees, so that the residue
# classes of the left reduction are short or empty.
TWISTED_FIELDS = {
    "gf4": gf4(), "gf9": make_field(3, 1, 2), "gf8": make_field(2, 1, 3),
    "gf2": make_field(2, 1, 1), "gf16": make_field(2, 2, 2),
    "gf27": make_field(3, 1, 3), "gf256": make_field(2, 1, 8),
}
ORACLE_FIELDS = pytest.mark.parametrize(
    "field", list(TWISTED_FIELDS.values()), ids=list(TWISTED_FIELDS)
)


def rand_poly(rng, field, max_deg, allow_zero=True):
    deg = rng.randrange(max_deg + 1)
    coeffs = [rng.randrange(field.q) for _ in range(deg + 1)]
    p = SkewPoly(field, coeffs)
    if not allow_zero and p.is_zero:
        return SkewPoly.one(field)
    return p


# ---------------------------------------------------------------------------
# twisted multiplication
# ---------------------------------------------------------------------------


def test_monomial_twist_on_gf4():
    """(ax)(a^2 x) = a^2 x^2 and (a^2 x)(ax) = a x^2: the coefficient passes
    through theta once per x it moves across."""
    ax = SkewPoly.monomial(F, A, 1)
    a2x = SkewPoly.monomial(F, A2, 1)
    assert ax * a2x == SkewPoly.monomial(F, A2, 2)
    assert a2x * ax == SkewPoly.monomial(F, A, 2)


def test_x_does_not_commute_with_constants():
    x = SkewPoly.x(F)
    ca = SkewPoly(F, [A])
    assert ca * x == SkewPoly.monomial(F, A, 1)
    assert x * ca == SkewPoly.monomial(F, A2, 1)
    assert ca * x != x * ca


def test_monomial_product_rule_exhaustive_small():
    for c1 in range(4):
        for c2 in range(4):
            for i in range(4):
                for j in range(4):
                    lhs = SkewPoly.monomial(F, c1, i) * SkewPoly.monomial(F, c2, j)
                    expected = SkewPoly.monomial(
                        F, F.mul[c1][F.theta(c2, i)], i + j
                    )
                    assert lhs == expected


def test_ring_laws_random():
    rng = random.Random(20240801)
    for _ in range(300):
        f = rand_poly(rng, F, 8)
        g = rand_poly(rng, F, 8)
        h = rand_poly(rng, F, 8)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


def test_degree_law_no_zero_divisors():
    rng = random.Random(7)
    for _ in range(200):
        f = rand_poly(rng, F, 6, allow_zero=False)
        g = rand_poly(rng, F, 6, allow_zero=False)
        assert (f * g).degree == f.degree + g.degree
        assert (f + g).degree <= max(f.degree, g.degree)


def test_canonical_trimmed_form():
    assert SkewPoly(F, [1, 0, 0]).degree == 0
    assert SkewPoly(F, [0, 0, 0]).is_zero
    assert SkewPoly(F, []).is_zero
    assert SkewPoly(F, [0, 1]).lead == 1


def test_constructor_stores_python_ints_from_numpy():
    p = SkewPoly(F, np.array([1, 2, 0], dtype=np.uint8))
    assert p.coeffs == (1, 2) and all(type(c) is int for c in p.coeffs)
    assert json.dumps(p.coeffs) == "[1, 2]"
    assert SkewPoly(F, [np.int64(3), True]).coeffs == (3, 1)


def test_constructor_rejects_non_integers():
    for coeffs in ([1.0, 2], [1, np.float64(2)], ["1"]):
        with pytest.raises(TypeError):
            SkewPoly(F, coeffs)


def test_constructor_rejects_out_of_range_coefficients():
    for coeffs in ([4], [1, -1], [0, np.uint8(200)]):
        with pytest.raises(ValueError, match="outside field of order 4"):
            SkewPoly(F, coeffs)


def test_coefficients_span_the_largest_field():
    """One byte holds every element of GF(256), the largest supported field;
    256 and -1 are still rejected by the constructor."""
    F256 = make_field(2, 4, 2)
    p = SkewPoly(F256, [255, 0, 255])
    assert p.coeffs == (255, 0, 255) and p.lead == 255 and p.coeff(0) == 255
    q, r = right_divmod(p * p, p)
    assert q == p and r.is_zero
    for coeffs in ([256], [1, -1]):
        with pytest.raises(ValueError, match="outside field of order 256"):
            SkewPoly(F256, coeffs)


@pytest.mark.parametrize("field", [gf4(), make_field(3, 1, 2)], ids=["gf4", "gf9"])
def test_kernel_results_keep_the_coeffs_contract(field):
    """Every result of the ring operations exposes coeffs as a tuple of Python
    ints, hashes like that tuple, and equals (and hashes like) the same
    polynomial made by the constructor."""
    rng = random.Random(field.q)
    for _ in range(100):
        f = rand_poly(rng, field, 8, allow_zero=False)
        g = rand_poly(rng, field, 8, allow_zero=False)
        results = [
            f * g, *right_divmod(f, g), *left_divmod(f, g),
            *gcrd(f, g), *gcld(f, g), lclm(f, g),
        ]
        for p in results:
            assert type(p.coeffs) is tuple and all(type(c) is int for c in p.coeffs)
            assert hash(p) == hash(p.coeffs)
            twin = SkewPoly(field, list(p.coeffs))
            assert twin == p and p == twin and hash(twin) == hash(p)
            assert len({p, twin}) == 1


def test_polynomials_store_one_byte_per_coefficient():
    """Traced memory per polynomial, list slot included: at most 120 B for a
    degree-12 GF(4) polynomial from the constructor and for a degree-24
    product (a tuple of 8-byte pointers takes 201 B and 296 B)."""
    rng = random.Random(12)
    coeffs = [[rng.randrange(4) for _ in range(12)] + [rng.randrange(1, 4)] for _ in range(10_000)]
    pairs = [(SkewPoly(F, coeffs[i]), SkewPoly(F, coeffs[i + 1])) for i in range(0, 4_000, 2)]
    for label, build, count in (
        ("constructor", lambda: [SkewPoly(F, c) for c in coeffs], len(coeffs)),
        ("product", lambda: [a * b for a, b in pairs], len(pairs)),
    ):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            polys = build()
            per_poly = (tracemalloc.get_traced_memory()[0] - before) / count
        finally:
            tracemalloc.stop()
        assert len(polys) == count
        assert per_poly <= 120, f"{label}: {per_poly:.1f} B per polynomial"


@pytest.mark.parametrize("field", [gf4(), make_field(3, 1, 2)], ids=["gf4", "gf9"])
def test_constant_results_share_the_one_byte_string(field):
    """A constant result, such as the gcd of a coprime pair, holds the same
    1-byte string as a constant from the constructor, not a new one per
    result."""
    one = SkewPoly.one(field)
    x = SkewPoly.x(field)
    for c in range(1, field.q):
        f, g = x + SkewPoly(field, [c]), x  # coprime on both sides
        results = [gcrd(f, g).gcd, gcld(f, g).gcd, gcld_many([f, g]),
                   right_divmod(f, x)[1], left_divmod(f, x)[1], one.scale_left(c),
                   one.scale_right(c), SkewPoly(field, [c]) * one]
        for p in results:
            assert p.degree == 0 and p._c is SkewPoly(field, [p.lead])._c


def test_polynomials_pickle_and_copy_over_the_shared_field():
    F9 = make_field(3, 1, 2)
    for field in (F, F9):
        assert pickle.loads(pickle.dumps(field)) is field
        assert copy.deepcopy(field) is field
    for p in (SkewPoly(F, [1, A, 0, A2]), SkewPoly(F9, [0, 8, 1]), SkewPoly.zero(F)):
        for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert twin == p and twin.field is p.field


@ORACLE_FIELDS
def test_twisted_rows_are_scaled_automorphism_rows(field):
    """twisted_rows[r][c] maps b to c * theta^r(b) for every r < m and b < q."""
    rows = field.twisted_rows
    assert len(rows) == field.m and all(len(by_c) == field.q for by_c in rows)
    for r in range(field.m):
        for c in range(field.q):
            row = rows[r][c]
            assert type(row) is bytes and len(row) == 256
            assert list(row[:field.q]) == [field.mul[c][field.theta_pows[r][b]]
                                           for b in range(field.q)]


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------


def test_division_round_trip_random():
    rng = random.Random(99)
    for _ in range(500):
        g = rand_poly(rng, F, 12)
        f = rand_poly(rng, F, 8, allow_zero=False)
        q, r = right_divmod(g, f)
        assert q * f + r == g
        assert r.is_zero or r.degree < f.degree
        ql, rl = left_divmod(g, f)
        assert f * ql + rl == g
        assert rl.is_zero or rl.degree < f.degree


@ORACLE_FIELDS
def test_division_two_implementations_agree(field):
    rng = random.Random(41)
    for _ in range(300):
        g = rand_poly(rng, field, 12)
        f = rand_poly(rng, field, 7, allow_zero=False)
        assert right_divmod(g, f) == right_divmod_linalg(g, f)
        assert left_divmod(g, f) == left_divmod_linalg(g, f)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        right_divmod(SkewPoly.one(F), SkewPoly.zero(F))
    with pytest.raises(ZeroDivisionError):
        left_divmod(SkewPoly.one(F), SkewPoly.zero(F))


def test_division_works_over_gf9():
    F9 = make_field(3, 1, 2)
    rng = random.Random(5)
    for _ in range(100):
        g = rand_poly(rng, F9, 9)
        f = rand_poly(rng, F9, 5, allow_zero=False)
        q, r = right_divmod(g, f)
        assert q * f + r == g and (r.is_zero or r.degree < f.degree)


# ---------------------------------------------------------------------------
# gcrd / gcld / lclm / lcrm
# ---------------------------------------------------------------------------


@ORACLE_FIELDS
def test_bezout_identities_random(field):
    rng = random.Random(4242)
    for _ in range(400):
        f = rand_poly(rng, field, 9, allow_zero=False)
        g = rand_poly(rng, field, 9, allow_zero=False)
        right = gcrd(f, g)
        assert right.cofactor_f * f + right.cofactor_g * g == right.gcd
        assert right.gcd.is_monic
        assert right_divmod(f, right.gcd)[1].is_zero
        assert right_divmod(g, right.gcd)[1].is_zero
        left = gcld(f, g)
        assert f * left.cofactor_f + g * left.cofactor_g == left.gcd
        assert left.gcd.is_monic
        assert left_divmod(f, left.gcd)[1].is_zero
        assert left_divmod(g, left.gcd)[1].is_zero


def _euclid_cases(field, rng):
    """Seeded pairs plus the edge cases: deg g > deg f, g dividing f on
    either side, a constant argument, f == g and one zero argument."""
    for _ in range(2000):
        yield rand_poly(rng, field, 9), rand_poly(rng, field, 9)
    for _ in range(40):
        f = rand_poly(rng, field, 4, allow_zero=False)
        g = rand_poly(rng, field, 4, allow_zero=False)
        h = f * g + SkewPoly.one(field)
        c = SkewPoly(field, [rng.randrange(1, field.q)])
        yield from [(f, h), (h, f), (f * g, g), (g * f, g), (f, c), (c, f), (f, f),
                    (f, SkewPoly.zero(field)), (SkewPoly.zero(field), f)]


def _is_canonical(row, field):
    """A coefficient list (bytes from the packed characteristic-2 kernel) as
    a SkewPoly keeps it: trimmed Python ints in range."""
    return (
        type(row) is (bytes if field.p == 2 else list)
        and (not row or row[-1] != 0)
        and all(type(c) is int and 0 <= c < field.q for c in row)
        and list(SkewPoly(field, row).coeffs) == list(row)
    )


# The rows a Euclid run with this many cofactors updates: r0 alone without
# cofactors, r0, a0 and a1 with one, all five with two (the default, which
# keeps the bare field name as its test id).
KEPT_ROWS = {0: (0,), 1: (0, 1, 3), 2: (0, 1, 2, 3, 4)}


@pytest.mark.parametrize(
    "field, cofactors",
    [(field, n) for field in TWISTED_FIELDS.values() for n in sorted(KEPT_ROWS)],
    ids=[name if n == 2 else f"{name}-cofactors{n}"
         for name in TWISTED_FIELDS for n in sorted(KEPT_ROWS)],
)
def test_euclid_rows_match_the_object_reference(field, cofactors):
    """The rows that a Euclid run with ``cofactors`` keeps, on both sides
    (packed in characteristic 2, on lists otherwise), equal those of the
    object-level runs in oracles.py, and each is canonical; a run that
    skips the zero row's cofactors (as gcrd and gcld do) keeps the same
    r0, a0 and b0."""
    kept = KEPT_ROWS[cofactors]
    rng = random.Random(808)
    for f, g in _euclid_cases(field, rng):
        for right, ref in ((True, right_euclid_reference),
                           (False, left_euclid_reference)):
            rows = _euclid(field, f._c, g._c, right, cofactors)
            assert len(rows) == 5
            assert all(_is_canonical(rows[i], field) for i in kept)
            skipped = _euclid(field, f._c, g._c, right, cofactors, zero_row=False)
            assert [skipped[i] for i in kept if i < 3] == [rows[i] for i in kept if i < 3]
            rows = [rows[i] for i in kept]
            if not right:  # images in the opposite ring, mapped back
                rows = [list(_twisted(field, row, 1, 1)) for row in rows]
            expected = ref(f, g)
            assert [tuple(row) for row in rows] == [expected[i].coeffs for i in kept]


@ORACLE_FIELDS
def test_lclm_degree_identity_and_divisibility(field):
    rng = random.Random(1717)
    for _ in range(200):
        f = rand_poly(rng, field, 8, allow_zero=False)
        g = rand_poly(rng, field, 8, allow_zero=False)
        m = lclm(f, g)
        assert m.degree == f.degree + g.degree - gcrd(f, g).gcd.degree
        assert right_divmod(m, f)[1].is_zero  # m is a left multiple of f
        assert right_divmod(m, g)[1].is_zero
        assert m == lclm_linalg(f, g)  # two constructions agree


@ORACLE_FIELDS
def test_lclm_cofactors(field):
    """The cofactors u, v of m = u*f = v*g are the right-division quotients."""
    rng = random.Random(33)
    for _ in range(100):
        f = rand_poly(rng, field, 6, allow_zero=False)
        g = rand_poly(rng, field, 6, allow_zero=False)
        m = lclm(f, g)
        (u, r), (v, t) = right_divmod(m, f), right_divmod(m, g)
        assert r.is_zero and t.is_zero and u * f == m and v * g == m and m.is_monic


@ORACLE_FIELDS
def test_lcrm_is_right_multiple_of_both(field):
    rng = random.Random(34)
    for _ in range(100):
        f = rand_poly(rng, field, 6, allow_zero=False)
        g = rand_poly(rng, field, 6, allow_zero=False)
        m = lcrm(f, g)
        (u, r), (v, t) = left_divmod(m, f), left_divmod(m, g)
        assert r.is_zero and t.is_zero and f * u == m and g * v == m and m.is_monic
        assert m.degree == f.degree + g.degree - gcld(f, g).gcd.degree


def test_gcd_many_divides_all():
    rng = random.Random(77)
    for _ in range(50):
        polys = [rand_poly(rng, F, 7, allow_zero=False) for _ in range(4)]
        dl = gcld_many(polys)
        for p in polys:
            assert left_divmod(p, dl)[1].is_zero


@ORACLE_FIELDS
def test_gcd_many_matches_the_extended_gcd_chain(field):
    """gcld_many runs Euclid without the Bezout cofactors; the gcd is still
    the one a chain of gcld calls gives."""
    rng = random.Random(78)
    for _ in range(30):
        c = rand_poly(rng, field, 3, allow_zero=False)
        left = [c * rand_poly(rng, field, 5, allow_zero=False) for _ in range(3)]
        dl = left[0]
        for q in left[1:]:
            dl = gcld(dl, q).gcd
        assert gcld_many(left) == dl.monic_right()
        assert gcld_many(left).degree >= c.degree


def _ring_triples(field, rng, count):
    """``count`` seeded nonzero pairs (a, b) and a third factor c."""
    for _ in range(count):
        a = rand_poly(rng, field, 9, allow_zero=False)
        b = rand_poly(rng, field, 7, allow_zero=False)
        c = rand_poly(rng, field, 3, allow_zero=False)
        yield a, b, c


def _ring_outputs(field, rng, count):
    """Every ring output on the triples (a, b, c) of _ring_triples: both
    products, both divisions, gcrd and gcld with their cofactors, lclm, lcrm
    and gcld_many."""
    for a, b, c in _ring_triples(field, rng, count):
        yield from (a * b, b * a, *right_divmod(a, b), *left_divmod(a, b),
                    *gcrd(a, b), *gcld(a, b), lclm(a, b), lcrm(a, b),
                    gcld_many([c * a, c * b]), gcld_many([a, b, c]))


# sha256 of the coefficient tuples of _ring_outputs(field, Random(2209), 300),
# recorded before the kernels moved to twisted scalar rows
RING_PINS = {
    (2, 1, 2): "1bebd2026ba26ef7fcc00294afc1f3dbe619e802c645ab16329e24c29778c172",
    (2, 1, 3): "17d77155df10fc09162f6b8d6a760e0806475636dddd4eb157022594fab6f312",
    (3, 1, 2): "d4710318adb28a55987d5e85f863660487877a075ef6f302c22c16f59aeb70f6",
    (2, 2, 2): "df4fbba37f955007dc39027896bc2dcc6044ee11c0ffb6f006e57c092ea113b7",
}


@pytest.mark.parametrize("key", sorted(RING_PINS), ids=lambda k: "GF(%d)" % k[0] ** (k[1] * k[2]))
def test_ring_outputs_match_the_pinned_digest(key):
    field = make_field(*key)
    digest = hashlib.sha256()
    for p in _ring_outputs(field, random.Random(2209), 300):
        digest.update(repr(p.coeffs).encode())
    assert digest.hexdigest() == RING_PINS[key]


CHAR2_FIELDS = {name: field for name, field in TWISTED_FIELDS.items() if field.p == 2}


def _packed_right_divmod(field, rows, g, f):
    """Right division of g by f in the ring of ``rows`` as one packed Euclid
    step, the way right_divmod runs it: (q, r) as trimmed lists."""
    W = len(g) - len(f) + 1
    out = _packed_steps(field, rows, _from_bytes(g, "little") << 8 * W,
                        _from_bytes(f, "little") << 8 * W | 1, W, 1)[1]
    out = out.to_bytes(len(g), "little")
    return list(out[:W].rstrip(b"\0")), list(out[W:].rstrip(b"\0"))


@pytest.mark.parametrize("field", list(CHAR2_FIELDS.values()), ids=list(CHAR2_FIELDS))
def test_packed_kernels_match_the_list_kernels(field):
    """In characteristic 2 the ring runs on packed ints; the list kernels,
    which odd p runs, give the same right divisions (quotient read off the
    terms, c = row[1]) in F[x; theta] and in the opposite ring, with
    right_divmod taking the packed step, and the same products, on
    _euclid_cases and on the _ring_triples pairs."""
    rng = random.Random(909)
    pairs = list(_euclid_cases(field, rng))
    pairs += [(a, b) for a, b, _ in _ring_triples(field, random.Random(2209), 300)]
    for f, g in pairs:
        for a, b in ((f, g), (g, f)):
            out = [0] * (len(a._c) + len(b._c) - 1) if a._c and b._c else []
            _mul_acc(field, out, a._c, b._c)
            assert list(_product(field, a._c, b._c)) == out
            if not b._c or len(a._c) < len(b._c):
                continue
            for rows in (field.twisted_rows, _opposite_rows(field)):
                r, q = list(a._c), [0] * (len(a._c) - len(b._c) + 1)
                for k, row in _right_reduce(field, rows, r, b._c):
                    q[k] = row[1]
                assert _packed_right_divmod(field, rows, a._c, b._c) == (q, r)
                if rows is field.twisted_rows:
                    assert [list(p.coeffs) for p in right_divmod(a, b)] == [q, r]


def test_gcrd_of_zero_pair_raises():
    with pytest.raises(ValueError):
        gcrd(SkewPoly.zero(F), SkewPoly.zero(F))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_x_pow_minus_one():
    f = x_pow_minus_one(F, 4)
    assert f.degree == 4 and f.coeff(0) == 1 and f.coeff(4) == 1  # char 2: -1 = 1
    assert all(f.coeff(i) == 0 for i in (1, 2, 3))


def test_monic_normalizations():
    f = SkewPoly(F, [1, A, A2])
    ml = f.monic_left()
    assert ml.is_monic and ml == f.scale_left(F.inv[f.lead])
    mr = f.monic_right()
    assert mr.is_monic


@pytest.mark.parametrize("field", [gf4(), make_field(3, 1, 2)], ids=["gf4", "gf9"])
def test_scalar_multiples_reject_scalars_outside_the_field(field):
    """-1 and q are no field elements; the byte tables would read -1 as the
    last element and fail on q with an IndexError."""
    f = SkewPoly(field, [1, 2])
    for c in (-1, field.q):
        for scale in (f.scale_left, f.scale_right):
            with pytest.raises(ValueError, match=f"scalar {c} outside field of order {field.q}"):
                scale(c)


def test_right_divides_predicate():
    """f right-divides g exactly when right_divmod(g, f) leaves no remainder."""
    g = SkewPoly(F, [1, 1])  # x + 1
    assert right_divmod(x_pow_minus_one(F, 2), g)[1].is_zero
    assert not right_divmod(SkewPoly(F, [1, 1]), SkewPoly(F, [A, 0, 1]))[1].is_zero


def test_times_x_pow_matches_monomial_product():
    """f * x^k shifts the coefficients of f up by k with no twist."""
    rng = random.Random(8)
    for _ in range(50):
        f = rand_poly(rng, F, 6)
        k = rng.randrange(4)
        assert f * SkewPoly.monomial(F, 1, k) == SkewPoly(F, [0] * k + list(f.coeffs))
