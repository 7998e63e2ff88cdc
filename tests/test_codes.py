import copy
import dataclasses
import itertools
import random

import numpy as np
import pytest

from oracles import blocks_to_polys, codeword_set, polys_to_blocks, rank, reference_build
from skewqc import codes, linalg, search
from skewqc.codes import (
    CodeSpec,
    CodeStructure,
    build_code,
    build_degenerate_code,
    degenerate_tuple,
    skew_shift,
)
from skewqc.errors import ConsistencyError
from skewqc.factorization import modulus_right_divisors
from skewqc.field import gf4, make_field
from skewqc.notation import parse_coeff_string
from skewqc.search import SearchConfig
from skewqc.skewpoly import SkewPoly, gcld_many, x_pow_minus_one
from skewqc.tables import catalog, get

F = gf4()
A, A2 = 2, 3


def rand_poly(rng, field, max_deg):
    return SkewPoly(field, [rng.randrange(field.q) for _ in range(max_deg + 1)])


# ---------------------------------------------------------------------------
# the twisted shift operator
# ---------------------------------------------------------------------------


def test_skew_shift_single_block():
    """One block of length s: rotate right by one, then apply theta."""
    vec = [1, A, 0, A2]
    assert skew_shift(F, 4, vec) == [F.theta(A2), F.theta(1), F.theta(A), 0]


def test_skew_shift_acts_blockwise():
    vec = [1, 0, A, A2, 1, 0]  # two blocks of length 3... s=3 is odd, use s=2
    vec = [1, A, 0, A2, A, 1]  # three blocks of length 2
    out = skew_shift(F, 2, vec)
    assert out == [
        F.theta(A), F.theta(1),
        F.theta(A2), F.theta(0),
        F.theta(1), F.theta(A),
    ]


def test_skew_shift_order_is_s_times_m_over_gcd():
    """Applying the shift s times multiplies by x^s = 1, but each pass adds
    theta^s; for even s the code-level operator has order exactly s."""
    rng = random.Random(12)
    for s in (2, 4, 6):
        vec = [rng.randrange(4) for _ in range(s)]
        out = vec
        for _ in range(s):
            out = skew_shift(F, s, out)
        assert out == vec  # theta^s = id for even s


def test_skew_shift_matches_multiplication_by_x():
    """The vector of u*g blocks shifted once equals the blocks of x*u*g."""
    rng = random.Random(3)
    s, l = 4, 2
    x = SkewPoly.x(F)
    modulus = x_pow_minus_one(F, s)

    def reduce(p):
        from skewqc.skewpoly import right_divmod

        return right_divmod(p, modulus)[1]

    for _ in range(50):
        tup = tuple(rand_poly(rng, F, s - 1) for _ in range(l))
        spec = CodeSpec(F, s, tup)
        u = rand_poly(rng, F, s - 1)
        vec = polys_to_blocks(spec, [reduce(u * f) for f in tup])
        shifted = skew_shift(F, s, vec)
        direct = polys_to_blocks(spec, [reduce(x * u * f) for f in tup])
        assert shifted == direct


# ---------------------------------------------------------------------------
# block/polynomial conversions
# ---------------------------------------------------------------------------


def test_block_poly_round_trip():
    rng = random.Random(21)
    spec = CodeSpec(F, 4, (SkewPoly.one(F), SkewPoly.one(F), SkewPoly.one(F)))
    for _ in range(50):
        vec = [rng.randrange(4) for _ in range(12)]
        polys = blocks_to_polys(spec, vec)
        assert polys_to_blocks(spec, polys) == vec
        assert all(p.is_zero or p.degree < 4 for p in polys)


def test_blocks_to_polys_stores_python_ints():
    spec = CodeSpec(F, 4, (SkewPoly.one(F), SkewPoly.one(F)))
    vec = np.array([1, 0, 2, 3, 0, 3, 0, 0], dtype=np.uint8)
    polys = blocks_to_polys(spec, vec)
    assert [p.coeffs for p in polys] == [(1, 0, 2, 3), (0, 3)]
    assert all(type(c) is int for p in polys for c in p.coeffs)


def test_built_code_deepcopies_and_its_spec_converts_to_a_dict():
    code = get("index2-l2-48-15-20").build()
    twin = copy.deepcopy(code)
    assert twin.k == code.k and twin.spec.field is code.spec.field
    assert twin.spec.generators == code.spec.generators
    spec = dataclasses.asdict(code.spec)
    assert spec["field"] is code.spec.field and spec["generators"] == code.spec.generators


# ---------------------------------------------------------------------------
# code construction: dimension, invariance, membership
# ---------------------------------------------------------------------------


def test_code_dimension_equals_s_minus_deg_gcld():
    rng = random.Random(5050)
    for _ in range(60):
        s = rng.choice((4, 6, 8))
        l = rng.choice((1, 2, 3))
        tup = tuple(rand_poly(rng, F, s - 1) for _ in range(l))
        if all(f.is_zero for f in tup):
            continue
        code = build_code(F, s, tup)
        g = gcld_many(list(tup) + [x_pow_minus_one(F, s)])
        assert code.k == s - g.degree
        assert code.g == g
        assert code.genmatrix.shape == (code.k, s * l)


def test_parity_polynomial_relation():
    rng = random.Random(606)
    for _ in range(40):
        s = rng.choice((4, 6))
        tup = (rand_poly(rng, F, s - 1), rand_poly(rng, F, s - 1))
        if all(f.is_zero for f in tup):
            continue
        code = build_code(F, s, tup)
        modulus = x_pow_minus_one(F, s)
        assert code.h * code.g == modulus
        assert code.g * code.h == modulus  # cofactors of a central product commute
        assert code.h.degree == code.k


def test_codewords_closed_under_shift_and_scalars():
    rng = random.Random(77)
    code = build_code(F, 6, (parse_coeff_string(F, "11"), parse_coeff_string(F, "0a1")))
    for _ in range(100):
        msg = [rng.randrange(4) for _ in range(code.k)]
        word = list(code.encode(msg))
        assert code.is_codeword(word)
        assert code.is_codeword(skew_shift(F, 6, word))
        lam = rng.randrange(1, 4)
        assert code.is_codeword([F.mul[lam][c] for c in word])


def test_left_multiples_are_codewords():
    """Membership test for the defining property: u*(f_1,...,f_l) lies in
    the code for every u."""
    rng = random.Random(88)
    from skewqc.skewpoly import right_divmod

    s = 6
    modulus = x_pow_minus_one(F, s)
    tup = (parse_coeff_string(F, "1a1"), parse_coeff_string(F, "a^201"))
    code = build_code(F, s, tup)
    spec = code.spec
    for _ in range(100):
        u = rand_poly(rng, F, s - 1)
        vec = polys_to_blocks(
            spec, [right_divmod(u * f, modulus)[1] for f in spec.generators]
        )
        assert code.is_codeword(vec)


def test_every_generator_matrix_row_is_a_codeword():
    rng = random.Random(99)
    for _ in range(20):
        s = rng.choice((4, 8))
        tup = (rand_poly(rng, F, s - 1), rand_poly(rng, F, s - 1))
        if all(f.is_zero for f in tup):
            continue
        code = build_code(F, s, tup)
        for row in code.genmatrix:
            assert code.is_codeword(row)


@pytest.mark.parametrize("field, s", [(F, 4), (make_field(3, 1, 2), 2)], ids=["gf4", "gf9"])
def test_codeword_set_matches_encode(field, s):
    """The vectorized codeword_set oracle lists exactly the encodings of all
    q^k messages, message by message."""
    rng = random.Random(31)
    for _ in range(10):
        code = build_code(field, s, (rand_poly(rng, field, s - 1), rand_poly(rng, field, s - 1)))
        messages = itertools.product(range(field.q), repeat=code.k)
        assert codeword_set(code) == {tuple(code.encode(m).tolist()) for m in messages}


def test_encode_rejects_bad_message_length():
    code = build_code(F, 4, (SkewPoly.one(F),))
    with pytest.raises(ValueError):
        code.encode([0] * (code.k + 1))


@pytest.mark.parametrize("field, s", [(F, 4), (make_field(3, 1, 2), 2)], ids=["gf4", "gf9"])
def test_vector_entry_points_reject_symbols_outside_the_field(field, s):
    """-1 and q are no symbols; the byte tables would read -1 as q - 1 and q
    as 0 (theta's padded table) or fail with IndexError or OverflowError."""
    code = build_code(field, s, (SkewPoly.one(field), SkewPoly.one(field)))
    for bad in (-1, field.q):
        vec = [0] * (code.n - 1) + [bad]
        calls = (lambda: skew_shift(field, s, vec),
                 lambda: code.encode([0] * (code.k - 1) + [bad]),
                 lambda: code.is_codeword(vec))
        for call in calls:
            with pytest.raises(ValueError, match=f"symbol {bad} outside field of order {field.q}"):
                call()


# ---------------------------------------------------------------------------
# the (g, f*g, ...) construction with an explicit generator polynomial
# ---------------------------------------------------------------------------


def test_degenerate_tuple_shape():
    g = parse_coeff_string(F, "11")
    f = parse_coeff_string(F, "a1")
    tup = degenerate_tuple(g, [f], 4)
    assert tup[0] == g and tup[1] == f * g


def test_degenerate_build_dimension_always_s_minus_deg_g():
    """The first s - deg g shift images are always independent when g
    right-divides x^s - 1, whether or not their span is shift-closed."""
    rng = random.Random(1234)
    for s in (4, 6):
        divisors = [g for g in modulus_right_divisors(F, s) if 0 < g.degree < s]
        for _ in range(30):
            g = divisors[rng.randrange(len(divisors))]
            f = rand_poly(rng, F, s - 1)
            code = build_degenerate_code(F, s, g, [f])
            assert code.k == s - g.degree
            assert code.h.degree == code.k
            assert rank(F, [list(r) for r in code.genmatrix]) == code.k


def test_module_closed_flag_detects_closure():
    rng = random.Random(4321)
    s = 4
    divisors = [g for g in modulus_right_divisors(F, s) if 0 < g.degree < s]
    seen_closed = seen_open = False
    for g in divisors:
        for _ in range(20):
            f = rand_poly(rng, F, s - 1)
            code = build_degenerate_code(F, s, g, [f])
            rows = [list(code.genmatrix[i]) for i in range(code.k)]
            extra = rows[:]
            vec = rows[-1]
            for _ in range(s):
                vec = skew_shift(F, s, vec)
                extra.append(vec)
            closed = rank(F, extra) == code.k
            assert code.module_closed == closed
            seen_closed = seen_closed or closed
            seen_open = seen_open or not closed
    assert seen_closed and seen_open  # both behaviors occur at s = 4


def test_module_closed_iff_module_dimension_matches():
    """When the flag is set, the explicit-generator build agrees with the
    plain module build row space."""
    rng = random.Random(5678)
    s = 6
    divisors = [g for g in modulus_right_divisors(F, s) if 0 < g.degree < s]
    for _ in range(40):
        g = divisors[rng.randrange(len(divisors))]
        f = rand_poly(rng, F, s - 1)
        pinned = build_degenerate_code(F, s, g, [f])
        module = build_code(F, s, (g, (f * g)))
        if pinned.module_closed:
            assert module.k == pinned.k
            assert np.array_equal(module.genmatrix, pinned.genmatrix)
        else:
            assert module.k > pinned.k


def test_explicit_generator_must_divide_modulus():
    g = parse_coeff_string(F, "a01")  # x^2 + a does not divide x^4 - 1
    f = parse_coeff_string(F, "1")
    with pytest.raises(ConsistencyError):
        build_degenerate_code(F, 4, g, [f])


def test_pinned_build_refuses_dependent_first_images():
    x_plus_1 = parse_coeff_string(F, "11")  # right-divides x^4 - 1
    spec = CodeSpec(F, 4, (SkewPoly.zero(F),))
    with pytest.raises(ConsistencyError, match="first 3 shift images have rank 0"):
        CodeStructure(spec, generator=x_plus_1)


@pytest.mark.parametrize("build", [
    lambda: build_code(F, 10, [parse_coeff_string(F, t) for t in ("a1a^2011", "10aa1")]),
    lambda: get("index2-l2-40-9-21").build(),
], ids=["module", "pinned"])
def test_build_shifts_k_times_and_tests_closure_once(build, monkeypatch):
    """A build with k < s makes the images T^0 .. T^k: k shifts of the byte
    row, then one membership test of T^k against the basis decides
    module_closed."""
    shifts, tests = [], []

    def counted_shift(*args):
        shifts.append(1)
        return shift_bytes(*args)

    def counted_test(self, vec):
        tests.append(1)
        return contains(self, vec)

    shift_bytes, contains = codes._shift_bytes, linalg.RowSpace.contains
    monkeypatch.setattr(codes, "_shift_bytes", counted_shift)
    monkeypatch.setattr(linalg.RowSpace, "contains", counted_test)
    code = build()
    assert code.k < code.spec.s and code.module_closed
    assert (len(shifts), len(tests)) == (code.k, 1)


# ---------------------------------------------------------------------------
# the first-k-images build against the whole-span reference build
# ---------------------------------------------------------------------------


def _outcome(build, spec, generator=None):
    """(g, h, k, pivots, genmatrix, module_closed), or the refusal's
    exception type."""
    try:
        code = build(spec, generator)
    except (ConsistencyError, ValueError) as exc:
        return type(exc)
    return (code.g, code.h, code.k, list(code.pivots), code.genmatrix.tolist(),
            code.module_closed)


def _assert_same_build(spec, generator=None):
    got = _outcome(CodeStructure, spec, generator)
    assert got == _outcome(reference_build, spec, generator)
    return got


def test_catalog_builds_match_the_reference_build():
    """All 72 rows, the 5 degenerate rows whose generator= build is not
    closed among them."""
    open_pinned = 0
    for entry in catalog():
        generator = parse_coeff_string(F, entry.g) if entry.degenerate else None
        built = _assert_same_build(entry.build().spec, generator)
        open_pinned += generator is not None and not built[-1]
    assert open_pinned == 5


def test_campaign_candidates_match_the_reference_build():
    """The 60 module builds of the seed-3 campaign s=12 l=2 trials=60."""
    config = SearchConfig(s=12, l=2, trials=60, seed=3)
    divisors = search._window_divisors(F, 12, range(1, 12), config.budget)
    stream = search._candidate_stream(config, F, divisors)
    outcomes = [_assert_same_build(CodeSpec(F, 12, degenerate_tuple(g, fs, 12)))
                for g, fs in itertools.islice(stream, 60)]
    assert len(outcomes) == 60 and all(isinstance(o, tuple) for o in outcomes)


def test_seeded_builds_match_the_reference_build():
    """Module builds of random and (g, f*g, ...) tuples, degenerate builds,
    and explicit generators (divisors or not) on arbitrary tuples, over
    GF(4), GF(9) and GF(8)."""
    rng = random.Random(2468)
    outcomes = []
    for field, sizes in (
        (gf4(), (2, 4, 6, 8)),
        (make_field(3, 1, 2), (2, 4, 6)),
        (make_field(2, 1, 3), (3, 6)),
    ):
        for s in sizes:
            divisors = [g for g in modulus_right_divisors(field, s) if 0 < g.degree < s]
            for _ in range(40):
                l = rng.choice((1, 2, 3))
                g = rng.choice(divisors)
                fs = [rand_poly(rng, field, s - 1) for _ in range(l - 1)]
                tup = tuple(rand_poly(rng, field, rng.randrange(s)) for _ in range(l))
                degenerate = degenerate_tuple(g, fs, s)
                # pinning a lower-degree divisor on a (g, f*g, ...) tuple makes
                # the first s - deg(pinned) images dependent
                arbitrary = rng.choice((tup, degenerate))
                pinned = rng.choice(divisors + [rand_poly(rng, field, s - 1)])
                outcomes += [
                    _assert_same_build(CodeSpec(field, s, tup)),
                    _assert_same_build(CodeSpec(field, s, degenerate)),
                    _assert_same_build(CodeSpec(field, s, degenerate), g),
                    _assert_same_build(CodeSpec(field, s, arbitrary), pinned),
                ]
    assert len(outcomes) >= 1000
    built = [o for o in outcomes if isinstance(o, tuple)]
    assert ConsistencyError in outcomes
    assert any(o[-1] for o in built) and not all(o[-1] for o in built)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        CodeSpec(F, 3, (SkewPoly.one(F),))  # m = 2 does not divide 3
    with pytest.raises(ValueError):
        CodeSpec(F, 4, ())
    F9 = make_field(3, 1, 2)
    with pytest.raises(ValueError):
        CodeSpec(F, 4, (SkewPoly.one(F9),))


def test_spec_takes_s_as_a_python_int():
    """A numpy s becomes a Python int, so k and the q^k price of a scan are
    Python ints too: np.int64 would wrap 4^40 to 0.  A float s is refused
    with a ValueError naming s."""
    code = build_code(F, np.int64(40), (parse_coeff_string(F, "1a1"),))
    assert type(code.spec.s) is int and type(code.k) is int and code.k == 40
    for s in (4.0, "4"):
        with pytest.raises(ValueError, match="s must be an integer"):
            CodeSpec(F, s, (SkewPoly.one(F),))


def test_spec_reduces_generators_mod_modulus():
    f = parse_coeff_string(F, "1" + "0" * 5 + "1")  # x^6 + 1, degree 6 >= s
    spec = CodeSpec(F, 4, (f,))
    assert all(p.is_zero or p.degree < 4 for p in spec.generators)


def test_params_string():
    code = build_code(F, 4, (parse_coeff_string(F, "11"), parse_coeff_string(F, "a1")))
    assert code.params() == f"[{code.n},{code.k}]"
    assert code.params(5) == f"[{code.n},{code.k},5]"
