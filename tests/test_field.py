import pytest

from skewqc.field import FieldSpec, gf4, make_field
from skewqc.skewpoly import SkewPoly

# ---------------------------------------------------------------------------
# GF(4) basics: {0, 1, a, a^2} encoded as 0, 1, 2, 3
# ---------------------------------------------------------------------------


def test_gf4_table_facts():
    F = gf4()
    a, a2 = 2, 3
    assert F.q == 4 and F.p == 2 and F.m == 2
    assert F.add[a][a2] == 1  # a + a^2 = 1
    assert F.mul[a][a2] == 1  # a * a^2 = 1
    assert F.mul[a][a] == a2  # a^2
    for x in range(4):
        assert F.add[x][x] == 0  # characteristic 2


def test_gf4_frobenius():
    F = gf4()
    a, a2 = 2, 3
    assert F.theta(a) == a2
    assert F.theta(a2) == a
    assert F.theta(0) == 0 and F.theta(1) == 1
    for x in range(4):
        assert F.theta(F.theta(x)) == x  # order m = 2


def test_gf4_fixed_subfield_is_gf2():
    F = gf4()
    fixed = [x for x in range(F.q) if F.theta(x) == x]
    assert fixed == [0, 1]
    assert list(F.fixed_elements) == [0, 1]


def test_gf4_inverses():
    F = gf4()
    for x in range(1, 4):
        assert F.mul[x][F.inv[x]] == 1
        assert F.invert(x) == F.inv[x]
    with pytest.raises(ZeroDivisionError):
        F.invert(0)


@pytest.mark.parametrize("field", [gf4(), make_field(3, 1, 2)], ids=["gf4", "gf9"])
@pytest.mark.parametrize("e", [-1, "q", "q+3"])
@pytest.mark.parametrize("op", ["invert", "pow", "theta"])
def test_element_operations_reject_elements_outside_the_field(field, e, op):
    """-1 would read the tables' last element and q or more would fail
    with an IndexError; both are no field elements."""
    e = {"q": field.q, "q+3": field.q + 3}.get(e, e)
    call = {"invert": field.invert, "pow": lambda a: field.pow(a, 2), "theta": field.theta}[op]
    with pytest.raises(ValueError, match=f"element {e} outside field of order {field.q}"):
        call(e)


# ---------------------------------------------------------------------------
# constructor and other small fields
# ---------------------------------------------------------------------------


def test_gf2_identity_automorphism():
    F = make_field(2, 1, 1)
    assert F.q == 2 and F.m == 1
    for x in range(2):
        assert F.theta(x) == x


def test_gf9_frobenius_order_two():
    F = make_field(3, 1, 2)
    assert F.q == 9
    # theta(z) = z^3; verify the order by direct iteration over all elements
    nontrivial = [x for x in range(9) if F.theta(x) != x]
    assert nontrivial, "theta must not be the identity"
    for x in range(9):
        assert F.theta(F.theta(x)) == x
    assert len([x for x in range(9) if F.theta(x) == x]) == 3  # GF(3) fixed


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_field(4, 1, 2)  # p not prime
    with pytest.raises(ValueError):
        make_field(2, 3, 4)  # 2^12 > 256


def test_directly_built_field_equals_the_shared_one():
    direct, shared = FieldSpec(2, 1, 2), make_field(2, 1, 2)
    assert direct is not shared
    assert direct == shared and shared == direct
    assert hash(direct) == hash(shared)
    assert direct != make_field(2, 1, 4) and direct != (2, 1, 2)
    f, g = SkewPoly(direct, [1, 2, 3]), SkewPoly(shared, [1, 2, 3])
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1


def test_fixed_subfield_size_is_p_to_t():
    for p, t, m in [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 4), (5, 1, 2)]:
        F = make_field(p, t, m)
        assert len(F.fixed_elements) == p**t


# ---------------------------------------------------------------------------
# field axioms and automorphism laws, exhaustive for q <= 16
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,t,m", [(2, 1, 2), (3, 1, 2), (2, 1, 4)])
def test_field_axioms_exhaustive(p, t, m):
    F = make_field(p, t, m)
    q = F.q
    add, mul = F.add, F.mul
    for x in range(q):
        assert add[x][0] == x and mul[x][1] == x and mul[x][0] == 0
        for y in range(q):
            assert add[x][y] == add[y][x]
            assert mul[x][y] == mul[y][x]
            for z in range(q):
                assert add[add[x][y]][z] == add[x][add[y][z]]
                assert mul[mul[x][y]][z] == mul[x][mul[y][z]]
                assert mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]


@pytest.mark.parametrize("p,t,m", [(2, 1, 2), (3, 1, 2), (2, 1, 4)])
def test_theta_is_ring_automorphism(p, t, m):
    F = make_field(p, t, m)
    q = F.q
    for x in range(q):
        for y in range(q):
            assert F.theta(F.add[x][y]) == F.add[F.theta(x)][F.theta(y)]
            assert F.theta(F.mul[x][y]) == F.mul[F.theta(x)][F.theta(y)]


@pytest.mark.parametrize("p,t,m", [(2, 1, 2), (3, 1, 2), (2, 1, 4), (2, 2, 2)])
def test_theta_has_exact_order_m(p, t, m):
    F = make_field(p, t, m)
    for j in range(1, m):
        assert any(F.theta(x, j) != x for x in range(F.q)), f"theta^{j} = id"
    for x in range(F.q):
        assert F.theta(x, m) == x


def test_theta_power_indexing():
    F = gf4()
    for x in range(4):
        assert F.theta(x, 0) == x
        assert F.theta(x, 1) == F.theta(x)
        assert F.theta(x, 2) == x
        assert F.theta(x, -1) == F.theta(x)  # inverse of order-2 map is itself


def test_token_round_trip():
    F = gf4()
    assert F.tokens == ("0", "1", "a", "a^2")
    for x in range(4):
        assert F.parse_token(F.tokens[x]) == x
