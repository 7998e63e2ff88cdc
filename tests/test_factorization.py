import hashlib

import numpy as np
import pytest
from oracles import monic_polys, right_divisors

from skewqc import factorization
from skewqc.errors import BudgetExceededError
from skewqc.factorization import (
    all_linear_factorizations,
    is_central,
    linear_right_roots,
    modulus_right_divisors,
    verify_factorization,
)
from skewqc.field import gf4, make_field
from skewqc.skewpoly import SkewPoly, left_divmod, right_divmod, x_pow_minus_one

F = gf4()
A, A2 = 2, 3


def lin(c):
    """x - c (= x + c in characteristic 2)."""
    return SkewPoly(F, [c, 1])


# ---------------------------------------------------------------------------
# centrality
# ---------------------------------------------------------------------------


def test_x_pow_minus_one_central_iff_m_divides_s():
    for s in range(2, 13):
        assert is_central(x_pow_minus_one(F, s)) == (s % 2 == 0)


def test_centrality_details():
    assert is_central(SkewPoly.one(F))
    assert is_central(SkewPoly(F, [1, 0, 1]))  # x^2 + 1: even powers, GF(2) coeffs
    assert not is_central(SkewPoly(F, [A, 0, 1]))  # a is moved by theta
    assert not is_central(SkewPoly(F, [0, 1]))  # x itself


# ---------------------------------------------------------------------------
# non-unique factorization of x^2 - 1 and x^4 - 1
# ---------------------------------------------------------------------------


def test_x2_minus_one_two_factorizations():
    target = x_pow_minus_one(F, 2)
    assert lin(1) * lin(1) == target
    assert lin(A) * lin(A2) == target
    assert lin(A2) * lin(A) == target  # the reversed order also lands on it


def test_x4_minus_one_displayed_factorizations():
    target = x_pow_minus_one(F, 4)
    displayed = [
        [lin(1), lin(1), lin(1), lin(1)],
        [lin(A), lin(A2), lin(A), lin(A2)],
        [lin(A), lin(A), lin(A2), lin(A2)],
        [lin(A), lin(A2), lin(1), lin(1)],
    ]
    for factors in displayed:
        assert verify_factorization(target, factors)


def test_all_linear_factorizations_of_x4_minus_one():
    target = x_pow_minus_one(F, 4)
    results = all_linear_factorizations(target)
    assert len(results) == 15
    seen = set()
    for factors in results:
        assert verify_factorization(target, factors)
        key = tuple(tuple(f.coeffs) for f in factors)
        assert key not in seen
        seen.add(key)


@pytest.mark.parametrize(
    "key, s, count, digest",
    [
        ((2, 1, 2), 8, 543, "6e8c041690719cb508073d2023a52c95ce7f0d8c71f9aa76fac39fe656ef9cef"),
        ((3, 1, 2), 6, 232, "b0ec4cf2e51a8b16b5f866314039941cfd143184120f901ea546709b22f0e50a"),
    ],
    ids=["gf4-x8", "gf9-x6"],
)
def test_linear_factorizations_keep_their_order(key, s, count, digest):
    """The ordered factorizations of x^s - 1, in the order the search finds
    them, against a recorded sha256."""
    results = all_linear_factorizations(x_pow_minus_one(make_field(*key), s))
    assert len(results) == count
    rows = [[f.coeffs for f in factors] for factors in results]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# right roots and divisor scans
# ---------------------------------------------------------------------------


def test_linear_right_roots_match_brute_force():
    for f in (x_pow_minus_one(F, 2), x_pow_minus_one(F, 4), SkewPoly(F, [A, 1, 1])):
        expected = [c for c in range(4) if right_divmod(f, lin(c))[1].is_zero]
        assert sorted(linear_right_roots(f)) == sorted(expected)


def test_not_every_modulus_splits_into_linear_factors():
    """x^6 - 1 has linear right divisors but no complete linear
    factorization."""
    target = x_pow_minus_one(F, 6)
    assert linear_right_roots(target) == [1, A, A2]
    assert all_linear_factorizations(target) == []


def test_right_divisors_by_degree():
    target = x_pow_minus_one(F, 4)
    deg1 = right_divisors(target, degree=1)
    assert sorted(tuple(g.coeffs) for g in deg1) == [(1, 1), (A, 1), (A2, 1)]
    for g in right_divisors(target, degree=2):
        assert right_divmod(target, g)[1].is_zero


def test_right_divisors_budget_guard():
    with pytest.raises(BudgetExceededError):
        modulus_right_divisors(F, 12, degree=6, budget=100)
    # degree 6 examines its 4^6 candidates: the budget is met exactly or refused
    assert len(modulus_right_divisors(F, 12, degree=6, budget=4**6)) == 157
    with pytest.raises(BudgetExceededError):
        modulus_right_divisors(F, 12, degree=6, budget=4**6 - 1)
    # degree 11 is priced at the 4^1 candidates of its degree-1 cofactors
    assert len(modulus_right_divisors(F, 12, degree=11, budget=100)) == 3


def test_divisor_scan_prices_numpy_integers_before_any_scan(monkeypatch):
    """s and degree go through operator.index: np.int64 arguments are priced
    at 4^40 candidates and refused, where int64 wrapped the price to 0 and
    the scan started; a float degree is refused with a ValueError."""

    def no_scan(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(factorization, "_scan_modulus_divisors", no_scan)
    with pytest.raises(BudgetExceededError) as exc:
        modulus_right_divisors(F, np.int64(80), np.int64(40))
    assert exc.value.required == 4**40
    with pytest.raises(ValueError, match="degree must be an integer"):
        modulus_right_divisors(F, 8, 2.0)
    with pytest.raises(ValueError, match="s must be an integer"):
        modulus_right_divisors(F, 8.0, 2)


def test_monic_polys_enumeration():
    polys = list(monic_polys(F, 2))
    assert len(polys) == 16
    assert all(p.is_monic and p.degree == 2 for p in polys)
    assert len({tuple(p.coeffs) for p in polys}) == 16


# ---------------------------------------------------------------------------
# batched divisor scan of x^s - 1 agrees with the schoolbook scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", [2, 4, 6, 8])
def test_modulus_divisor_scan_cross_check(s):
    target = x_pow_minus_one(F, s)
    fast = modulus_right_divisors(F, s)
    slow = right_divisors(target)
    assert [tuple(g.coeffs) for g in fast] == [tuple(g.coeffs) for g in slow]


def test_modulus_divisor_scan_gf9():
    F9 = make_field(3, 1, 2)
    fast = modulus_right_divisors(F9, 4)
    slow = right_divisors(x_pow_minus_one(F9, 4))
    assert [tuple(g.coeffs) for g in fast] == [tuple(g.coeffs) for g in slow]


def test_modulus_divisor_cofactors_of_x12_minus_one():
    """Above s/2 the divisors of the central x^12 - 1 are the cofactors of
    the scanned low-degree divisors, in monic_polys order."""
    s = 12
    target = x_pow_minus_one(F, s)

    def monic_index(h):
        return sum(int(c) * 4**j for j, c in enumerate(h.coeffs[:-1]))

    counts = [len(modulus_right_divisors(F, s, degree=d)) for d in range(1, s)]
    assert counts == [3, 12, 18, 57, 78, 157, 78, 57, 18, 12, 3]
    for d in range(7, s):
        high = modulus_right_divisors(F, s, degree=d)
        low = modulus_right_divisors(F, s, degree=s - d)
        assert len(high) == len(low)
        cofactors = sorted((right_divmod(target, g)[0] for g in low), key=monic_index)
        assert [h.coeffs for h in high] == [h.coeffs for h in cofactors]
        for h in high:
            assert h.is_monic and h.degree == d
            assert right_divmod(target, h)[1].is_zero


def test_modulus_divisor_scan_non_central():
    """m = 2 does not divide s = 5: x^5 - 1 is not central, so every degree
    is scanned directly and must match the schoolbook scan."""
    assert not is_central(x_pow_minus_one(F, 5))
    fast = modulus_right_divisors(F, 5)
    slow = right_divisors(x_pow_minus_one(F, 5))
    assert [tuple(g.coeffs) for g in fast] == [tuple(g.coeffs) for g in slow]


def _spy_on_divisor_scans(monkeypatch):
    """The degrees of every batched divisor scan made from now on."""
    scans = []

    def spied(field, modulus, dg):
        scans.append(dg)
        return scan(field, modulus, dg)

    scan = factorization._scan_modulus_divisors
    monkeypatch.setattr(factorization, "_scan_modulus_divisors", spied)
    return scans


@pytest.mark.parametrize("field, s, scanned", [
    (F, 12, [1, 2, 3, 4, 5, 6]),
    (make_field(3, 1, 2), 6, [1, 2, 3]),
    (F, 5, [1, 2, 3, 4]),  # not central: every degree is scanned itself
], ids=["gf4-s12", "gf9-s6", "gf4-s5"])
def test_all_modulus_divisors_scan_each_degree_once(monkeypatch, field, s, scanned):
    """Without a degree, each scanned degree min(d, s - d) is scanned once,
    the call is priced at exactly those scans, and the divisors and their
    order are those of one call per degree."""
    expected = [g for d in range(s + 1) for g in modulus_right_divisors(field, s, degree=d)]
    cost = sum(field.q**d for d in scanned)
    scans = _spy_on_divisor_scans(monkeypatch)
    assert modulus_right_divisors(field, s, budget=cost) == expected
    assert scans == scanned
    with pytest.raises(BudgetExceededError) as info:
        modulus_right_divisors(field, s, budget=cost - 1)
    assert (info.value.required, info.value.budget) == (cost, cost - 1)
    assert scans == scanned


def test_all_modulus_divisors_are_priced_at_the_candidates_scanned(monkeypatch):
    """x^12 - 1 costs 6 scans over 5,460 candidates, where a scan per degree
    made 11 over 6,824; x^20 - 1 costs 10 scans over 1,398,100 instead of
    19 over 1,747,624, refused before any scan."""
    scans = _spy_on_divisor_scans(monkeypatch)
    for s, cost in ((12, 5_460), (20, 1_398_100)):
        with pytest.raises(BudgetExceededError) as info:
            modulus_right_divisors(F, s, budget=cost - 1)
        assert info.value.required == cost
    assert scans == []


def test_modulus_divisor_extremes():
    divs = modulus_right_divisors(F, 4, degree=0)
    assert divs == [SkewPoly.one(F)]
    divs = modulus_right_divisors(F, 4, degree=4)
    assert divs == [x_pow_minus_one(F, 4)]


# ---------------------------------------------------------------------------
# central targets: complementary factors commute
# ---------------------------------------------------------------------------


def central_complement_commutes(target, d):
    """For central target = q*d, check q*d == d*q (and both one-sided
    divisions agree); meaningful only when d really divides target."""
    q, r = right_divmod(target, d)
    if not r.is_zero:
        return False
    ql, rl = left_divmod(target, d)
    return rl.is_zero and q * d == d * q and d * ql == target


def test_central_complement_commutes_for_all_divisors():
    target = x_pow_minus_one(F, 4)
    for g in right_divisors(target):
        assert central_complement_commutes(target, g)


def test_central_complement_rejects_non_divisor():
    target = x_pow_minus_one(F, 4)
    # every monic linear polynomial with nonzero constant term divides
    # x^4 - 1, so use x itself: x^4 - 1 = q*x + c with c != 0
    assert not central_complement_commutes(target, lin(0))
    quad_divisors = {tuple(g.coeffs) for g in right_divisors(target, degree=2)}
    non_divisor = next(
        g for g in monic_polys(F, 2) if tuple(g.coeffs) not in quad_divisors
    )
    assert not central_complement_commutes(target, non_divisor)
