from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trigrat.polynomials import RatPoly

rationals = st.fractions(max_denominator=20, min_value=-10, max_value=10)
polys = st.lists(rationals, max_size=7).map(RatPoly)


def test_construction_trims_trailing_zeros():
    assert RatPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert RatPoly([0, 0]).is_zero()
    assert RatPoly().degree == -1


def test_monomial_and_indexing():
    p = RatPoly.monomial(3, 5)
    assert p.degree == 3
    assert p[3] == 5
    assert p[0] == 0
    assert p[99] == 0


@given(polys, polys)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, st.integers(0, 5))
def test_pow_matches_repeated_multiplication(a, k):
    expected = RatPoly([1])
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected


@given(polys, polys)
def test_divmod_reconstructs(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


def test_division_example():
    # x^6 - 8 = (x^2 - 2)(x^4 + 2x^2 + 4)
    a = RatPoly.monomial(6) - 8
    b = RatPoly([-2, 0, 1])
    q, r = divmod(a, b)
    assert r.is_zero()
    assert q == RatPoly([4, 0, 2, 0, 1])


@given(polys, rationals)
def test_evaluate_matches_naive_sum(p, x):
    naive = sum((c * x ** k for k, c in enumerate(p.coeffs)), Fraction(0))
    assert p.evaluate(x) == naive


def test_str_rendering():
    assert str(RatPoly([-2, 0, 1])) == "x^2 - 2"
    assert str(RatPoly()) == "0"
    assert str(RatPoly([Fraction(1, 2)])) == "1/2"


def test_immutability():
    p = RatPoly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_pow_does_no_wasted_product(monkeypatch):
    x = RatPoly([1, 1])
    calls = []
    product = RatPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(RatPoly, "__mul__", counting)
    counts = []
    for n in range(1, 9):
        calls.clear()
        assert (x ** n).coeffs == tuple(Fraction(comb(n, k)) for k in range(n + 1))
        counts.append(len(calls))
    assert counts == [0, 1, 2, 2, 3, 3, 4, 3]
