from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrat.numtheory import (
    _squarefree_part,
    divisors,
    euler_phi,
    format_rational,
    integer_nth_root,
    mobius,
    nth_root_rational,
    parse_rational,
    prime_factorization,
    radical_condition,
    squarefree_decompose,
)


def phi_by_count(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_euler_phi_against_direct_count():
    for n in range(1, 200):
        assert euler_phi(n) == phi_by_count(n)


@given(st.integers(1, 500), st.integers(1, 500))
def test_euler_phi_multiplicative(a, b):
    if gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_mobius_dirichlet_identity():
    # sum of mu(d) over divisors d of n is 1 at n=1 and 0 elsewhere
    for n in range(1, 1001):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(2) == -1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert mobius(30) == -1
    assert mobius(12) == 0


def test_prime_factorization_reassembles():
    for n in range(2, 400):
        prod = 1
        for p, e in prime_factorization(n):
            prod *= p ** e
        assert prod == n


def test_divisors_sorted_and_complete():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(1) == (1,)
    assert divisors(49) == (1, 7, 49)


@given(st.integers(0, 10 ** 18), st.integers(1, 8))
def test_integer_nth_root_bracket(x, n):
    r = integer_nth_root(x, n)
    assert r ** n <= x < (r + 1) ** n


def test_integer_nth_root_matches_a_linear_search():
    """Against the plain search on small x and n, and at once for a large n
    (1 when x < 2^n, where no 2^n is formed)."""
    for x in range(300):
        for n in range(1, 12):
            assert integer_nth_root(x, n) == max(r for r in range(x + 1) if r ** n <= x), (x, n)
    assert integer_nth_root(2 ** 64 - 1, 10 ** 9 + 7) == 1
    assert integer_nth_root(10 ** 600, 12) == 10 ** 50
    assert integer_nth_root(10 ** 600 - 1, 12) == 10 ** 50 - 1


@given(st.integers(1, 1000), st.integers(1, 1000), st.integers(1, 6))
def test_nth_root_rational_roundtrip(a, b, n):
    alpha = Fraction(a, b) ** n
    assert nth_root_rational(alpha, n) == Fraction(a, b)


def test_nth_root_rational_examples():
    assert nth_root_rational(Fraction(4), 2) == 2
    assert nth_root_rational(Fraction(2), 2) is None
    assert nth_root_rational(Fraction(8, 27), 3) == Fraction(2, 3)
    assert nth_root_rational(Fraction(5), 1) == 5


def test_nth_root_rejects_bad_input():
    with pytest.raises(ValueError):
        nth_root_rational(Fraction(-4), 2)
    with pytest.raises(ValueError):
        nth_root_rational(Fraction(4), 0)


def test_radical_condition_matches_direct_definition():
    """The prime-divisor shortcut against the k = 1..n-1 definition.

    alpha^(k/n) is rational iff x^n = alpha^k has a rational root, so the
    direct form is n-1 root extractions.  Exhaustive over small fractions.
    """
    for num in range(1, 51):
        for den in range(1, 51):
            alpha = Fraction(num, den)
            if alpha == 1:
                continue
            for n in range(2, 11):
                direct = all(
                    nth_root_rational(alpha ** k, n) is None for k in range(1, n)
                )
                assert radical_condition(alpha, n) == direct, (alpha, n)


def test_radical_condition_examples():
    assert radical_condition(Fraction(2), 8) is True
    assert radical_condition(Fraction(8), 6) is False
    assert radical_condition(Fraction(4), 2) is False
    assert radical_condition(Fraction(27, 8), 3) is False
    assert radical_condition(Fraction(2), 2) is True


@given(st.integers(1, 4000), st.integers(1, 4000))
def test_squarefree_decompose_properties(num, den):
    alpha = Fraction(num, den)
    r, d = squarefree_decompose(alpha)
    assert r > 0 and d >= 1
    assert r * r * d == alpha
    assert all(e == 1 for _, e in prime_factorization(d)) or d == 1


def test_squarefree_decompose_examples():
    assert squarefree_decompose(Fraction(2)) == (1, 2)
    assert squarefree_decompose(Fraction(9, 4)) == (Fraction(3, 2), 1)
    assert squarefree_decompose(Fraction(1, 2)) == (Fraction(1, 2), 2)
    assert squarefree_decompose(Fraction(50)) == (5, 2)


@given(st.integers(1, 10 ** 6), st.sampled_from([1, 4, 9, 49, 1000000007 ** 2]))
@settings(max_examples=200)
def test_bounded_squarefree_part_matches_the_factored_one(n, square):
    """Trial division up to the bound gives the squarefree part d of n times
    a square whenever every prime of d is at most the bound, and None only
    when one is above it."""
    d = prod(p for p, e in prime_factorization(n) if e % 2)
    for bound in (50, 41000):
        got = _squarefree_part(n * square, bound)
        assert got == d or (got is None and max(prime_factorization(d))[0] > bound), (n, square, bound)
    assert _squarefree_part(1000000016000000063 * square, 41000) is None


@given(st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6))
def test_parse_format_roundtrip(num, den):
    value = Fraction(num, den)
    assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize("bad", ["", "1/0", "abc", "1.5", "1/2/3", "+ 1", "2 /3", "0x10"])
def test_parse_rational_rejects_junk(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_plain_integers():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 9)) == "-1/3"
