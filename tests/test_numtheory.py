import timeit
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trigrat.numtheory import (
    _root_reduction,
    _squarefree_part,
    divisors,
    euler_phi,
    format_rational,
    integer_nth_root,
    nth_root_rational,
    parse_rational,
    prime_factorization,
    radical_condition,
)

from reference import (
    mobius,
    reference_integer_nth_root,
    reference_prime_factorization,
    reference_radical_condition,
    reference_rational_root_degree,
    reference_squarefree_part,
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


@given(st.integers(0, 2 ** 20000), st.one_of(st.integers(1, 14), st.integers(100, 2000)),
       st.integers(2, 2 ** (20000 // 14)))
@example(10 ** 4300, 1000, 2)
@example(3 ** 9001 + 2, 997, 2)
@example(2 ** 20000, 141, 2)
@settings(max_examples=40)
def test_integer_nth_root_matches_the_bisection(x, n, y):
    """Newton's iteration against the reference bisection at x below
    2^20000, for n up to 14 and for n near and above the square root of
    x's bit length, where a start up to twice the root would cost Newton
    about 0.7 n steps; and at an n-th power y^n <= 2^20000 (y cut to
    20000 // n bits) and its neighbours.  x = 10^4300 at n = 1000 takes
    under 3 ms (best of three)."""
    assert integer_nth_root(x, n) == reference_integer_nth_root(x, n)
    if (x, n) == (10 ** 4300, 1000):
        assert min(timeit.repeat(lambda: integer_nth_root(x, n), number=1, repeat=3)) < 0.003
    y = max(y >> max(y.bit_length() - 20000 // n, 0), 2)
    for z, root in ((y ** n - 1, y - 1), (y ** n, y), (y ** n + 1, y if n > 1 else y + 1)):
        assert integer_nth_root(z, n) == reference_integer_nth_root(z, n) == root


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


@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 24), st.data())
@settings(max_examples=300)
def test_radical_condition_matches_the_test_at_every_prime_of_n(a, b, k, data):
    """Trying only the divisors of n up to alpha's bit length gives the
    answer of the test at each prime factor of n; alpha = (a/b)^k (1 when
    a = b), n any number in 2..10^4 or a multiple of k."""
    alpha = Fraction(a, b) ** k
    n = data.draw(st.one_of(st.integers(2, 10 ** 4), st.integers(1, 60).map(lambda c: 2 * k * c)))
    factored = all(nth_root_rational(alpha, r) is None for r, _ in prime_factorization(n))
    assert radical_condition(alpha, n) == factored


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


def _primes_above(bound, count):
    primes, p = [], bound + 1
    while len(primes) < count:
        if reference_prime_factorization(p) == ((p, 1),):
            primes.append(p)
        p += 1
    return primes


@given(st.integers(1, 2000), st.integers(1, 10 ** 6), st.integers(0, 5))
@example(1, 1, 0)
@example(2, 9, 2)
@settings(max_examples=300)
def test_trial_division_callers_match_the_reference_loops(bound, small, i):
    """prime_factorization and _squarefree_part, over the one shared trial
    division, give what their own loops give: at odd and even bounds, and
    at n = small * cofactor with the cofactor 1, a prime or a prime square
    just above the bound, a product of two such primes, or a cube."""
    q, r = _primes_above(bound, 2)
    n = small * [1, q, q * q, q * r, q ** 3, q * q * r][i]
    assert prime_factorization.__wrapped__(n) == reference_prime_factorization(n), n
    assert _squarefree_part(n, bound) == reference_squarefree_part(n, bound), (n, bound)


@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 24), st.data())
@settings(max_examples=300)
def test_root_reduction_matches_both_reference_searches(a, b, k, data):
    """e from the one downward search is the downward reference's, and
    radical_condition, e = 1, is the upward reference's; alpha = (a/b)^k,
    n any number in 2..10^4 or a multiple of k."""
    alpha = Fraction(a, b) ** k
    n = data.draw(st.one_of(st.integers(2, 10 ** 4), st.integers(1, 60).map(lambda c: 2 * k * c)))
    assert _root_reduction(alpha, n)[0] == reference_rational_root_degree(alpha, n)
    assert radical_condition(alpha, n) == reference_radical_condition(alpha, n)


@given(st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6))
def test_parse_format_roundtrip(num, den):
    value = Fraction(num, den)
    assert parse_rational(format_rational(value)) == value


@given(st.sampled_from(["", "+", "-"]), st.integers(0, 10 ** 30), st.one_of(st.none(), st.integers(0, 10 ** 6)),
       st.sampled_from(["", "00"]), st.sampled_from(["", " ", "\n"]))
def test_parse_rational_reads_what_fraction_reads(sign, num, den, zeros, space):
    """Signed, unreduced, zero-padded and space-padded literals read as
    ``Fraction`` reads them; a zero denominator is a ValueError saying so."""
    text = f"{space}{sign}{zeros}{num}" + ("" if den is None else f"/{zeros}{den}") + space
    if den == 0:
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)
    else:
        assert parse_rational(text) == Fraction(text)


@pytest.mark.parametrize("bad", ["", "1/0", "abc", "1.5", "1/2/3", "+ 1", "2 /3", "0x10"])
def test_parse_rational_rejects_junk(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_plain_integers():
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 9)) == "-1/3"
