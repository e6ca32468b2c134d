"""Exact integer and rational number theory helpers.

Everything in this module is pure and exact: arbitrary-precision integers,
``fractions.Fraction`` for rationals, no floating point anywhere.  All moduli
and exponents that show up in this project are desk-scale, so factoring is
plain trial division.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the interchange form ``a/b`` or ``a`` (reduced, '-' allowed)."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Inverse of :func:`parse_rational`; always reduced."""
    return str(value)


def _check_natural(n: int, minimum: int, name: str = "n") -> None:
    if not isinstance(n, int) or n < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {n!r}")


def _check_positive(alpha: Fraction, name: str = "alpha") -> Fraction:
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ValueError(f"{name} must be positive, got {alpha}")
    return alpha


def integer_nth_root(x: int, n: int) -> int:
    """Largest r >= 0 with r**n <= x, by binary search from the bracket
    2^t <= r < 2^(t+1), t = (bits(x) - 1) // n: exact, no floats, no power
    above x^2, and r = 1 at once when x < 2^n."""
    if x < 0:
        raise ValueError("x must be non-negative")
    _check_natural(n, 1)
    if x in (0, 1) or n == 1:
        return x
    lo, hi = 1 << (x.bit_length() - 1) // n, 2 << (x.bit_length() - 1) // n
    # invariant: lo**n <= x < hi**n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid
    return lo


@lru_cache(maxsize=1024)
def prime_factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Sorted (prime, exponent) pairs of n >= 1, by trial division.  The
    cache keeps the 1024 arguments used last."""
    _check_natural(n, 1)
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in prime_factorization(n))


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n >= 1, sorted ascending."""
    _check_natural(n, 1)
    divs = [1]
    for p, e in prime_factorization(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def euler_phi(n: int) -> int:
    """Count of 1 <= a <= n coprime to n, via phi(n) = n * prod(1 - 1/p)."""
    _check_natural(n, 1)
    phi = n
    for p in prime_divisors(n):
        phi = phi // p * (p - 1)
    return phi


def mobius(n: int) -> int:
    """The Moebius function: 0 on non-squarefree n, else (-1)**(#primes)."""
    _check_natural(n, 1)
    factorization = prime_factorization(n)
    if any(e >= 2 for _, e in factorization):
        return 0
    return -1 if len(factorization) % 2 else 1


def nth_root_rational(alpha: Fraction, n: int) -> Fraction | None:
    """The unique positive rational r with r**n == alpha, or None.

    Works on the reduced numerator and denominator separately: a reduced
    fraction is an exact n-th power iff both parts are.
    """
    alpha = _check_positive(alpha)
    _check_natural(n, 1)
    num_root = integer_nth_root(alpha.numerator, n)
    if num_root**n != alpha.numerator:
        return None
    den_root = integer_nth_root(alpha.denominator, n)
    if den_root**n != alpha.denominator:
        return None
    return Fraction(num_root, den_root)


def radical_condition(alpha: Fraction, n: int) -> bool:
    """True iff alpha**(k/n) is irrational for every 1 <= k <= n-1.

    For alpha > 0 the exponents t with alpha**t rational form an additive
    group containing 1, so the condition reduces to: alpha is not a perfect
    r-th power for any prime r dividing n.  (The equivalence is itself
    property-tested against the direct definition.)
    """
    alpha = _check_positive(alpha)
    _check_natural(n, 2)
    return all(nth_root_rational(alpha, r) is None for r in prime_divisors(n))


def _squarefree_part(n: int, bound: int) -> int | None:
    """The squarefree part d of n >= 1, by trial division by 2 and the odd
    numbers up to bound only.  None when what is left then has no factor up
    to bound and is neither 1, a prime nor a square: some prime above bound
    divides d."""
    d, p = 1, 2
    while p <= bound and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if p * p > n:  # n is 1 or a prime
        return d * n
    return d if isqrt(n) ** 2 == n else None


def squarefree_decompose(alpha: Fraction) -> tuple[Fraction, int]:
    """Write alpha = r**2 * d with r rational and d a squarefree integer.

    d is the squarefree part of numerator * denominator of the reduced alpha.
    """
    alpha = _check_positive(alpha)
    nd = alpha.numerator * alpha.denominator
    d = _squarefree_part(nd, isqrt(nd))  # the bound reaches sqrt(nd): never None
    r = nth_root_rational(alpha / d, 2)
    assert r is not None  # alpha/d is a perfect square by construction
    return r, d
