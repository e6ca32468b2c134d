"""Exact integer and rational number theory helpers.

Everything in this module is pure and exact: arbitrary-precision integers,
``fractions.Fraction`` for rationals, no floating point anywhere.  All moduli
and exponents that show up in this project are desk-scale, so factoring is
plain trial division, by one bounded loop (``_trial_division``) that
``trig``'s spread check shares.  ``_root_reduction`` writes alpha = beta^e,
the one reduction behind the radical criterion and ``kummer``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse the interchange form ``a/b`` or ``a`` (reduced, '-' allowed)."""
    text = text.strip()
    match = _RATIONAL_RE.match(text)
    if not match:
        raise ValueError(f"not a rational literal: {text!r}")
    numerator, denominator = match.groups()
    try:
        return Fraction(int(numerator), int(denominator or 1))
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
    """Largest r >= 0 with r**n <= x, by Newton's iteration from above:
    exact, no floats, and r = 1 at once when x < 2^n.

    Newton's step from any r is at least the root's floor (AM-GM), and
    below r while r^n > x; from r = R(1 + e) it shrinks r about n e times
    by a factor (n - 1)/n before it converges quadratically, so it starts
    near the root R, which lies in [2^t, 2^(t+1)), t = (bits(x) - 1) // n.
    For k = (t - bits(n)) // 2 of at least 16 the start is taken from x's
    top bits, as ``math.isqrt`` does: the root s of x >> nk gives
    s 2^k <= R < (s + 1) 2^k, and from (s + 1) 2^k, within a factor
    1 + 2^(k-t) of R, one step lands within 1 of R.  For a shorter root
    the recursion costs more than it saves, and the bracket is bisected
    down to a factor 1 + 4/n instead.
    """
    if x < 0:
        raise ValueError("x must be non-negative")
    _check_natural(n, 1)
    if x.bit_length() <= n:
        return min(x, 1)
    t = (x.bit_length() - 1) // n
    k = (t - n.bit_length()) // 2
    if k >= 16:
        r = (integer_nth_root(x >> n * k, n) + 1) << k
    else:
        lo, r = 1 << t, 2 << t
        while (r - lo) * n > 4 * lo and r - lo > 1:  # lo^n <= x < r^n
            mid = (lo + r) // 2
            lo, r = (mid, r) if mid ** n <= x else (lo, mid)
    while (s := ((n - 1) * r + x // r ** (n - 1)) // n) < r:
        r = s
    return r


def _trial_division(n: int, bound: int) -> tuple[list[tuple[int, int]], int, int]:
    """Divide n >= 1 by 2 and the odd p <= bound while p * p <= n: the
    (prime, exponent) pairs found, in order, the cofactor left and the next
    trial divisor p.  The cofactor is 1 or a prime when p * p is above it,
    and otherwise has only primes above bound."""
    factors, p = [], 2
    while p <= bound and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    return factors, n, p


@lru_cache(maxsize=1024)
def prime_factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Sorted (prime, exponent) pairs of n >= 1, by trial division.  The
    cache keeps the 1024 arguments used last."""
    _check_natural(n, 1)
    factors, rest, _ = _trial_division(n, n)
    return tuple(factors + [(rest, 1)] if rest > 1 else factors)


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


def nth_root_rational(alpha: Fraction, n: int) -> Fraction | None:
    """The unique positive rational r with r**n == alpha, or None.

    Works on the reduced numerator and denominator separately: a reduced
    fraction is an exact n-th power iff both parts are.
    """
    alpha = _check_positive(alpha)
    _check_natural(n, 1)
    return _exact_root(alpha, n)


def _exact_root(alpha: Fraction, n: int) -> Fraction | None:
    """:func:`nth_root_rational` of a checked alpha > 0 and n >= 1."""
    num_root = integer_nth_root(alpha.numerator, n)
    if num_root**n != alpha.numerator:
        return None
    den_root = integer_nth_root(alpha.denominator, n)
    if den_root**n != alpha.denominator:
        return None
    return Fraction(num_root, den_root)


def _root_reduction(alpha: Fraction, n: int) -> tuple[int, Fraction]:
    """(e, beta) with alpha = beta^e, beta > 0 rational and e the largest
    divisor of n at which alpha is a rational e-th power, so that
    alpha^(1/n) = beta^(1/k) for k = n/e.  The caller checks alpha > 0
    and n >= 1.

    alpha = 1 is 1^n.  Any other alpha has a part a > 1, its numerator or
    denominator, and a = c^e with c >= 2 gives 2^e <= a, so e is at most
    the larger bit length of the two parts: only the divisors of n up to
    that bound are tried, downward, and n is not factored.
    """
    if alpha == 1:
        return n, alpha
    bound = min(n, max(alpha.numerator.bit_length(), alpha.denominator.bit_length()))
    for e in range(bound, 0, -1):  # e = 1 ends it: beta = alpha
        if n % e == 0 and (beta := _exact_root(alpha, e)) is not None:
            return e, beta


def radical_condition(alpha: Fraction, n: int) -> bool:
    """True iff alpha**(k/n) is irrational for every 1 <= k <= n-1.

    For alpha > 0 the exponents t with alpha**t rational form an additive
    group containing 1, so the condition reduces to: alpha is not a perfect
    r-th power for any prime r dividing n, or, the same, for any divisor
    r >= 2 of n, that is, e = 1 in ``_root_reduction``.  (The equivalence
    is itself property-tested against the direct definition.)  alpha = 1 is
    every power, so the condition fails.
    """
    alpha = _check_positive(alpha)
    _check_natural(n, 2)
    return _root_reduction(alpha, n)[0] == 1


def _squarefree_part(n: int, bound: int) -> int | None:
    """The squarefree part d of n >= 1, by trial division by 2 and the odd
    numbers up to bound only.  None when what is left then has no factor up
    to bound and is neither 1, a prime nor a square: some prime above bound
    divides d."""
    factors, rest, p = _trial_division(n, bound)
    d = prod(q for q, e in factors if e % 2)
    if p * p > rest:  # rest is 1 or a prime
        return d * rest
    return d if isqrt(rest) ** 2 == rest else None

