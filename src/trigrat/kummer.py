"""Binomial irreducibility, Gauss sums and root membership in Q(zeta_m).

The pieces here answer one question from several directions: for positive
rational alpha, which cyclotomic fields contain the real root alpha^(1/n)?

Each starts from one reduction, ``numtheory._root_reduction``: alpha =
beta^e with e the largest divisor of n at which alpha is a rational e-th
power, so alpha^(1/n) = beta^(1/k), k = n/e, found without factoring n.

* ``binomial_irreducible`` settles irreducibility of x^n - alpha over Q by
  the radical criterion, e = 1 (no prime-order root of alpha is rational;
  for positive alpha the quartic exception of the general theorem cannot
  occur).
* ``subset_factorizations`` gives a second opinion with no theory in it:
  a monic factor over Q is a product of x - alpha^(1/n) zeta_n^j over a
  subset closed under j -> n - j.  The scan rebuilds each such product at
  an admissible size, a multiple of k, in integers, after the substitution
  x = y/Q that makes the target monic over Z, and confirms it by exact
  division.
* ``sqrt_in_cyclotomic`` writes sqrt(alpha) at the conductor of
  Q(sqrt(alpha)) in closed form, one combination of roots of unity, and
  checks it once by squaring, up to conductor MAX_WITNESS_MODULUS;
  ``gauss_sum`` and ``gauss_sum_case_check`` evaluate the Gauss sums
  themselves.
* ``nth_root_in_cyclotomic`` combines them into a decision procedure whose
  verdict carries a machine-checkable justification: a square root lies in
  Q(zeta_m) iff its conductor divides m.  A YES witness is written at m up
  to MAX_MEMBER_MODULUS.
* ``meta_group_checks`` verifies the abstract group that acts on the roots:
  pairs (a, c) with composition (a1 + c1 a2, c1 c2) mod n, the semidirect
  product of Z/n by its unit group, up to order MAX_GROUP_ORDER.
"""

from __future__ import annotations

import cmath
import enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, inf, isqrt
from typing import Union

from ._record import FrozenRecord
from .cyclotomic import CycElem, root_combination, zeta_power
from .numtheory import (
    _check_positive,
    _root_reduction,
    _squarefree_part,
    euler_phi,
    format_rational,
    integer_nth_root,
    nth_root_rational,
    radical_condition,
)
from .polynomials import RatPoly, _divide_monic, _monic_tail, _poly_mul

Scalar = Union[int, Fraction]

_FLOAT_ERROR, _FLOAT_BOUND = 2.0 ** -43, 2.0 ** 40  # the subset oracle's float route, see _integer_coefficients


# ----------------------------------------------------------------------
# irreducibility of x^n - alpha

def binomial_irreducible(alpha: Scalar, n: int) -> bool:
    """Whether x^n - alpha is irreducible over Q (alpha a positive rational).

    Equivalent to the radical criterion: alpha is not a rational r-th power
    for any prime r dividing n.  The classical extra obstruction at 4 | n
    concerns alpha in -4*Q^4 and is vacuous for positive alpha.
    """
    alpha = _check_positive(alpha)
    if n < 2:
        raise ValueError(f"degree must be >= 2, got {n}")
    return radical_condition(alpha, n)


class SubsetFactor(FrozenRecord):
    """A verified factorization x^n - alpha = factor * cofactor where factor
    is the subset product over the root indices in ``subset``."""

    __slots__ = ("subset", "factor", "cofactor")

    def __init__(self, subset: frozenset[int], factor: RatPoly, cofactor: RatPoly):
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "cofactor", cofactor)


def subset_factorizations(alpha: Scalar, n: int) -> list[SubsetFactor]:
    """All monic rational factors of x^n - alpha of degree 1..n-1, in order
    of size, then of subset, found over subsets of the roots and confirmed
    by exact division in integers.

    A monic factor over Q is the product of x - alpha^(1/n) zeta_n^j over a
    subset of j, closed under j -> n - j, of a size s at which alpha^s has
    a rational n-th root.  For reduced alpha a prime's exponent in alpha^s
    is s times its exponent in alpha, so that holds iff alpha is a rational
    (n/gcd(s, n))-th power, and the divisors of n at which it is are those
    of the largest, e in alpha = beta^e (``numtheory._root_reduction``): the
    sizes are the multiples of k = n/e below n, none when e = 1, and then
    the answer is [] at once.  With Q the denominator of beta, x = y/Q
    gives the target y^n - (beta Q^k)^e, monic over Z with roots
    M zeta_n^j, M = (beta Q^k)^(1/k), so its monic factors have integer
    coefficients (Gauss).  A closed subset's constant term is
    (-1)^s (+1 if sum(subset) = 0 mod n, else -1) M^s; its other
    coefficients come from ``_integer_coefficients``; ``_divide_monic`` on
    ints confirms it.  No float carries M's scale (see
    ``_integer_coefficients``), so alpha has no range limit.
    """
    alpha = _check_positive(alpha)
    if not 2 <= n <= 12:
        raise ValueError(f"subset scan supports 2 <= n <= 12, got {n}")
    e, beta = _root_reduction(alpha, n)
    if e == 1:
        return []
    k = n // e
    q = beta.denominator
    radicand = beta.numerator * q ** (k - 1)  # M^k
    scale = inf if radicand >> 41 * k else float(radicand) ** (1 / k)  # past 2^41 nothing is rounded
    target = [-radicand ** e] + [0] * (n - 1) + [1]
    products = _unit_products(n)
    found: list[SubsetFactor] = []
    for s in range(k, n, k):
        constant = (-1) ** s * radicand ** (s // k)
        for subset, unit in products[s]:
            coeffs = _integer_coefficients(n, subset, unit, k, radicand, scale)
            if coeffs is None:
                continue
            factor = [constant if sum(subset) % n == 0 else -constant] + coeffs + [1]
            rest = target.copy()
            cofactor = _divide_monic(rest, *_monic_tail(factor))
            if not any(rest[:s]):
                found.append(SubsetFactor(frozenset(subset), _unscaled(factor, q), _unscaled(cofactor, q)))
    return found


def _integer_coefficients(n: int, subset: tuple, unit: tuple, k: int, radicand: int, scale: float) -> list[int] | None:
    """The coefficients of y^1 .. y^(s-1) of the product of y - M zeta_n^j
    over the subset, M = radicand^(1/k) (``scale`` in floats), as ints, or
    None at the first that is not an integer.  The one d places below the
    top is M^d u, u the unit product's (``unit`` in floats), |u| <= C(s, d).
    The unit roots are within 2^5 units of 2^-53, each of the s <= 11 walk
    steps adds a few, and M^d is off by d (ln M + 3) at most, so the float
    is within _FLOAT_ERROR C(s, d) M^d, under 1/8 up to _FLOAT_BOUND; there
    it is rounded, and rejected when farther than that from every integer.
    (Two closed subsets of one size have unit products 0.61 or more apart
    in some coefficient, so a rounded candidate that divides is its own
    subset's.)  Past the bound u is rebuilt in Z[zeta_n]: (M^d u)^k =
    radicand^d u^k must be an integer with a k-th root, signed as the float
    u (|u| >= 1 when u^k is a nonzero integer)."""
    s = len(subset)
    coeffs = []
    for i in range(1, s):
        d = s - i
        weight = comb(s, d) * scale ** d
        if weight <= _FLOAT_BOUND:
            value = unit[i] * scale ** d
            c = round(value)
            if abs(value - c) > weight * _FLOAT_ERROR:
                return None
        else:
            power = (root_combination(n, [(sum(t), (-1) ** d) for t in combinations(subset, d)]) ** k).as_rational()
            if power is None:
                return None
            whole, part = divmod(d, k)
            power = radicand ** part * abs(int(power))
            c = integer_nth_root(power, k)
            if c ** k != power:
                return None
            c *= radicand ** whole if unit[i] > 0 else -radicand ** whole
        coeffs.append(c)
    return coeffs


def _unscaled(coeffs: list[int], q: int) -> RatPoly:
    """The monic q^-deg g(q x) of the monic integer polynomial g(y)."""
    return RatPoly(Fraction(c, q ** (len(coeffs) - 1 - i)) for i, c in enumerate(coeffs))


@lru_cache(maxsize=11)  # one entry per n in 2..12
def _unit_products(n: int) -> tuple:
    """The (subset, real coefficients) pairs of ``_real_subset_products`` at
    the roots of unity zeta_n^j, in a tuple indexed by subset size."""
    closed = _real_subset_products([cmath.exp(2j * cmath.pi * j / n) for j in range(n)])
    return tuple(tuple(entry for entry in closed if len(entry[0]) == s) for s in range(n))


def _real_subset_products(roots: list[complex]) -> list[tuple[tuple[int, ...], tuple[float, ...]]]:
    """(subset, real parts of the coefficients of the product of x - roots[j]
    over it) for the proper nonempty subsets closed under j -> n - j, in
    ``itertools.combinations`` order.  Depth first: each j <= n/2 is taken
    or skipped, each j > n/2 taken iff n - j was, so only the 2^(n//2+1) - 2
    closed subsets are built, each from its parent's product."""
    n = len(roots)
    closed = []

    def walk(subset, coeffs, j):
        if j == n:
            if subset:
                closed.append((subset, tuple(c.real for c in coeffs)))
            return
        free = 2 * j <= n  # else j is taken iff its partner n - j was
        taken = free or n - j in subset
        if free or not taken:
            walk(subset, coeffs, j + 1)
        if taken and len(subset) < n - 1:  # the full set is not proper
            root = roots[j]
            child = [0j - root * coeffs[0]]  # (x - root) * coeffs
            child += [a - root * b for a, b in zip(coeffs, coeffs[1:])]
            child.append(coeffs[-1])
            walk(subset + (j,), child, j + 1)

    walk((), [complex(1.0)], 0)
    closed.sort(key=lambda entry: (len(entry[0]), entry[0]))
    return closed


def subset_unity_product(n: int, subset: frozenset[int]) -> CycElem:
    """The product of zeta_n^j over j in subset, as an element of Q(zeta_n).

    For a subset whose root product is a rational polynomial the constant
    term forces this product to be +1 or -1 (its modulus-one rational
    multiple is the only way the irrational phases can cancel).
    """
    return zeta_power(n, sum(subset))


# ----------------------------------------------------------------------
# the metacyclic group acting on the roots

class MetaGaloisElem(FrozenRecord):
    """A symbol sigma^a tau_c acting on the root set of x^n - alpha:
    sigma multiplies the chosen root by zeta_n, tau_c raises zeta_n to c."""

    __slots__ = ("n", "a", "c")

    def __init__(self, n: int, a: int, c: int):
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        if not 0 <= a < n:
            raise ValueError(f"a must lie in [0, {n}), got {a}")
        if not 1 <= c < n:
            raise ValueError(f"c must lie in [1, {n}), got {c}")
        if gcd(c, n) != 1:
            raise ValueError(f"c = {c} is not a unit mod {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)

    @classmethod
    def identity(cls, n: int) -> "MetaGaloisElem":
        return cls(n, 0, 1)

    @classmethod
    def sigma(cls, n: int) -> "MetaGaloisElem":
        return cls(n, 1, 1)

    @classmethod
    def tau(cls, n: int, c: int) -> "MetaGaloisElem":
        return cls(n, 0, c % n)

    def __str__(self) -> str:
        return f"(a={self.a}, c={self.c}) mod {self.n}"


def meta_compose(first: MetaGaloisElem, second: MetaGaloisElem) -> MetaGaloisElem:
    """Composition 'first after second': apply ``second``, then ``first``.

    On exponents this is (a1, c1) * (a2, c2) = (a1 + c1*a2 mod n, c1*c2 mod n),
    matching how sigma^a1 tau_c1 sigma^a2 tau_c2 rewrites once tau is pushed
    past sigma via tau_c sigma = sigma^c tau_c.
    """
    if first.n != second.n:
        raise ValueError(f"mixed moduli {first.n} and {second.n}")
    n = first.n
    return MetaGaloisElem(n, (first.a + first.c * second.a) % n, (first.c * second.c) % n)


def _meta_power(base: MetaGaloisElem, k: int) -> MetaGaloisElem:
    result = MetaGaloisElem.identity(base.n)
    for _ in range(k):
        result = meta_compose(result, base)
    return result


class GroupReport(FrozenRecord):
    """Summary of the sanity run over one semidirect product."""

    __slots__ = ("n", "order", "abelian", "relation_holds")

    def __init__(self, n: int, order: int, abelian: bool, relation_holds: bool):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "abelian", abelian)
        object.__setattr__(self, "relation_holds", relation_holds)


# The largest group order n * phi(n) ``meta_group_checks`` enumerates.  The
# associativity check is cubic in the order: n = 30 (order 240) takes
# 0.5 s and n = 36 (order 432, the largest n within the limit) 2.9 s, in
# process on a 2-core Xeon with Python 3.11; n = 60 (order 960) would take
# over 25 s.
MAX_GROUP_ORDER = 480


def _check_group_order(n: int) -> None:
    """ValueError for n < 2, or when the group ``meta_group_checks(n)``
    enumerates, of order n * phi(n), is above MAX_GROUP_ORDER.  An n above
    the limit is refused without factoring it, since phi(n) >= 1."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n > MAX_GROUP_ORDER:
        raise ValueError(f"group order n*phi(n) >= n = {n} is above the limit {MAX_GROUP_ORDER}")
    order = n * euler_phi(n)
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"group order n*phi(n) = {order} at n = {n} is above the limit {MAX_GROUP_ORDER}")


def meta_group_checks(n: int) -> GroupReport:
    """Enumerate the full group for one n and verify the group axioms, the
    order n * phi(n), and the defining relation tau_c sigma = sigma^c tau_c.

    Axiom failures raise RuntimeError (they would mean the composition rule
    is wrong, not that the group is exotic); the report carries the facts a
    caller may want to compare across n, in particular that the group is
    abelian exactly for n = 2.  Refuses orders above MAX_GROUP_ORDER
    (``_check_group_order``).
    """
    _check_group_order(n)
    units = [c for c in range(n) if gcd(c, n) == 1]
    elems = [MetaGaloisElem(n, a, c) for a in range(n) for c in units]
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[meta_compose(x, y)] for y in elems] for x in elems]

    identity = MetaGaloisElem.identity(n)
    ident_idx = index[identity]
    for i, e in enumerate(elems):
        if table[ident_idx][i] != i or table[i][ident_idx] != i:
            raise RuntimeError(f"identity fails at {e}")
        if ident_idx not in table[i]:
            raise RuntimeError(f"no inverse for {e}")
    size = len(elems)
    for i in range(size):
        for j in range(size):
            ij = table[i][j]
            for k in range(size):
                if table[ij][k] != table[i][table[j][k]]:
                    raise RuntimeError(
                        f"associativity fails at {elems[i]}, {elems[j]}, {elems[k]}"
                    )

    abelian = all(table[i][j] == table[j][i] for i in range(size) for j in range(size))
    sigma = MetaGaloisElem.sigma(n)
    relation = all(
        meta_compose(MetaGaloisElem.tau(n, c), sigma)
        == meta_compose(_meta_power(sigma, c), MetaGaloisElem.tau(n, c))
        for c in units
    )
    return GroupReport(n=n, order=size, abelian=abelian, relation_holds=relation)


# ----------------------------------------------------------------------
# quadratic Gauss sums and square roots

def gauss_sum(m: int) -> CycElem:
    """The quadratic Gauss sum g(m) = sum of zeta_m^(k^2), k = 0..m-1,
    as an exact element of Q(zeta_m).  ValueError when m is above
    MAX_WITNESS_MODULUS."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    _check_modulus(m, MAX_WITNESS_MODULUS)
    return root_combination(m, [(k * k, 1) for k in range(m)])


def gauss_sum_case_check(m: int) -> bool:
    """Verify the classical evaluation of g(m) for one modulus, exactly.

    By residue of m mod 4 the sum equals (1+i)*sqrt(m), sqrt(m), 0, or
    i*sqrt(m).  Squaring removes the square root, so each case is an exact
    identity in Q(zeta_m): g^2 = 2m*i, m, 0, -m respectively (i = zeta_4 is
    available inside Q(zeta_m) whenever 4 divides m).  A float comparison
    against the signed root double-checks that the sign conventions match.
    ValueError when m is above MAX_WITNESS_MODULUS.
    """
    g = gauss_sum(m)
    g2 = g * g
    r = m % 4
    if r == 2:
        exact_ok = g.is_zero()
        expected = 0j
    elif r == 1:
        exact_ok = g2.as_rational() == m
        expected = complex(m ** 0.5)
    elif r == 3:
        exact_ok = g2.as_rational() == -m
        expected = 1j * m ** 0.5
    else:
        exact_ok = g2 == zeta_power(m, m // 4) * (2 * m)
        expected = (1 + 1j) * m ** 0.5
    numeric_ok = abs(g.numeric_eval() - expected) < 1e-6 * max(1.0, m)
    return exact_ok and numeric_ok


# The largest conductor f at which ``sqrt_in_cyclotomic`` builds a witness,
# and the largest m at which ``gauss_sum`` builds g(m): one combination of
# roots of unity at the modulus, a vector of phi coordinates, checked by
# one dense square, whose cost is quadratic in phi.  The modulus itself is
# compared, so the check needs no factoring, and the slowest inputs are
# primes just below the limit: sqrt-embed 40993 takes 36-46 s, gauss 40993
# 38 s, gauss 20011 9 s and sqrt-embed 10007 (f = 40028) 2.2-2.9 s, in a
# fresh process on a 2-core Xeon with Python 3.11.
MAX_WITNESS_MODULUS = 41000
# The largest modulus m at which ``nth_root_in_cyclotomic`` writes a YES
# witness, phi(m) coordinates reduced modulo Phi_m once.  That reduction
# is slowest at m with several large odd primes: on the same machine
# root-member 5 2 95095 (5*7*11*13*19) takes 43 s, 5 2 78540 6 s and
# 2 2 100000 0.2 s, while 5 2 255255 (3*5*7*11*13*17) runs past 120 s.
MAX_MEMBER_MODULUS = 10 ** 5


def _check_modulus(m: int, limit: int) -> None:
    """ValueError when a witness at modulus m would be above limit."""
    if m > limit:
        raise ValueError(f"a witness at modulus {m} is above the limit {limit}")


def _quadratic_conductor(d: int) -> int:
    """The conductor of Q(sqrt(d)) for a squarefree positive integer d: the
    least m with sqrt(d) in Q(zeta_m), d when d = 1 mod 4 and 4d otherwise."""
    return d if d % 4 == 1 else 4 * d


def sqrt_in_cyclotomic(alpha: Scalar) -> tuple[int, CycElem]:
    """An exact square-root witness: the smallest cyclotomic modulus f with
    sqrt(alpha) in Q(zeta_f), together with the element itself.

    Write alpha = r^2 * d with d a squarefree positive integer and d' its
    odd part; f is the conductor of Q(sqrt(d)), d for d = 1 mod 4 and 4d
    otherwise.  The root is r times the Gauss sum of d', times
    sqrt(2) = zeta_8 + 1/zeta_8 when d is even, divided by i when
    d' = 3 mod 4 (the Gauss sum is then i*sqrt(d')).  With z = zeta_f that
    is one combination of roots of unity, reduced once: the sum of
    r * z^((f/d') k^2 + t + s) over k < d' and over t in {f/8, -f/8} when
    d is even (t = 0 when d is odd), with s = -f/4 (1/i = z^(-f/4)) when
    d' = 3 mod 4 and s = 0 otherwise.  The one check is
    witness * witness == alpha; the float sum of the roots of unity laid
    out, sqrt(d) whatever the size of r > 0, confirms the positive root.
    ValueError when f is above MAX_WITNESS_MODULUS; d is found by
    trial division up to that limit only, so a d with a larger prime is
    refused without factoring alpha any further.
    """
    alpha = _check_positive(alpha)
    d = _squarefree_part(alpha.numerator * alpha.denominator, MAX_WITNESS_MODULUS)
    if d is None:
        raise ValueError(f"the conductor of Q(sqrt({alpha})) is above the limit {MAX_WITNESS_MODULUS}")
    r = nth_root_rational(alpha / d, 2)
    modulus = _quadratic_conductor(d)
    _check_modulus(modulus, MAX_WITNESS_MODULUS)
    odd = d if d % 2 else d // 2
    stride = modulus // odd
    shifts = (modulus // 8, -(modulus // 8)) if d % 2 == 0 else (0,)
    s = -(modulus // 4) if odd % 4 == 3 else 0
    terms = [(stride * k * k + t + s, r.numerator) for k in range(odd) for t in shifts]
    witness = root_combination(modulus, terms, r.denominator)
    if (witness * witness).as_rational() != alpha:
        raise ArithmeticError(f"witness square mismatch for alpha = {alpha}")
    numeric = sum(cmath.exp(2j * cmath.pi * x / modulus) for x, _ in terms)  # sqrt(d), at unit scale
    if abs(numeric.imag) > 1e-9 * abs(numeric) or numeric.real <= 0:
        raise ArithmeticError(f"witness for alpha = {alpha} is not the positive root")
    return modulus, witness


# ----------------------------------------------------------------------
# membership of real radicals in cyclotomic fields

class RootJustification(enum.Enum):
    """Which argument settled a root-membership query."""

    CONSTRUCTED_WITNESS = "constructed_witness"  # n = 1, the value itself
    EXPONENT_REDUCED = "exponent_reduced"        # root is outright rational
    GALOIS_INVARIANCE = "galois_invariance"      # square root: conductor divides m
    THEOREM_1_3 = "theorem_1_3"                  # genuine degree >= 3: never

    def __str__(self) -> str:
        return self.value


class RootMembershipVerdict(FrozenRecord):
    """Answer to 'is the positive real alpha^(1/n) an element of Q(zeta_m)?'

    ``witness`` is the root written in the power basis of Q(zeta_m) whenever
    the answer is yes, so the verdict can be re-verified by raising the
    witness to the n-th power.
    """

    __slots__ = ("alpha", "n", "modulus", "member", "justification", "witness")

    def __init__(self, alpha: Fraction, n: int, modulus: int, member: bool,
                 justification: RootJustification, witness: CycElem | None):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "member", member)
        object.__setattr__(self, "justification", justification)
        object.__setattr__(self, "witness", witness)

    @property
    def answer(self) -> str:
        return "YES" if self.member else "NO"

    def to_json(self) -> dict:
        return {
            "alpha": format_rational(self.alpha),
            "n": self.n,
            "modulus": self.modulus,
            "answer": self.answer,
            "justification": str(self.justification),
            "witness": None if self.witness is None else self.witness.to_json(),
        }


def _conductor_divides(beta: Fraction, m: int) -> bool:
    """Whether the conductor f of Q(sqrt(beta)) divides m, with no factoring.

    Write num*den of beta as d * s^2, d squarefree.  The primes that num*den
    shares with m are divided out by repeated gcds; when what is left is not
    a square, a prime that does not divide m divides d, hence f: False.
    Otherwise every prime of d divides m, and only the 2-part of f is left.
    With v the 2-adic valuation of num*den, d is even iff v is odd, and
    then f = 4d needs 8 | m.  For odd d the odd parts of num*den and d agree
    mod 8 (s^2 = 1 mod 8 for odd s), and f = d needs nothing more when
    d = 1 mod 4, f = 4d needs 4 | m when d = 3 mod 4."""
    nd = beta.numerator * beta.denominator
    rest, shared = nd, gcd(nd, m)
    while shared > 1:
        rest //= shared
        shared = gcd(rest, m)
    if isqrt(rest) ** 2 != rest:
        return False
    v = (nd & -nd).bit_length() - 1
    two_part = 8 if v % 2 else 1 if (nd >> v) % 4 == 1 else 4
    return m % two_part == 0


def nth_root_in_cyclotomic(alpha: Scalar, n: int, m: int) -> RootMembershipVerdict:
    """Decide whether the positive real n-th root of alpha lies in Q(zeta_m).

    The exponent is first reduced (``numtheory._root_reduction``): with e
    the largest divisor of n for which alpha^(1/e) is rational, the query
    becomes beta^(1/k) with beta rational and k = n/e, and beta then has no
    rational prime-order root.  Three ranges of k remain.  k = 1: the root
    is rational, hence a member.
    k = 2: sqrt(beta) has an explicit witness at the conductor f of
    Q(sqrt(beta)) (d when the squarefree part d of beta is 1 mod 4, else
    4d), and Q(zeta_m) contains it iff f divides m, the closed form of the
    Galois-invariance test, decided with no factoring and no witness
    (``_conductor_divides``), so a NO builds nothing.  A YES witness is
    the one ``sqrt_in_cyclotomic`` has checked at f, embedded into
    Q(zeta_m) and not checked again: ``embed`` is a ring map, so its
    square is still beta, and its n-th power is beta^e = alpha by the
    choice of beta.  f is odd or a multiple of 4, so for m = 2 mod 4,
    where Q(zeta_m) = Q(zeta_(m/2)), it divides m iff it divides m/2.
    k >= 3: membership fails for every modulus, because the root would generate a
    non-abelian extension inside an abelian one.  A YES builds its witness
    in Q(zeta_m), so it raises ValueError when m is above
    MAX_MEMBER_MODULUS, or when f is above MAX_WITNESS_MODULUS; a NO builds
    none and has no limit.
    """
    alpha = _check_positive(alpha)
    if n < 1:
        raise ValueError(f"root degree must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")

    e, beta = _root_reduction(alpha, n)
    k = n // e

    if k == 1:
        _check_modulus(m, MAX_MEMBER_MODULUS)
        witness = CycElem.from_rational(m, beta)
        justification = (
            RootJustification.CONSTRUCTED_WITNESS if n == 1 else RootJustification.EXPONENT_REDUCED
        )
        return RootMembershipVerdict(alpha, n, m, True, justification, witness)

    if k == 2:
        if not _conductor_divides(beta, m):
            return RootMembershipVerdict(alpha, n, m, False, RootJustification.GALOIS_INVARIANCE, None)
        _check_modulus(m, MAX_MEMBER_MODULUS)
        witness = sqrt_in_cyclotomic(beta)[1].embed(m)
        return RootMembershipVerdict(alpha, n, m, True, RootJustification.GALOIS_INVARIANCE, witness)

    return RootMembershipVerdict(alpha, n, m, False, RootJustification.THEOREM_1_3, None)


# ----------------------------------------------------------------------
# a worked octic factorization over Q(zeta_8)

def verify_remark_factorization() -> bool:
    """Check x^8 - 2 = (x^4 - s)(x^4 + s) over Q(zeta_8), s = zeta_8 + 1/zeta_8.

    The two quartic factors are conjugate over Q and each is irreducible
    over Q(zeta_8); the identity pins down how x^8 - 2 starts to split in
    the field where sqrt(2) first appears.  Returns True when the exact
    product matches, False otherwise.
    """
    s = zeta_power(8, 1) + zeta_power(8, -1)
    return _poly_mul([-s, 0, 0, 0, 1], [s, 0, 0, 0, 1]) == [-2, 0, 0, 0, 0, 0, 0, 0, 1]
