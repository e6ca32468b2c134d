"""Binomial irreducibility, Gauss sums and root membership in Q(zeta_m).

The pieces here answer one question from several directions: for positive
rational alpha, which cyclotomic fields contain the real root alpha^(1/n)?

* ``binomial_irreducible`` settles irreducibility of x^n - alpha over Q by
  the radical criterion (no prime-order root of alpha is rational; for
  positive alpha the quartic exception of the general theorem cannot occur).
* ``subset_factorizations`` gives a second opinion with no theory in it:
  over C the monic factors of x^n - alpha are exactly the subset products
  of (x - alpha^(1/n) zeta_n^j), and a rational factor's subset is closed
  under conjugation j -> n - j.  A factor of degree s has a constant term
  c0 with c0^n = (-1)^(n*s) * alpha^s, so s must be a size at which
  alpha^s has a rational n-th root; these are read off alpha first, and
  when no size in 1..n-1 admits one the scan stops there with no float
  work.  Otherwise a depth-first walk builds only the closed subsets (126
  of the 4094 proper ones at n = 12), each float product from its
  parent's in O(n), and nominates the products that look real; a
  candidate is divided only if its rebuilt c0 passes that test, and no c0
  is rebuilt at any other size.  Exact division confirms or rejects.
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
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, isqrt
from typing import Union

from .cyclotomic import CycElem, root_combination, zeta_power
from .numtheory import (
    _check_positive,
    _squarefree_part,
    divisors,
    euler_phi,
    format_rational,
    nth_root_rational,
    radical_condition,
)
from .polynomials import RatPoly, _poly_mul

Scalar = Union[int, Fraction]

# proposed rational coefficients are only trusted after exact division; the cap
# is below some true factors' denominators (x - 1/1009^2 divides x^2 - 1/1009^4)
_RECONSTRUCT_DENOMINATOR_CAP = 10 ** 6
_IMAG_TOLERANCE = 1e-6


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


@dataclass(frozen=True)
class SubsetFactor:
    """A verified factorization x^n - alpha = factor * cofactor where factor
    is the subset product over the root indices in ``subset``."""

    subset: frozenset[int]
    factor: RatPoly
    cofactor: RatPoly


def subset_factorizations(alpha: Scalar, n: int) -> list[SubsetFactor]:
    """All monic rational factors of x^n - alpha of degree 1..n-1, located
    by brute force over subsets of the complex roots.

    Every monic factor over Q is a subset product of the roots
    alpha^(1/n) * zeta_n^j, so scanning all 2^n - 2 proper subsets is
    complete.  A monic divisor of degree s has s roots r with r^n = alpha,
    so its constant term c0 = (-1)^s * (their product) has
    c0^n = (-1)^(n*s) * alpha^s, and a rational c0 of that kind exists only
    when alpha^s has a rational n-th root.  The scan first reads those sizes
    off alpha (``_constant_term_sizes``) and returns [] when there are none,
    before it computes a root or walks a subset.  Otherwise it walks: a
    rational factor is real, so its set of root indices is closed under
    complex conjugation j -> n - j, and the walk builds only closed
    subsets: it takes or skips each j <= n/2 and takes j > n/2 with n - j.
    The walk goes depth first, adding root indices in increasing order, so
    a subset's float product is its parent's times one linear factor:
    O(size) work per subset, not O(size^2), and the same float operations
    in the same order as multiplying the subset out from scratch.  Only
    closed subsets whose product has all imaginary parts within
    ``_IMAG_TOLERANCE`` are kept, in ``itertools.combinations`` order.
    Floating point only nominates candidates: a subset counts only when the
    exactly reconstructed polynomial divides x^n - alpha with zero
    remainder.  Before that division the reconstructed constant term c0 is
    checked alone against c0^n = (-1)^(n*s) * alpha^s; a candidate that
    fails is no divisor, so the check drops no factor and skips most
    divisions, and at a size outside the admissible ones no constant term
    is rebuilt at all.  The walk builds 446 partial products at n = 12 and
    222 at n = 11, the 126 and 62 closed subsets among them, against
    2^n - 2, and is meant for small n.  ValueError when alpha lies outside
    the positive normal float range, where its roots cannot be computed.
    """
    alpha = _check_positive(alpha)
    if not 2 <= n <= 12:
        raise ValueError(f"subset scan supports 2 <= n <= 12, got {n}")
    try:
        magnitude = float(alpha)
    except OverflowError:
        magnitude = inf
    if not sys.float_info.min <= magnitude <= sys.float_info.max:
        raise ValueError("alpha is outside the float range the subset scan works in")
    sizes = _constant_term_sizes(alpha, n)
    if not sizes:
        return []
    rho = magnitude ** (1.0 / n)
    roots = [rho * cmath.exp(2j * cmath.pi * j / n) for j in range(n)]
    target = RatPoly.monomial(n) - alpha
    constant_powers = {size: (-1) ** (n * size) * alpha ** size for size in sizes}
    found: list[SubsetFactor] = []
    for subset, coeffs in _real_subset_products(roots):
        constant = constant_powers.get(len(subset))
        if constant is None:
            continue
        c0 = Fraction(coeffs[0].real).limit_denominator(_RECONSTRUCT_DENOMINATOR_CAP)
        if c0 ** n != constant:
            continue
        candidate = RatPoly(
            [c0] + [Fraction(c.real).limit_denominator(_RECONSTRUCT_DENOMINATOR_CAP) for c in coeffs[1:]]
        )
        quotient, remainder = divmod(target, candidate)
        if remainder.is_zero():
            found.append(SubsetFactor(frozenset(subset), candidate, quotient))
    return found


def _rational_root_degree(alpha: Fraction, n: int) -> int:
    """The largest divisor e of n for which alpha is a rational e-th power."""
    return next(d for d in reversed(divisors(n)) if nth_root_rational(alpha, d) is not None)


def _constant_term_sizes(alpha: Fraction, n: int) -> range:
    """The sizes s in 1..n-1 at which alpha^s has a rational n-th root, the
    only degrees at which a monic rational divisor of x^n - alpha can have
    its constant term.

    For reduced alpha a prime's exponent in alpha^s is s times its exponent
    in alpha, so alpha^s is a rational n-th power iff alpha is a rational
    (n/gcd(s, n))-th power.  The divisors of n at which alpha is a rational
    power are the divisors of the largest one, e, so the sizes are the
    multiples of n/e below n: none when e = 1."""
    step = n // _rational_root_degree(alpha, n)
    return range(step, n, step)


def _real_subset_products(roots: list[complex]) -> list[tuple[tuple[int, ...], list[complex]]]:
    """(subset, coefficients of the product of x - roots[j] over j in subset)
    for the proper nonempty subsets closed under conjugation j -> n - j
    whose product looks real, in ``itertools.combinations`` order (size
    first, then lexicographic).

    Depth first over j = 0, 1, ..., n - 1: each j <= n/2 is taken or
    skipped, and each j > n/2 is taken iff its partner n - j was, so only
    closed subsets are built, 2^(n//2 + 1) - 2 of them.  Taking j
    multiplies the parent's coefficients by x - roots[j], so each subset's
    product is built from the same chain of parents, in increasing index
    order, as multiplying it out from scratch would."""
    n = len(roots)
    passing = []

    def walk(subset, coeffs, j):
        if j == n:
            if subset and all(abs(c.imag) <= _IMAG_TOLERANCE for c in coeffs):
                passing.append((subset, coeffs))
            return
        free = 2 * j <= n  # else j is taken iff its partner n - j was
        taken = free or n - j in subset
        if free or not taken:
            walk(subset, coeffs, j + 1)
        if taken and len(subset) < n - 1:  # the full set is not proper
            root = roots[j]
            # (x - root) * coeffs, as the in-place update coeffs[k] -= root * coeffs[k + 1]
            # of [0] + coeffs would compute it
            child = [0j - root * coeffs[0]]
            child += [a - root * b for a, b in zip(coeffs, coeffs[1:])]
            child.append(coeffs[-1])
            walk(subset + (j,), child, j + 1)

    walk((), [complex(1.0)], 0)
    passing.sort(key=lambda entry: (len(entry[0]), entry[0]))
    return passing


def subset_unity_product(n: int, subset: frozenset[int]) -> CycElem:
    """The product of zeta_n^j over j in subset, as an element of Q(zeta_n).

    For a subset whose root product is a rational polynomial the constant
    term forces this product to be +1 or -1 (its modulus-one rational
    multiple is the only way the irrational phases can cancel).
    """
    return zeta_power(n, sum(subset))


# ----------------------------------------------------------------------
# the metacyclic group acting on the roots

@dataclass(frozen=True)
class MetaGaloisElem:
    """A symbol sigma^a tau_c acting on the root set of x^n - alpha:
    sigma multiplies the chosen root by zeta_n, tau_c raises zeta_n to c."""

    n: int
    a: int
    c: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not 0 <= self.a < self.n:
            raise ValueError(f"a must lie in [0, {self.n}), got {self.a}")
        if not 1 <= self.c < self.n:
            raise ValueError(f"c must lie in [1, {self.n}), got {self.c}")
        if gcd(self.c, self.n) != 1:
            raise ValueError(f"c = {self.c} is not a unit mod {self.n}")

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


@dataclass(frozen=True)
class GroupReport:
    """Summary of the sanity run over one semidirect product."""

    n: int
    order: int
    abelian: bool
    relation_holds: bool


# The largest group order n * phi(n) ``meta_group_checks`` enumerates.  The
# associativity check is cubic in the order: n = 30 (order 240) takes
# 0.5 s and n = 36 (order 432, the largest n within the limit) 2.9 s, in
# process on a 2-core Xeon with Python 3.11; n = 60 (order 960) would take
# over 25 s.
MAX_GROUP_ORDER = 480


def _check_group_order(n: int) -> None:
    """ValueError for n < 2, or when the group ``meta_group_checks(n)``
    enumerates, of order n * phi(n), is above MAX_GROUP_ORDER."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
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


@dataclass(frozen=True)
class RootMembershipVerdict:
    """Answer to 'is the positive real alpha^(1/n) an element of Q(zeta_m)?'

    ``witness`` is the root written in the power basis of Q(zeta_m) whenever
    the answer is yes, so the verdict can be re-verified by raising the
    witness to the n-th power.
    """

    alpha: Fraction
    n: int
    modulus: int
    member: bool
    justification: RootJustification
    witness: CycElem | None

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

    The exponent is first reduced: with e the largest divisor of n for which
    alpha^(1/e) is rational, the query becomes beta^(1/k) with beta rational
    and k = n/e, and beta then has no rational prime-order root.  Three
    ranges of k remain.  k = 1: the root is rational, hence a member.
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

    e = _rational_root_degree(alpha, n)
    beta = nth_root_rational(alpha, e)
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
