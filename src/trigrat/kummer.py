"""Binomial irreducibility, Gauss sums and root membership in Q(zeta_m).

The pieces here answer one question from several directions: for positive
rational alpha, which cyclotomic fields contain the real root alpha^(1/n)?

* ``binomial_irreducible`` settles irreducibility of x^n - alpha over Q by
  the radical criterion (no prime-order root of alpha is rational; for
  positive alpha the quartic exception of the general theorem cannot occur).
* ``subset_factorizations`` gives a second opinion with no theory in it:
  over C the monic factors of x^n - alpha are exactly the subset products
  of (x - alpha^(1/n) zeta_n^j); floats nominate subsets whose product
  looks rational, exact division confirms or rejects.
* ``sqrt_in_cyclotomic`` writes sqrt(alpha) at the conductor of
  Q(sqrt(alpha)) in closed form, one combination of roots of unity, and
  checks it once by squaring; ``gauss_sum`` and ``gauss_sum_case_check``
  evaluate the Gauss sums themselves.
* ``nth_root_in_cyclotomic`` combines them into a decision procedure whose
  verdict carries a machine-checkable justification: a square root lies in
  Q(zeta_m) iff its conductor divides m.
* ``meta_group_checks`` verifies the abstract group that acts on the roots:
  pairs (a, c) with composition (a1 + c1 a2, c1 c2) mod n, the semidirect
  product of Z/n by its unit group.
"""

from __future__ import annotations

import cmath
import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

from .cyclotomic import CycElem, root_combination, zeta_power
from .numtheory import (
    _check_positive,
    divisors,
    format_rational,
    nth_root_rational,
    radical_condition,
    squarefree_decompose,
)
from .polynomials import RatPoly, _poly_mul

Scalar = Union[int, Fraction]

# proposed rational coefficients are only trusted after exact division;
# the cap just has to exceed every denominator a true factor can carry
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
    complete.  Floating point only nominates candidates: a subset counts
    only when the exactly reconstructed polynomial divides x^n - alpha
    with zero remainder.  Intended for small n (the scan is exponential).
    """
    alpha = _check_positive(alpha)
    if not 2 <= n <= 12:
        raise ValueError(f"subset scan supports 2 <= n <= 12, got {n}")
    rho = float(alpha) ** (1.0 / n)
    roots = [rho * cmath.exp(2j * cmath.pi * j / n) for j in range(n)]
    target = RatPoly.monomial(n) - alpha
    found: list[SubsetFactor] = []
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            coeffs = [complex(1.0)]
            for j in subset:
                root = roots[j]
                coeffs = [0j] + coeffs
                for k in range(len(coeffs) - 1):
                    coeffs[k] -= root * coeffs[k + 1]
            if any(abs(c.imag) > _IMAG_TOLERANCE for c in coeffs):
                continue
            candidate = RatPoly(
                Fraction(c.real).limit_denominator(_RECONSTRUCT_DENOMINATOR_CAP)
                for c in coeffs
            )
            quotient, remainder = divmod(target, candidate)
            if remainder.is_zero():
                found.append(SubsetFactor(frozenset(subset), candidate, quotient))
    return found


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


def meta_group_checks(n: int) -> GroupReport:
    """Enumerate the full group for one n and verify the group axioms, the
    order n * phi(n), and the defining relation tau_c sigma = sigma^c tau_c.

    Axiom failures raise RuntimeError (they would mean the composition rule
    is wrong, not that the group is exotic); the report carries the facts a
    caller may want to compare across n, in particular that the group is
    abelian exactly for n = 2.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
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
    as an exact element of Q(zeta_m)."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    return root_combination(m, [(k * k, 1) for k in range(m)])


def gauss_sum_case_check(m: int) -> bool:
    """Verify the classical evaluation of g(m) for one modulus, exactly.

    By residue of m mod 4 the sum equals (1+i)*sqrt(m), sqrt(m), 0, or
    i*sqrt(m).  Squaring removes the square root, so each case is an exact
    identity in Q(zeta_m): g^2 = 2m*i, m, 0, -m respectively (i = zeta_4 is
    available inside Q(zeta_m) whenever 4 divides m).  A float comparison
    against the signed root double-checks that the sign conventions match.
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
    witness * witness == alpha; the numeric value confirms the positive
    root.
    """
    alpha = _check_positive(alpha)
    r, d = squarefree_decompose(alpha)
    modulus = _quadratic_conductor(d)
    odd = d if d % 2 else d // 2
    stride = modulus // odd
    shifts = (modulus // 8, -(modulus // 8)) if d % 2 == 0 else (0,)
    s = -(modulus // 4) if odd % 4 == 3 else 0
    terms = [(stride * k * k + t + s, r.numerator) for k in range(odd) for t in shifts]
    witness = root_combination(modulus, terms, r.denominator)
    if (witness * witness).as_rational() != alpha:
        raise ArithmeticError(f"witness square mismatch for alpha = {alpha}")
    numeric = witness.numeric_eval()
    if abs(numeric.imag) > 1e-9 or numeric.real <= 0:
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


def nth_root_in_cyclotomic(alpha: Scalar, n: int, m: int) -> RootMembershipVerdict:
    """Decide whether the positive real n-th root of alpha lies in Q(zeta_m).

    The exponent is first reduced: with e the largest divisor of n for which
    alpha^(1/e) is rational, the query becomes beta^(1/k) with beta rational
    and k = n/e, and beta then has no rational prime-order root.  Three
    ranges of k remain.  k = 1: the root is rational, hence a member.
    k = 2: sqrt(beta) has an explicit witness at the conductor f of
    Q(sqrt(beta)) (d when the squarefree part d of beta is 1 mod 4, else
    4d), and Q(zeta_m) contains it iff f divides m, the closed form of the
    Galois-invariance test.  f follows from d alone, so a NO builds no
    witness.  A YES witness is the one ``sqrt_in_cyclotomic`` has checked
    at f, embedded into Q(zeta_m) and not checked again: ``embed`` is a
    ring map, so its square is still beta, and its n-th power is
    beta^e = alpha by the choice of beta.  f is odd or a multiple of 4,
    so for m = 2 mod 4, where Q(zeta_m) = Q(zeta_(m/2)), it divides m iff
    it divides m/2.  k >= 3:
    membership fails for every modulus, because the root would generate a
    non-abelian extension inside an abelian one.
    """
    alpha = _check_positive(alpha)
    if n < 1:
        raise ValueError(f"root degree must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")

    e = next(d for d in reversed(divisors(n)) if nth_root_rational(alpha, d) is not None)
    beta = nth_root_rational(alpha, e)
    k = n // e

    if k == 1:
        witness = CycElem.from_rational(m, beta)
        justification = (
            RootJustification.CONSTRUCTED_WITNESS if n == 1 else RootJustification.EXPONENT_REDUCED
        )
        return RootMembershipVerdict(alpha, n, m, True, justification, witness)

    if k == 2:
        if m % _quadratic_conductor(squarefree_decompose(beta)[1]):
            return RootMembershipVerdict(alpha, n, m, False, RootJustification.GALOIS_INVARIANCE, None)
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
