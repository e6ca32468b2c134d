"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

An element is a coordinate vector in the power basis 1, z, ..., z^(phi(m)-1)
where z = zeta_m = exp(2*pi*i/m), reduced modulo the m-th cyclotomic
polynomial.  Phi_m is irreducible over Q, so the representation is canonical:
two elements of the same modulus are equal iff their coordinates are equal.

Internally an element stores integer numerators over one common positive
denominator (with overall content 1); the public ``coeffs`` view is a tuple
of ``Fraction``, which ``to_json`` and ``numeric_eval`` do without.
Products, Galois images, embeddings and sums of roots of unity lay their
terms out as integer coefficients of powers of z and reduce once, through
``_reduce``: exponents mod m, then the remainder modulo the monic integer
Phi_m (``trig`` decides whether a power is rational by p-gon moves, not
here).  Phi_m is Phi_R(x^(m/R)) for R the radical of m.  Phi_r, for r the
odd radical (the radical of m's odd part), is built one binomial x^k - 1
at a time, each multiplied in or divided out exactly in linear time
(Arnold & Monagan, Math. Comp. 80, 2011); for even m, R = 2r and
Phi_2r(x) = Phi_r(-x), or x + 1 when r = 1, so the prime 2 adds no
binomial.  Only Phi_m's nonzero tail is cached, for the moduli used last
and up to a number of (j, c) pairs over all of them
(``_cyclotomic_divisor``).  The polynomial arithmetic itself (the
convolution, the monic long division and square-and-multiply) is the
shared kernel of ``polynomials``; ``minimal_polynomial`` runs the same
convolution with ``CycElem`` coefficients.  The table of reduced powers of
z (``_power_table``) has no reader in the library: it is an independent
oracle for the tests, and the span tracer of ``perfbench`` records the
moduli it is built for.  Floating point enters only in
:meth:`CycElem.numeric_eval`, which is for sanity checks and never decides
anything.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from math import gcd
from operator import add, sub
from typing import Iterable, Union

from .numtheory import euler_phi, prime_divisors
from .polynomials import RatPoly, _divide_monic, _format_terms, _monic_tail, _poly_mul, _power

Scalar = Union[int, Fraction]


# ----------------------------------------------------------------------
# cyclotomic polynomials (integer arithmetic throughout)

def _cyclotomic_int_coeffs(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, constant term first.

    With r the odd radical of m (the product of its odd primes), Phi_r is
    the Moebius product of the binomials x^(r/d) - 1 over the d | r, with
    exponent mu(d) = (-1)^|S| for d the product of a set S of those
    primes.  For even m, Phi_2r(x) = Phi_r(-x) when r > 1 and Phi_2 is
    x + 1, so the prime 2 adds no binomial and every even modulus costs
    half the steps.  Then Phi_m(x) = Phi_R(x^(m/R)) for R = rad(m), that
    is r or 2r.  Each binomial costs linear time (Arnold & Monagan,
    "Calculating cyclotomic polynomials", Math. Comp. 80, 2011):
    multiplying by x^k - 1 is a shift and a subtraction, and dividing by
    it runs q[i] = q[i-k] - num[i] up from the constant term, along each
    residue class mod k when k is small, else one block of k at a time.
    Run over the whole numerator, the recurrence ends in k zeros exactly
    when the division is exact; anything else raises ``ArithmeticError``.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    odd = m // (m & -m)
    signed = [(1, 1)]  # (d, mu(d)) over the squarefree divisors d of odd
    for p in prime_divisors(odd):
        signed += [(d * p, -mu) for d, mu in signed]
    r = signed[-1][0]
    coeffs = [1]
    for d, mu in signed:
        if mu == 1:
            k = r // d
            coeffs = list(map(sub, [0] * k + coeffs, coeffs + [0] * k))
    for d, mu in signed:
        if mu == -1:
            k = r // d
            q = [-c for c in coeffs]
            if k * k < len(q):
                for j in range(k):
                    q[j::k] = accumulate(q[j::k])
            else:
                for i in range(k, len(q), k):
                    q[i:i + k] = map(add, q[i - k:i], q[i:i + k])
            n = len(q) - k
            if n < 1 or any(q[n:]):
                raise ArithmeticError("inexact polynomial division")
            coeffs = q[:n]
    if odd < m:
        if r == 1:
            coeffs = [1, 1]
        else:
            coeffs[1::2] = [-c for c in coeffs[1::2]]
        r *= 2
    stride = m // r
    spread = [0] * (stride * (len(coeffs) - 1) + 1)
    spread[::stride] = coeffs
    return tuple(spread)


# The (j, c) pairs of tails that ``_cyclotomic_divisor`` keeps, over all
# moduli: about 3 MB at some 90 bytes a pair.  A benchmark child asks for at
# most about 3400 (the 50 moduli M < 800 of a cold-classify batch), while
# the tail of Phi_M at q near 10^4 alone has about 10^4.
_DIVISOR_PAIRS = 2 ** 15
_divisors: dict[int, tuple[int, tuple]] = {}  # modulus -> (phi, tail), least recently used first
_divisor_pairs = 0  # the pairs _divisors holds


def _cyclotomic_divisor(m: int) -> tuple[int, tuple]:
    """Phi_m as the long division reads it: its degree phi(m) and its
    nonzero lower coefficients (see ``polynomials._monic_tail``).  The
    tails used last are kept, _DIVISOR_PAIRS pairs at most; a tail longer
    than that is rebuilt whenever it is asked for."""
    global _divisor_pairs
    divisor = _divisors.pop(m, None)
    if divisor is None:
        divisor = _monic_tail(_cyclotomic_int_coeffs(m))
        size = len(divisor[1])
        if size > _DIVISOR_PAIRS:
            return divisor
        _divisor_pairs += size
        while _divisor_pairs > _DIVISOR_PAIRS:
            _divisor_pairs -= len(_divisors.pop(next(iter(_divisors)))[1])
    _divisors[m] = divisor
    return divisor


def _reduce(m: int, coeffs: list[int]) -> list[int]:
    """Power-basis coordinates of sum(coeffs[k] * zeta_m^k).

    The single reduction kernel of ``CycElem`` (trig values and witnesses
    included; ``trig`` decides powers without it): exponents are folded mod m
    (zeta_m^m = 1) and, for even m, mod m/2 with a sign (zeta_m^(m/2) = -1);
    then the remainder modulo the monic Phi_m is taken.  The folds only
    shorten the long division.  ``coeffs`` needs at least phi(m) entries
    and is overwritten.
    """
    if len(coeffs) > m:
        folded = coeffs[:m]
        for start in range(m, len(coeffs), m):
            block = coeffs[start:start + m]
            folded[:len(block)] = map(add, folded, block)
        coeffs = folded
    half = m // 2
    if m % 2 == 0 and len(coeffs) > half:
        top = coeffs[half:]
        del coeffs[half:]
        coeffs[:len(top)] = map(sub, coeffs, top)
    phi, tail = _cyclotomic_divisor(m)
    _divide_monic(coeffs, phi, tail)
    return coeffs[:phi]


def cyclotomic_polynomial(m: int) -> RatPoly:
    """The m-th cyclotomic polynomial: monic, integer, degree phi(m)."""
    return RatPoly(_cyclotomic_int_coeffs(m))


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[int, ...], ...]:
    """Coordinates of zeta_m^k for 0 <= k < max(m, 2*phi(m) - 1).

    Row k is the integer coordinate vector of z^k in the power basis, built
    by the recurrence z^(k+1) = z * z^k.  No library code reads it: the
    tests check ``_reduce`` and descend into subfields with it, and
    ``perfbench/tracer.py`` wraps it to record the moduli it is built for.
    """
    phi_coeffs = _cyclotomic_int_coeffs(m)
    phi = len(phi_coeffs) - 1
    neg_tail = tuple(-c for c in phi_coeffs[:phi])  # z^phi = sum(neg_tail[i] * z^i)
    size = max(m, 2 * phi - 1)
    rows: list[tuple[int, ...]] = []
    for k in range(min(phi, size)):
        rows.append(tuple(1 if i == k else 0 for i in range(phi)))
    for k in range(phi, size):
        prev = rows[k - 1]
        top = prev[phi - 1]
        shifted = (0,) + prev[: phi - 1]
        if top:
            rows.append(tuple(s + top * t for s, t in zip(shifted, neg_tail)))
        else:
            rows.append(shifted)
    return tuple(rows)


# ----------------------------------------------------------------------
# field elements

class CycElem:
    """An element of Q(zeta_m) in canonical power-basis coordinates."""

    __slots__ = ("modulus", "_nums", "_den")

    def __init__(self, modulus: int, coeffs: Iterable[Scalar]):
        cs = [Fraction(c) for c in coeffs]
        phi = euler_phi(modulus)
        if len(cs) != phi:
            raise ValueError(f"need exactly phi({modulus}) = {phi} coordinates, got {len(cs)}")
        den = reduce(lambda acc, c: acc * c.denominator // gcd(acc, c.denominator), cs, 1)
        nums = [int(c * den) for c in cs]
        object.__setattr__(self, "modulus", modulus)
        self._store(nums, den)

    def __setattr__(self, name, value):
        raise AttributeError("CycElem is immutable")

    def __reduce__(self):
        return (CycElem, (self.modulus, self.coeffs))

    def _store(self, nums: list[int], den: int) -> None:
        if den < 0:
            nums = [-a for a in nums]
            den = -den
        g = gcd(den, *nums)
        if g > 1:
            nums = [a // g for a in nums]
            den //= g
        if not any(nums):
            den = 1
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", den)

    @classmethod
    def _raw(cls, modulus: int, nums: list[int], den: int) -> "CycElem":
        elem = object.__new__(cls)
        object.__setattr__(elem, "modulus", modulus)
        elem._store(nums, den)
        return elem

    @classmethod
    def from_rational(cls, modulus: int, value: Scalar) -> "CycElem":
        value = Fraction(value)
        phi = euler_phi(modulus)
        return cls._raw(modulus, [value.numerator] + [0] * (phi - 1), value.denominator)

    @classmethod
    def zero(cls, modulus: int) -> "CycElem":
        return cls.from_rational(modulus, 0)

    @classmethod
    def one(cls, modulus: int) -> "CycElem":
        return cls.from_rational(modulus, 1)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self._den) for a in self._nums)

    def is_zero(self) -> bool:
        return not any(self._nums)

    # -- equality is representation equality: same modulus, same coordinates.
    # Elements of different moduli compare unequal even when they denote the
    # same complex number; embed both into a common modulus to compare values.

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self.modulus, self._nums, self._den) == (other.modulus, other._nums, other._den)

    def __hash__(self) -> int:
        return hash((self.modulus, self._nums, self._den))

    def _coerce(self, other) -> "CycElem | None":
        if isinstance(other, CycElem):
            return other
        if isinstance(other, (int, Fraction)):
            return CycElem.from_rational(self.modulus, other)
        return None

    def _check_same_field(self, other: "CycElem") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"modulus mismatch ({self.modulus} vs {other.modulus}); embed into a common modulus first"
            )

    def __add__(self, other) -> "CycElem":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_same_field(other)
        da, db = self._den, other._den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        nums = [a * ma + b * mb for a, b in zip(self._nums, other._nums)]
        return CycElem._raw(self.modulus, nums, da * ma)

    __radd__ = __add__

    def __neg__(self) -> "CycElem":
        return CycElem._raw(self.modulus, [-a for a in self._nums], self._den)

    def __sub__(self, other) -> "CycElem":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CycElem":
        return (-self) + other

    def __mul__(self, other) -> "CycElem":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_same_field(other)
        out = _reduce(self.modulus, _poly_mul(self._nums, other._nums))
        return CycElem._raw(self.modulus, out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CycElem":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "CycElem":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "CycElem":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, CycElem.one(self.modulus))

    def inverse(self) -> "CycElem":
        """Multiplicative inverse: the reciprocal of a rational x, else via
        the Galois norm: with cofactor the product of sigma_c(x) over the
        units c != 1 mod m, the norm N(x) = x * cofactor is a nonzero
        rational and 1/x = cofactor / N(x)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        m = self.modulus
        value = self.as_rational()
        if value is not None:
            return CycElem.from_rational(m, 1 / value)
        cofactor = CycElem.one(m)
        for c in range(2, m):
            if gcd(c, m) == 1:
                cofactor = cofactor * self.galois_apply(c)
        norm = (self * cofactor).as_rational()
        if norm is None:
            raise ArithmeticError("Galois norm is not rational")
        return cofactor * (1 / norm)

    def galois_apply(self, c: int) -> "CycElem":
        """Image under the automorphism zeta_m -> zeta_m^c (needs gcd(c, m) = 1)."""
        m = self.modulus
        c %= m
        if gcd(c, m) != 1:
            raise ValueError(f"galois_apply needs gcd(c, m) = 1, got c = {c}, m = {m}")
        return root_combination(m, ((i * c, a) for i, a in enumerate(self._nums)), self._den)

    def as_rational(self) -> Fraction | None:
        """The exact rational value if all coordinates of index >= 1 vanish.

        Sound and complete: the power basis is a Q-basis, so an element is
        rational iff it has no component along z, ..., z^(phi-1).
        """
        if any(self._nums[1:]):
            return None
        return Fraction(self._nums[0], self._den)

    def embed(self, new_modulus: int) -> "CycElem":
        """Re-express in Q(zeta_M) for a multiple M of the modulus, via
        zeta_m = zeta_M^(M/m).  The represented number is unchanged."""
        m = self.modulus
        if new_modulus % m != 0:
            raise ValueError(f"cannot embed modulus {m} into non-multiple {new_modulus}")
        if new_modulus == m:
            return self
        stride = new_modulus // m
        terms = ((i * stride, a) for i, a in enumerate(self._nums))
        return root_combination(new_modulus, terms, self._den)

    def numeric_eval(self) -> complex:
        """Floating-point value (sanity checks only; never used for verdicts)."""
        m = self.modulus
        return sum(
            (a / self._den * cmath.exp(2j * cmath.pi * k / m) for k, a in enumerate(self._nums) if a),
            complex(0),
        )

    def to_json(self) -> dict:
        """Coordinates as reduced fractions a/b, or a when b = 1: the strings
        ``str(Fraction)`` prints, written from the integer numerators, each
        distinct one once."""
        den = self._den
        text = {}
        for a in set(self._nums):
            g = gcd(a, den)
            text[a] = str(a // g) if g == den else f"{a // g}/{den // g}"
        return {"modulus": self.modulus, "coeffs": list(map(text.__getitem__, self._nums))}

    @classmethod
    def from_json(cls, data: dict) -> "CycElem":
        return cls(data["modulus"], [Fraction(c) for c in data["coeffs"]])

    def __str__(self) -> str:
        return _format_terms(enumerate(self.coeffs), f"z{self.modulus}")

    def __repr__(self) -> str:
        return f"CycElem(m={self.modulus}, {self})"


def zeta_power(m: int, k: int) -> CycElem:
    """The element zeta_m^(k mod m), reduced into the power basis."""
    return root_combination(m, [(k, 1)])


def zeta(m: int) -> CycElem:
    return zeta_power(m, 1)


def root_combination(m: int, terms: Iterable[tuple[int, int]], den: int = 1) -> CycElem:
    """The element sum(c * zeta_m^k for k, c in terms) / den.

    ``terms`` holds (exponent, integer coefficient) pairs; exponents are
    taken mod m and repeated ones add up.  The whole combination is reduced
    modulo Phi_m once, so no intermediate field element is built.
    ValueError for m < 1.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    out = [0] * m
    for k, c in terms:
        out[k % m] += c
    return CycElem._raw(m, _reduce(m, out), den)


def minimal_polynomial(x: CycElem) -> RatPoly:
    """Monic minimal polynomial of x over Q.

    Computed as the product of (t - y) over the distinct images y of x under
    the full Galois group of Q(zeta_m); the orbit is the complete conjugate
    set, so the product is irreducible over Q by construction.
    """
    m = x.modulus
    orbit: list[CycElem] = []
    for c in range(1, m + 1):
        if gcd(c, m) == 1:
            y = x.galois_apply(c)
            if y not in orbit:
                orbit.append(y)
    one = CycElem.one(m)
    poly = [one]
    for y in orbit:
        poly = _poly_mul(poly, [-y, one])
    rationals = [c.as_rational() for c in poly]
    if any(r is None for r in rationals):
        raise ArithmeticError("orbit product has an irrational coefficient")
    return RatPoly(rationals)
