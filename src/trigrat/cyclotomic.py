"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

An element is a coordinate vector in the power basis 1, z, ..., z^(phi(m)-1)
where z = zeta_m = exp(2*pi*i/m), reduced modulo the m-th cyclotomic
polynomial.  Phi_m is irreducible over Q, so the representation is canonical:
two elements of the same modulus are equal iff their coordinates are equal.

Internally an element stores integer numerators over one common positive
denominator (with overall content 1); the public ``coeffs`` view is a tuple
of ``Fraction``.  Products, Galois images, embeddings and sums of roots of
unity lay their terms out as integer coefficients of powers of z and reduce
once, through ``_reduce``: exponents mod m, then the remainder modulo the
monic integer Phi_m.  The table of reduced powers of z (``_power_table``)
is an independent oracle for tests.  Floating point enters only in
:meth:`CycElem.numeric_eval`, which is for sanity checks and never decides
anything.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd
from typing import Iterable, Sequence, Union

from .numtheory import divisors, euler_phi, mobius
from .polynomials import RatPoly

Scalar = Union[int, Fraction]


# ----------------------------------------------------------------------
# cyclotomic polynomials (integer arithmetic throughout)

def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b_terms:
                out[i + j] += x * y
    return out


def _divide_monic(num: list[int], den: Sequence[int]) -> list[int]:
    """Long division by the monic integer polynomial ``den``, over its
    nonzero coefficients only.  Returns the quotient and leaves the
    remainder in ``num[:len(den) - 1]`` (``num`` is overwritten)."""
    d = len(den) - 1
    tail = [(j, c) for j, c in enumerate(den[:d]) if c]
    quotient = [0] * max(len(num) - d, 0)
    for k in range(len(num) - 1, d - 1, -1):
        c = num[k]
        if c:
            base = k - d
            quotient[base] = c
            for j, t in tail:
                num[base + j] -= c * t
    return quotient


@lru_cache(maxsize=None)
def _cyclotomic_int_coeffs(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m via the Moebius product
    Phi_m(x) = prod over d | m of (x^(m/d) - 1)^mobius(d)."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    num: list[int] = [1]
    den: list[int] = [1]
    for d in divisors(m):
        mu = mobius(d)
        if mu == 0:
            continue
        binomial = [-1] + [0] * (m // d - 1) + [1]
        if mu == 1:
            num = _int_mul(num, binomial)
        else:
            den = _int_mul(den, binomial)
    quotient = _divide_monic(num, den)
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return tuple(quotient)


def _reduce(m: int, coeffs: list[int]) -> list[int]:
    """Power-basis coordinates of sum(coeffs[k] * zeta_m^k).

    The single reduction kernel of the module: exponents are folded mod m
    (zeta_m^m = 1) and, for even m, mod m/2 with a sign (zeta_m^(m/2) = -1);
    then the remainder modulo the monic Phi_m is taken.  The folds only
    shorten the long division.  ``coeffs`` needs at least phi(m) entries
    and is overwritten.
    """
    if len(coeffs) > m:
        folded = coeffs[:m]
        for k in range(m, len(coeffs)):
            folded[k % m] += coeffs[k]
        coeffs = folded
    if m % 2 == 0:
        half = m // 2
        for k in range(half, len(coeffs)):
            coeffs[k - half] -= coeffs[k]
        del coeffs[half:]
    phi_coeffs = _cyclotomic_int_coeffs(m)
    _divide_monic(coeffs, phi_coeffs)
    return coeffs[: len(phi_coeffs) - 1]


def cyclotomic_polynomial(m: int) -> RatPoly:
    """The m-th cyclotomic polynomial: monic, integer, degree phi(m)."""
    return RatPoly(_cyclotomic_int_coeffs(m))


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[int, ...], ...]:
    """Coordinates of zeta_m^k for 0 <= k < max(m, 2*phi(m) - 1).

    Row k is the integer coordinate vector of z^k in the power basis, built
    by the recurrence z^(k+1) = z * z^k.  A test oracle for ``_reduce``; of
    the library only ``express_in_submodulus`` reads it.
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
        g = gcd(den, reduce(gcd, nums, 0))
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
        out = _reduce(self.modulus, _int_mul(self._nums, other._nums))
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
        result = CycElem.one(self.modulus)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "CycElem":
        """Multiplicative inverse via the Galois norm: with cofactor the
        product of sigma_c(x) over the units c != 1 mod m, the norm
        N(x) = x * cofactor is a nonzero rational and 1/x = cofactor / N(x)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in a cyclotomic field")
        m = self.modulus
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

    def conjugate(self) -> "CycElem":
        """Complex conjugation (the automorphism c = m - 1; identity for m <= 2)."""
        if self.modulus <= 2:
            return self
        return self.galois_apply(self.modulus - 1)

    def is_real(self) -> bool:
        return self.conjugate() == self

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
            (float(Fraction(a, self._den)) * cmath.exp(2j * cmath.pi * k / m) for k, a in enumerate(self._nums) if a),
            complex(0),
        )

    def to_json(self) -> dict:
        return {"modulus": self.modulus, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "CycElem":
        return cls(data["modulus"], [Fraction(c) for c in data["coeffs"]])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = f"z{self.modulus}" if k == 1 else f"z{self.modulus}^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

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
    """
    out = [0] * m
    for k, c in terms:
        out[k % m] += c
    return CycElem._raw(m, _reduce(m, out), den)


# ----------------------------------------------------------------------
# polynomials over a cyclotomic field

class CycPoly:
    """A univariate polynomial with CycElem coefficients (constant first)."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs: Iterable[Union[CycElem, Scalar]] = ()):
        cs = []
        for c in coeffs:
            if isinstance(c, CycElem):
                if c.modulus != modulus:
                    raise ValueError("coefficient modulus mismatch")
                cs.append(c)
            else:
                cs.append(CycElem.from_rational(modulus, c))
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("CycPoly is immutable")

    def __reduce__(self):
        return (CycPoly, (self.modulus, self.coeffs))

    @classmethod
    def from_ratpoly(cls, poly: RatPoly, modulus: int) -> "CycPoly":
        return cls(modulus, poly.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> CycElem:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return CycElem.zero(self.modulus)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycPoly):
            return NotImplemented
        return self.modulus == other.modulus and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.modulus, self.coeffs))

    def __add__(self, other: "CycPoly") -> "CycPoly":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        n = max(len(self.coeffs), len(other.coeffs))
        return CycPoly(self.modulus, [self[k] + other[k] for k in range(n)])

    def __neg__(self) -> "CycPoly":
        return CycPoly(self.modulus, [-c for c in self.coeffs])

    def __sub__(self, other: "CycPoly") -> "CycPoly":
        return self + (-other)

    def __mul__(self, other: "CycPoly") -> "CycPoly":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        if self.is_zero() or other.is_zero():
            return CycPoly(self.modulus)
        out = [CycElem.zero(self.modulus) for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return CycPoly(self.modulus, out)

    def evaluate(self, x: CycElem) -> CycElem:
        result = CycElem.zero(self.modulus)
        for c in reversed(self.coeffs):
            result = result * x + c
        return result

    def as_rational_poly(self) -> RatPoly | None:
        """Downcast to Q[x] if every coefficient is rational, else None."""
        rats = []
        for c in self.coeffs:
            r = c.as_rational()
            if r is None:
                return None
            rats.append(r)
        return RatPoly(rats)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"({c})*x^{k}" if k else f"({c})" for k, c in enumerate(self.coeffs) if not c.is_zero())

    def __repr__(self) -> str:
        return f"CycPoly(m={self.modulus}, {self})"


def express_in_submodulus(x: CycElem, sub_modulus: int) -> CycElem | None:
    """Coordinates of x in the power basis of Q(zeta_sub), or None.

    A general descent by Gauss-Jordan elimination, kept as an independent
    test oracle: no decision procedure calls it (root membership decides by
    the conductor).  ``sub_modulus`` must divide ``x.modulus``.  The
    embedded images of 1, zeta_sub, ..., zeta_sub^(phi(sub)-1) span the
    subfield inside the big power basis, so membership is an exact linear
    system over Q: solvable (with a unique solution, the images being
    linearly independent) exactly when x lies in the subfield.
    """
    m = x.modulus
    if m % sub_modulus != 0:
        raise ValueError(f"{sub_modulus} does not divide the modulus {m}")
    if sub_modulus == m:
        return x
    stride = m // sub_modulus
    phi_sub = euler_phi(sub_modulus)
    phi_m = euler_phi(m)
    table = _power_table(m)
    target = x.coeffs
    # augmented matrix, one row per big-basis coordinate
    rows = [
        [Fraction(table[(j * stride) % m][i]) for j in range(phi_sub)] + [target[i]]
        for i in range(phi_m)
    ]
    pivot_cols: list[int] = []
    r = 0
    for col in range(phi_sub):
        pivot = next((i for i in range(r, phi_m) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][col]
        rows[r] = [v / lead for v in rows[r]]
        for i in range(phi_m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
    if any(row[-1] != 0 for row in rows[r:]):
        return None
    solution = [Fraction(0)] * phi_sub
    for i, col in enumerate(pivot_cols):
        solution[col] = rows[i][-1]
    return CycElem(sub_modulus, solution)


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
    poly = CycPoly(m, [1])
    for y in orbit:
        poly = poly * CycPoly(m, [-y, 1])
    result = poly.as_rational_poly()
    if result is None:
        raise ArithmeticError("orbit product has an irrational coefficient")
    return result
