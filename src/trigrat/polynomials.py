"""Dense univariate polynomials, and the one polynomial kernel of the package.

``RatPoly`` is a polynomial over Q: coefficients are stored constant-term
first, as a tuple of ``Fraction`` with no trailing zeros; the zero
polynomial is the empty tuple.

The kernel works on plain coefficient lists, constant term first, over any
ring whose elements support ``+``, ``-`` and ``*`` with each other and with
``0``: ``int`` (Phi_m and the reduction modulo Phi_m in ``cyclotomic``),
``Fraction`` (``RatPoly``) and ``CycElem`` (the Galois-orbit products of
``minimal_polynomial``).  ``_poly_mul`` is the dense convolution,
``_divide_monic`` the long division by a monic polynomial, which reads the
divisor as its nonzero tail (``_monic_tail``; for Phi_m,
``cyclotomic._cyclotomic_divisor`` reads it off Phi_R and keeps only the
tail built last, if it has at most 2^15 (j, c) pairs), and ``_power``
square-and-multiply for ``RatPoly`` and ``CycElem`` powers; ``_format_terms`` prints ``RatPoly`` and ``CycElem`` alike.
Zero coefficients are skipped by truthiness; a ``CycElem`` is always
truthy, so over Q(zeta_m) every product is formed.  The names are
private: the span tracer of ``perfbench/tracer.py`` wraps every public
callable, and a span per product would move the products' time out of the
layer that asks for them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence


def _poly_mul(a: Sequence, b: Sequence) -> list:
    out = [0] * (len(a) + len(b) - 1)
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b_terms:
                out[i + j] += x * y
    return out


def _monic_tail(den: Sequence) -> tuple[int, tuple]:
    """The degree d of the monic polynomial ``den`` and its nonzero
    coefficients below the leading one, as (j, c) pairs: the divisor as
    ``_divide_monic`` reads it."""
    d = len(den) - 1
    return d, tuple((j, c) for j, c in enumerate(den[:d]) if c)


def _divide_monic(num: list, d: int, tail: Sequence) -> list:
    """Long division by the monic polynomial of degree ``d`` whose lower
    nonzero coefficients are ``tail`` (see ``_monic_tail``).  Returns the
    quotient and leaves the remainder in ``num[:d]`` (``num`` is
    overwritten)."""
    quotient = [0] * max(len(num) - d, 0)
    for k in range(len(num) - 1, d - 1, -1):
        c = num[k]
        if c:
            base = k - d
            quotient[base] = c
            for j, t in tail:
                num[base + j] -= c * t
    return quotient


def _power(base, n: int, one):
    """base ** n for n >= 0 by left-to-right square-and-multiply:
    floor(log2 n) squarings and popcount(n) - 1 products, none past the
    last bit; ``one`` is returned for n = 0."""
    if n == 0:
        return one
    result = base
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * base
    return result


class RatPoly:
    """A polynomial over Q.  Immutable; arithmetic is exact."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    def __reduce__(self):
        return (RatPoly, (self.coeffs,))

    @classmethod
    def monomial(cls, degree: int, coeff: int | Fraction = 1) -> "RatPoly":
        return cls([0] * degree + [coeff])

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatPoly([other])
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # a constant equals its coefficient, so it must hash as one
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __add__(self, other) -> "RatPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return RatPoly(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=Fraction(0)))

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly(-c for c in self.coeffs)

    def __sub__(self, other) -> "RatPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatPoly":
        return (-self) + other

    def __mul__(self, other) -> "RatPoly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return RatPoly(_poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RatPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, RatPoly([1]))

    def __str__(self) -> str:
        return _format_terms(reversed(list(enumerate(self.coeffs))), "x")

    def __repr__(self) -> str:
        return f"RatPoly({self})"


def _format_terms(terms: Iterable[tuple[int, Fraction]], var: str) -> str:
    """The sum of c * var^k over the (k, c) pairs in their order, as
    ``RatPoly`` and ``CycElem`` print it: zero terms skipped, each sign
    pulled out, a unit magnitude dropped before var, and "0" for no term."""
    parts = []
    for k, c in terms:
        if c == 0:
            continue
        mag = abs(c)
        power = var if k == 1 else f"{var}^{k}"
        body = str(mag) if k == 0 else power if mag == 1 else f"{mag}*{power}"
        if parts:
            body = ("+ " if c > 0 else "- ") + body
        elif c < 0:
            body = "-" + body
        parts.append(body)
    return " ".join(parts) or "0"


def _coerce(value) -> RatPoly | None:
    if isinstance(value, RatPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return RatPoly([value])
    return None
