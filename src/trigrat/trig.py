"""Rationality of powers of cos, sin and tan at rational multiples of pi.

For theta = p/q the three functions at pi*theta live in Q(zeta_M) with
M = lcm(2q, 4).  Writing z = zeta_M, e = pM/(2q), i = z^(M/4) (so that
1/i = z^(-M/4)), w = z^(2e) and u = -w, each value is an integer
combination of roots of unity over one denominator, built without any
field division:

    cos(pi p/q) = (z^e + z^-e) / 2
    sin(pi p/q) = (z^(e - M/4) - z^(-e - M/4)) / 2
    tan(pi p/q) = (w - 1) * z^(-M/4) * (1 - u)^-1,
                  (1 - u)^-1 = -(1/r) * sum(k * u^k for k < r)

where r is the order of u.  The last line follows from the identity
sum(k * u^k for k < r) = r / (u - 1), valid for every root of unity
u != 1 of order r; u = 1 exactly when cos vanishes, i.e. at the tangent
poles q = 2.

Powers are decided in the group ring, never expanded in the power basis:
2 cos and 2 sin are two-term elements of Z[z]/(z^(M/2) + 1), their n-th
powers have at most n + 1 terms, and a power is reduced modulo Phi_M only
to read whether it is rational; tan^n is rational iff the reductions of
the numerators of sin^n and cos^n are proportional (see ``_powers``).
``classify`` summarises the full picture for one (function, angle) pair:
either some power is rational and we report the least such exponent with
its value, or no power is rational at all.  The latter is the common case:
an irrational value whose square is irrational has no rational power,
since a least rational exponent of 3 or more never occurs (see
:func:`classify`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .cyclotomic import CycElem, _reduce, root_combination
from .numtheory import format_rational, nth_root_rational, parse_rational
from .polynomials import _power


class TrigFunc(enum.Enum):
    COS = "cos"
    SIN = "sin"
    TAN = "tan"

    @classmethod
    def parse(cls, text: str) -> "TrigFunc":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown trig function {text!r}; expected cos, sin or tan") from None

    def __str__(self) -> str:
        return self.value


class UndefinedTrigValue(ArithmeticError):
    """Raised when tan is evaluated at an odd multiple of pi/2."""


@dataclass(frozen=True)
class Angle:
    """A rational multiple theta = p/q of pi, normalised to 0 <= p/q < 2.

    The constructor insists on the normal form (q >= 1, gcd(p, q) = 1,
    0 <= p < 2q); use :meth:`normalized` to build one from arbitrary p, q.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"denominator must be positive, got {self.q}")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"{self.p}/{self.q} is not in lowest terms")
        if not 0 <= self.p < 2 * self.q:
            raise ValueError(f"numerator {self.p} outside [0, {2 * self.q}) for denominator {self.q}")

    @classmethod
    def normalized(cls, p: int, q: int) -> "Angle":
        """Reduce p/q mod 2 into the fundamental window [0, 2)."""
        if q == 0:
            raise ValueError("denominator must be nonzero")
        if q < 0:
            p, q = -p, -q
        p %= 2 * q
        g = gcd(p, q)
        return cls(p // g, q // g)

    @classmethod
    def parse(cls, text: str) -> "Angle":
        value = parse_rational(text)
        return cls.normalized(value.numerator, value.denominator)

    @property
    def theta(self) -> Fraction:
        return Fraction(self.p, self.q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


class Case(enum.Enum):
    """How (func(pi*theta))^n first becomes rational as n grows."""

    VALUE_RATIONAL = "value_rational"    # rational already at n = 1
    SQUARE_RATIONAL = "square_rational"  # irrational value, rational square
    NEVER = "never"                      # no positive power is rational
    UNDEFINED = "undefined"              # tan at a pole

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Classification:
    """Verdict for one (function, angle) pair.

    ``minimal_n`` is the least exponent with a rational power (None for the
    NEVER and UNDEFINED cases) and ``value`` the power's exact value at that
    exponent.  ``witness`` carries the underlying field element.
    """

    func: TrigFunc
    angle: Angle
    case: Case
    minimal_n: int | None
    value: Fraction | None
    witness: CycElem | None

    def to_json(self) -> dict:
        return {
            "func": str(self.func),
            "theta": str(self.angle),
            "case": str(self.case),
            "minimal_n": self.minimal_n,
            "value": None if self.value is None else format_rational(self.value),
            "witness": None if self.witness is None else self.witness.to_json(),
        }


# The trig caches are bounded LRU caches: 1024 pairs hold a sweep's
# representatives at every q <= 32 and one classify per modulus over a
# range of a hundred moduli.
@lru_cache(maxsize=1024)
def trig_elem(func: TrigFunc, angle: Angle) -> CycElem:
    """The exact value of func(pi * angle) as an element of Q(zeta_M),
    M = lcm(2q, 4), from the division-free closed forms in the module
    docstring.  Raises UndefinedTrigValue at tangent poles."""
    m = lcm(2 * angle.q, 4)
    e = angle.p * m // (2 * angle.q)
    if func is TrigFunc.COS:
        return root_combination(m, [(e, 1), (-e, 1)], 2)
    quarter = m // 4
    if func is TrigFunc.SIN:
        return root_combination(m, [(e - quarter, 1), (-e - quarter, -1)], 2)
    if angle.q == 2:
        raise UndefinedTrigValue(f"tan(pi * {angle}) is undefined")
    s = 2 * e + m // 2  # u = -w = z^s
    r = m // gcd(s, m)
    # (w - 1) * sum(k * u^k) = -(1 + u) * sum(k * u^k): collecting powers of u
    # (u^r = 1) leaves r - 1 at u^0 and 2j - 1 at u^j, over the denominator r.
    terms = [(-quarter, r - 1)] + [(j * s - quarter, 2 * j - 1) for j in range(1, r)]
    return root_combination(m, terms, r)


def _ring_element(h: int, terms) -> dict[int, int]:
    """sum(c * z^k for k, c in terms) in Z[z]/(z^h + 1) as {k: c},
    0 <= k < h, zero coefficients dropped."""
    out: dict[int, int] = {}
    for k, c in terms:
        k %= 2 * h
        if k >= h:
            k, c = k - h, -c
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _ring_mul(h: int, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two elements of Z[z]/(z^h + 1) given as {k: c}."""
    out: dict[int, int] = {}
    get = out.get
    for j, y in b.items():
        for i, x in a.items():
            k = i + j
            if k < h:
                out[k] = get(k, 0) + x * y
            else:
                k -= h
                out[k] = get(k, 0) - x * y
    return out


def _powers(func: TrigFunc, angle: Angle, n: int = 1):
    """Yield func(pi*angle)^k for k = n, n + 1, ...: the exact value when
    rational, else None.  Raises UndefinedTrigValue at tangent poles.

    No power is formed in the power basis.  With z = zeta_M and h = M/2
    (M = lcm(2q, 4) is a multiple of 4, so z^h = -1), the numerators
    2 cos = z^e + z^-e and 2 sin = z^(e - M/4) - z^(-e - M/4) are two-term
    elements of the group ring Z[z]/(z^h + 1); their k-th powers have at
    most k + 1 terms, and each next power is one sparse product with the
    base.  A power is reduced modulo Phi_M only to be read: cos^k or sin^k
    is rational iff the reduction's coordinates 1, 2, ... vanish, and then
    equals coordinate 0 over 2^k.  tan^k = sin^k / cos^k is rational iff
    the reductions S and C of the two numerators are proportional, i.e.
    S[j] * C[i] == S[i] * C[j] for all j with i the first index where
    C[i] != 0 (cos^k != 0 off the poles); then it equals S[i] / C[i].
    The first power x^n comes from square-and-multiply, reduced after each
    product, since high powers turn dense.
    """
    if func is TrigFunc.TAN and angle.q == 2:
        raise UndefinedTrigValue(f"tan(pi * {angle}) is undefined")
    m = lcm(2 * angle.q, 4)
    h, quarter = m // 2, m // 4
    e = angle.p * m // (2 * angle.q)
    cos_num = _ring_element(h, [(e, 1), (-e, 1)])
    sin_num = _ring_element(h, [(e - quarter, 1), (-e - quarter, -1)])
    bases = {TrigFunc.COS: [cos_num], TrigFunc.SIN: [sin_num], TrigFunc.TAN: [sin_num, cos_num]}[func]

    def reduced(a: dict[int, int]) -> list[int]:
        coeffs = [0] * h
        for k, c in a.items():
            coeffs[k] = c
        return _reduce(m, coeffs)

    def mul_reduced(a, b):
        return {k: c for k, c in enumerate(reduced(_ring_mul(h, a, b))) if c}

    powers = [_power(base, n, {0: 1}, mul_reduced) for base in bases]
    while True:
        if func is TrigFunc.TAN:
            s, c = map(reduced, powers)
            i = next(j for j, cj in enumerate(c) if cj)
            yield Fraction(s[i], c[i]) if all(sj * c[i] == s[i] * cj for sj, cj in zip(s, c)) else None
        else:
            v = reduced(powers[0])
            yield None if any(v[1:]) else Fraction(v[0], 2 ** n)
        n += 1
        powers = [_ring_mul(h, power, base) for power, base in zip(powers, bases)]


# The largest exponent ``power_rational`` computes.  The power's
# coefficients grow to about n bits, so its cost grows faster than n:
# cos(pi/997)^1000 takes 1.6 s and ^10000 39 s, cos(pi/60)^1000000 22 s
# (2-core Xeon, Python 3.11).
MAX_POWER_EXPONENT = 1000


def power_rational(func: TrigFunc, angle: Angle, n: int) -> Fraction | None:
    """Exact value of func(pi*angle)^n when rational, else None.

    Raises UndefinedTrigValue at tangent poles and ValueError for n < 1 or
    n > MAX_POWER_EXPONENT.
    """
    if n < 1:
        raise ValueError(f"exponent must be >= 1, got {n}")
    if n > MAX_POWER_EXPONENT:
        raise ValueError(f"exponent must be <= {MAX_POWER_EXPONENT}, got {n}")
    return next(_powers(func, angle, n))


@lru_cache(maxsize=1024)
def classify(func: TrigFunc, angle: Angle) -> Classification:
    """Decide how powers of func(pi*angle) behave, exactly.

    Only three things can happen for x = func(pi*angle): x is rational
    (case VALUE_RATIONAL, n = 1); x is irrational with x^2 rational (case
    SQUARE_RATIONAL, n = 2; then x^n is rational exactly for even n); or
    x^n is irrational for every n >= 1 (case NEVER).  No angle produces a
    least rational exponent of 3 or more: if x^n is rational with n minimal,
    x generates a Kummer-type extension whose degree divides both n and the
    abelian field Q(zeta_M), forcing n <= 2.  ``classify`` certifies the
    verdict by exact computation of x and x^2 alone: x is the witness, and
    x^2 is decided in the group ring (``_powers``), not as the dense product
    x * x.
    """
    try:
        x = trig_elem(func, angle)
    except UndefinedTrigValue:
        return Classification(func, angle, Case.UNDEFINED, None, None, None)
    v1 = x.as_rational()
    if v1 is not None:
        return Classification(func, angle, Case.VALUE_RATIONAL, 1, v1, x)
    v2 = next(_powers(func, angle, 2))
    if v2 is not None:
        return Classification(func, angle, Case.SQUARE_RATIONAL, 2, v2, x)
    return Classification(func, angle, Case.NEVER, None, None, x)


@dataclass(frozen=True)
class ValueDescriptor:
    """A real number of the form sign * sqrt(square), sign in {+1, -1, 0}.

    Canonical form: sign = 0 iff square = 0; square >= 0.  Describes every
    value that a rational-square trig value can take, rational or not.
    """

    sign: int
    square: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign}")
        if self.square < 0:
            raise ValueError("square must be nonnegative")
        if (self.sign == 0) != (self.square == 0):
            raise ValueError("sign 0 iff square 0")

    @classmethod
    def from_rational(cls, value: Fraction) -> "ValueDescriptor":
        if value == 0:
            return cls(0, Fraction(0))
        return cls(1 if value > 0 else -1, value * value)

    def as_rational(self) -> Fraction | None:
        if self.square == 0:
            return Fraction(0)
        root = nth_root_rational(self.square, 2)
        return None if root is None else self.sign * root

    def __str__(self) -> str:
        r = self.as_rational()
        if r is not None:
            return format_rational(r)
        body = f"sqrt({format_rational(self.square)})"
        return body if self.sign > 0 else f"-{body}"


def value_descriptor(classification: Classification) -> ValueDescriptor:
    """The base value func(pi*theta) of a VALUE_RATIONAL or SQUARE_RATIONAL
    classification as sign * sqrt(square), exactly.

    For the rational case this is immediate.  For the rational-square case
    the square is exact and only the sign comes from the numeric embedding;
    the candidate magnitudes are bounded away from zero, so the float sign
    is reliable, and the predicted value lists are symmetric under negation
    anyway.
    """
    if classification.case not in (Case.VALUE_RATIONAL, Case.SQUARE_RATIONAL):
        raise ValueError(f"no base value to describe in the {classification.case} case")
    if classification.case is Case.VALUE_RATIONAL:
        return ValueDescriptor.from_rational(classification.value)
    square = classification.value
    sign = 1 if classification.witness.numeric_eval().real > 0 else -1
    return ValueDescriptor(sign, square)


@lru_cache(maxsize=6)
def theorem_value_list(func: TrigFunc, parity: str) -> frozenset[ValueDescriptor]:
    """The complete set of values func(pi*theta) can take when its n-th power
    is rational, split by the parity of n.

    Odd n: cos and sin land in {0, +-1/2, +-1}; tan in {0, +-1}.  Even n
    additionally admits the quadratic irrationalities +-sqrt(2)/2 and
    +-sqrt(3)/2 for cos and sin, and +-sqrt(3)/3, +-sqrt(3) for tan.
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")

    def both(square: Fraction) -> list[ValueDescriptor]:
        return [ValueDescriptor(1, square), ValueDescriptor(-1, square)]

    values = [ValueDescriptor(0, Fraction(0))]
    if func in (TrigFunc.COS, TrigFunc.SIN):
        values += both(Fraction(1, 4)) + both(Fraction(1))
        if parity == "even":
            values += both(Fraction(1, 2)) + both(Fraction(3, 4))
    else:
        values += both(Fraction(1))
        if parity == "even":
            values += both(Fraction(1, 3)) + both(Fraction(3))
    return frozenset(values)
