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

Powers are written down, never multiplied out: by the binomial theorem
(2 cos)^n = sum(C(n, j) * z^(e(n - 2j))) and (2 sin)^n is the same sum with
signs (-1)^j times z^(-nM/4), laid out over M/2 slots (z^(M/2) = -1) and
moved along vanishing p-gons until the slots are independent, 1 at slot 0:
no division by Phi_M (see ``_power_stream`` and ``_decide``).  One
stream per sign yields the moved slots for k = first..last, stepping the
folds of its Pascal rows, and cos, sin and tan are decided from the same
two slot sets.  ``_powers`` is the one reader of powers: the sweep runs it
once per angle over n = 1..n_max, ``classify`` over n = 1, 2 and
``power_rational`` for one n, and nothing is kept past the stream.
``trig_elem`` lays out M slots; it and ``classify`` refuse M above
MAX_TRIG_MODULUS, and ``_powers`` refuses M at which one term could
spread over more than MAX_POLYGON_SPREAD slots.
``classify`` summarises the full picture for one (function, angle) pair:
either some power is rational and we report the least such exponent with
its value, or no power is rational at all.  The latter is the common case:
an irrational value whose square is irrational has no rational power,
since a least rational exponent of 3 or more never occurs (see
:func:`classify`).  So the first two powers decide the case, for
``classify`` and the sweep alike (``_classification``); the witness x
decides nothing and is built only when read (``Classification.witness``).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm, prod

from ._record import FrozenRecord
from .cyclotomic import CycElem, root_combination
from .numtheory import _trial_division, format_rational, nth_root_rational, parse_rational


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


class Angle(FrozenRecord):
    """A rational multiple theta = p/q of pi, normalised to 0 <= p/q < 2.

    The constructor insists on the normal form (q >= 1, gcd(p, q) = 1,
    0 <= p < 2q); use :meth:`normalized` to build one from arbitrary p, q.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        if q < 1:
            raise ValueError(f"denominator must be positive, got {q}")
        if gcd(p, q) != 1:
            raise ValueError(f"{p}/{q} is not in lowest terms")
        if not 0 <= p < 2 * q:
            raise ValueError(f"numerator {p} outside [0, {2 * q}) for denominator {q}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

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


class Classification(FrozenRecord):
    """Verdict for one (function, angle) pair: the case, and ``value``, the
    least rational power's exact value (None for NEVER and UNDEFINED).
    ``minimal_n`` (1, 2 or None) is read off the case; ``witness``, the
    value as a field element (None at a pole), is built when read."""

    __slots__ = ("func", "angle", "case", "value")

    def __init__(self, func: TrigFunc, angle: Angle, case: Case, value: Fraction | None):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "angle", angle)
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "value", value)

    @property
    def minimal_n(self) -> int | None:
        return 1 if self.case is Case.VALUE_RATIONAL else 2 if self.case is Case.SQUARE_RATIONAL else None

    @property
    def witness(self) -> CycElem | None:
        return None if self.case is Case.UNDEFINED else trig_elem(self.func, self.angle)

    def to_json(self) -> dict:
        witness = self.witness  # built once, for this payload
        return {
            "func": str(self.func),
            "theta": str(self.angle),
            "case": str(self.case),
            "minimal_n": self.minimal_n,
            "value": None if self.value is None else format_rational(self.value),
            "witness": None if witness is None else witness.to_json(),
        }


def _zeta_exponent(angle: Angle) -> tuple[int, int]:
    """M = lcm(2q, 4) and e = pM/(2q), so that cos(pi p/q) = (z^e + z^-e)/2
    for z = zeta_M."""
    m = lcm(2 * angle.q, 4)
    return m, angle.p * m // (2 * angle.q)


@lru_cache(maxsize=64)
def _binomial_row(sign: int, k: int) -> tuple[int, ...]:
    """sign^j * C(k, j) for j <= k; all angles share it, and the cache keeps 64 rows."""
    row = [1]
    for j in range(k):
        row.append(row[-1] * (sign * (k - j)) // (j + 1))
    return tuple(row)


# The largest spread, prod(p - 1) over the odd primes p of M, at which
# ``power_rational`` moves slots along p-gons: one term can spread over that
# many slots (p - 1 for each prime at which its digit is top), so memory
# grows with it and not with M.  In a fresh process on a 2-core Xeon with
# Python 3.11, eval tan 1/1000003 --pow 1000 (spread 1000002) takes
# 0.8-1.8 s and 561 MB, tan 1/2000003 --pow 1000 1.7 s and 1105 MB,
# cos 1/1000003 --pow 2 0.33 s and 167 MB, and cos 1/(2^11 5^11) --pow 2
# (spread 4) 0.06 s.  The limit is on the product, not on the largest
# prime: eval cos 100140047/100160063 --pow 2 (10007 * 10009) needs over
# 2 GB.
MAX_POLYGON_SPREAD = 2 ** 20


@lru_cache(maxsize=1024)
def _polygon_moves(m: int) -> tuple[tuple[int, int, int, int], ...]:
    """(p^a, (M/p^a)^-1 mod p^a, p^a - p^(a-1), M/p) per odd p^a exactly
    dividing M, p increasing.

    ValueError when the spread, prod(p - 1) over those p, is above
    MAX_POLYGON_SPREAD.  M's odd part is trial-divided up to
    MAX_POLYGON_SPREAD + 1 only (``numtheory._trial_division``), since a
    prime past that is past the limit alone, so M is never factored
    further: what is left then is 1, one prime, or over the limit."""
    factors, rest, _ = _trial_division(m // (m & -m), MAX_POLYGON_SPREAD + 1)
    if rest > 1:
        factors.append((rest, 1))
    if prod(p - 1 for p, _ in factors) > MAX_POLYGON_SPREAD:
        raise ValueError(f"the spread prod(p - 1) over the odd primes p of M = {m}"
                         f" is above the limit {MAX_POLYGON_SPREAD}")
    moves = []
    for p, a in factors:
        pa = p ** a
        moves.append((pa, pow(m // pa, -1, pa), pa - pa // p, m // p))
    return tuple(moves)


def _power_stream(sign: int, m: int, e: int, first: int, last: int):
    """The nonzero slots of (2 cos)^k (sign 1) or (2 sin)^k (sign -1) after
    p-gon moves, for k = first..last in turn.

    Term j of the binomial sums in the module docstring has exponent
    e(k - 2j), less kM/4 for sin, with period r = M / gcd(2e, M) in j.
    While k < r row k is laid out as it is (``_binomial_row``, whose rows
    all angles share); from k = r on the terms with j = t mod r are added
    up first, to the fold S_t(k), and each fold is stepped from the one
    before by Pascal's rule, S_t(k) = S_t(k - 1) + sign * S_(t-1 mod r)(k - 1):
    r additions, not the O(k) of summing row k.  So a stream from
    first <= r builds no row past r, and nothing is kept past the stream."""
    r = m // gcd(2 * e, m)
    fold = None
    for k in range(first, last + 1):
        if k < r:
            row = _binomial_row(sign, k)
        elif fold is None:
            full = _binomial_row(sign, k)
            row = fold = tuple(sum(full[t::r]) for t in range(r))
        else:
            row = fold = tuple(fold[t] + sign * fold[t - 1] for t in range(r))
        yield _moved_slots(sign, m, e, k, row)


def _moved_slots(sign: int, m: int, e: int, k: int, row) -> dict[int, int]:
    """Lay the terms c * z^(x - 2ej), c = row[j] and x = ek (less kM/4 for
    sign -1, sin), out over the slots y < h = M/2 they hit (z^h = -1), then
    move them along p-gons.

    Vanishing sums of roots of unity are generated by rotated p-gons
    (de Bruijn 1953; Lam & Leung, J. Algebra 224, 2000).  So for each odd
    p^a exactly dividing M, a slot whose p-digit x * (M/p^a)^-1 mod p^a is
    top, at least p^a - p^(a-1), moves its coefficient c as -c onto
    x + j M/p, j = 1..p-1; that raises the p-digit by j p^(a-1), out of the
    top, and keeps the other digits.  The slots left are, up to sign, the
    tensor product of the power bases of the Q(zeta_(p^a)) and
    Q(zeta_(2^b)): independent over Q, 1 at slot 0."""
    x = e * k - (k * (m // 4) if sign < 0 else 0)
    h = m // 2
    slots = {}
    for c in row:
        y = x % m
        if y >= h:
            y, c = y - h, -c
        slots[y] = slots.get(y, 0) + c
        x -= 2 * e
    for pa, w, top, step in _polygon_moves(m):
        for x, c in list(slots.items()):
            if c and x * w % pa >= top:  # moves only reach slots that are not top
                del slots[x]
                for y in range(x + step, x + m, step):  # z^y = -z^(y - h) = z^(y - M)
                    if y < h:
                        slots[y] = slots.get(y, 0) - c
                    elif y < m:
                        slots[y - h] = slots.get(y - h, 0) + c
                    else:
                        slots[y - m] = slots.get(y - m, 0) - c
    return {x: c for x, c in slots.items() if c}


# The largest M = lcm(2q, 4) at which ``trig_elem`` builds a value: M slots
# reduced modulo Phi_M, in memory linear in M.  In a fresh process on a
# 2-core Xeon with Python 3.11, classify tan --json took 2.2 s and 484 MB
# at 1/1000003 (M = 4000012), 6.1 s and 1216 MB at 1/2499997 (M = 9999988).
# ``classify`` refuses the same M, so --json changes no exit code.  Every M
# within the limit has spread (p - 1 over its odd primes) below 2^20, so
# ``classify`` meets MAX_POLYGON_SPREAD only past this limit.
MAX_TRIG_MODULUS = 2 ** 22


def _trig_modulus(angle: Angle) -> tuple[int, int]:
    """``_zeta_exponent``, with ValueError when M is above MAX_TRIG_MODULUS."""
    m, e = _zeta_exponent(angle)
    if m > MAX_TRIG_MODULUS:
        raise ValueError(f"modulus M = lcm(2q, 4) = {m} at {angle} is above the limit {MAX_TRIG_MODULUS}")
    return m, e


# No decision reads a witness, and each payload reads its own once: keep 16.
@lru_cache(maxsize=16)
def trig_elem(func: TrigFunc, angle: Angle) -> CycElem:
    """The exact value of func(pi * angle) as an element of Q(zeta_M),
    M = lcm(2q, 4), from the division-free closed forms in the module
    docstring.  Raises UndefinedTrigValue at tangent poles and ValueError
    when M is above MAX_TRIG_MODULUS."""
    m, e = _trig_modulus(angle)
    quarter = m // 4
    if func is not TrigFunc.TAN:
        sign, shift = (-1, quarter) if func is TrigFunc.SIN else (1, 0)
        return root_combination(m, [(e - shift, 1), (-e - shift, sign)], 2)
    if angle.q == 2:
        raise UndefinedTrigValue(f"tan(pi * {angle}) is undefined")
    s = 2 * e + m // 2  # u = -w = z^s
    r = m // gcd(s, m)
    # (w - 1) * sum(k * u^k) = -(1 + u) * sum(k * u^k): collecting powers of u
    # (u^r = 1) leaves r - 1 at u^0 and 2j - 1 at u^j, over the denominator r.
    terms = [(-quarter, r - 1)] + [(j * s - quarter, 2 * j - 1) for j in range(1, r)]
    return root_combination(m, terms, r)


# The largest exponent ``power_rational`` computes.  The numerator's
# binomial coefficients grow to about n bits, so its cost grows about as
# n^2: cos(pi/997)^1000 takes 2 ms, ^10000 39 ms, cos(pi/60)^100000 3.3 s
# (in process, 2-core Xeon, Python 3.11).
MAX_POWER_EXPONENT = 1000


def _powers(funcs, angle: Angle, first: int, last: int) -> dict[TrigFunc, list[Fraction | None]]:
    """func(pi*angle)^k for k = first..last and each func in ``funcs`` but
    tan at a pole, read by ``_decide`` off the streams the functions need
    (cos the moved slots C of (2 cos)^k, sin S of (2 sin)^k, tan both).
    ValueError before any slot is laid out when M's spread is above the limit."""
    m, e = _zeta_exponent(angle)
    _polygon_moves(m)
    values = {func: [] for func in funcs if not (func is TrigFunc.TAN and angle.q == 2)}
    cos = _power_stream(1, m, e, first, last) if values.keys() - {TrigFunc.SIN} else repeat(None)
    sin = _power_stream(-1, m, e, first, last) if values.keys() - {TrigFunc.COS} else repeat(None)
    for k, c, s in zip(range(first, last + 1), cos, sin):
        for func, row in values.items():
            row.append(_decide(func, k, c, s))
    return values


def _decide(func: TrigFunc, n: int, c: dict[int, int] | None, s: dict[int, int] | None) -> Fraction | None:
    """func(pi*theta)^n when rational, else None, from the moved slots C of
    (2 cos)^n and S of (2 sin)^n, which are independent: cos^n or sin^n is
    rational iff slot 0 is the only nonzero slot, and then equals slot 0
    over 2^n.  tan^n = sin^n / cos^n is rational iff S and C are
    proportional: S = 0, or S and C have the same slots and
    S[x] * C[i] == S[i] * C[x] for each (C != 0 off the poles); then it
    equals S[i] / C[i]."""
    if func is not TrigFunc.TAN:
        v = c if func is TrigFunc.COS else s
        return Fraction(v.get(0, 0), 2 ** n) if v.keys() <= {0} else None
    if s.keys() != c.keys():  # S = lambda * C has the support of C unless lambda = 0
        return None if s else Fraction(0)
    i, ci = next(iter(c.items()))
    return Fraction(s[i], ci) if all(s[x] * ci == s[i] * cx for x, cx in c.items()) else None


def power_rational(func: TrigFunc, angle: Angle, n: int) -> Fraction | None:
    """Exact value of func(pi*angle)^n when rational, else None.

    ``eval``'s one power, with no product and no division by Phi_M:
    ``_powers`` run for k = n only.

    Raises UndefinedTrigValue at tangent poles, and ValueError for n < 1,
    n > MAX_POWER_EXPONENT, or M whose spread is above MAX_POLYGON_SPREAD.
    """
    if n < 1:
        raise ValueError(f"exponent must be >= 1, got {n}")
    if n > MAX_POWER_EXPONENT:
        raise ValueError(f"exponent must be <= {MAX_POWER_EXPONENT}, got {n}")
    if func is TrigFunc.TAN and angle.q == 2:
        raise UndefinedTrigValue(f"tan(pi * {angle}) is undefined")
    return _powers((func,), angle, n, n)[func][0]


def _classification(func: TrigFunc, angle: Angle, values) -> Classification:
    """The verdict on func(pi*angle) from its powers ``values`` at n = 1 and
    2, None at a pole."""
    if values is None:
        return Classification(func, angle, Case.UNDEFINED, None)
    for value, case in zip(values, (Case.VALUE_RATIONAL, Case.SQUARE_RATIONAL)):
        if value is not None:
            return Classification(func, angle, case, value)
    return Classification(func, angle, Case.NEVER, None)


@lru_cache(maxsize=1024)
def classify(func: TrigFunc, angle: Angle) -> Classification:
    """Decide how powers of func(pi*angle) behave, exactly.

    Only three things can happen for x = func(pi*angle): x is rational
    (case VALUE_RATIONAL, n = 1); x is irrational with x^2 rational (case
    SQUARE_RATIONAL, n = 2; then x^n is rational exactly for even n); or
    x^n is irrational for every n >= 1 (case NEVER).  No angle produces a
    least rational exponent of 3 or more: if x^n is rational with n minimal,
    x generates a Kummer-type extension whose degree divides both n and the
    abelian field Q(zeta_M), forcing n <= 2.  So the verdict is that of x
    and x^2, decided by ``_powers`` and ``_classification`` as the sweep
    decides it, not from the coordinates of x or the dense product x * x.
    x is not built (``Classification.witness`` builds it when read), but an
    M above MAX_TRIG_MODULUS is refused first, as ``trig_elem`` refuses it.
    """
    _trig_modulus(angle)
    return _classification(func, angle, _powers((func,), angle, 1, 2).get(func))


class ValueDescriptor(FrozenRecord):
    """A real number of the form sign * sqrt(square), sign in {+1, -1, 0}.

    Canonical form: sign = 0 iff square = 0; square >= 0.  Describes every
    value that a rational-square trig value can take, rational or not.
    """

    __slots__ = ("sign", "square")

    def __init__(self, sign: int, square: Fraction):
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {sign}")
        if square < 0:
            raise ValueError("square must be nonnegative")
        if (sign == 0) != (square == 0):
            raise ValueError("sign 0 iff square 0")
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "square", square)

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
    the square is exact and the sign is read from the angle t = p/q in
    [0, 2): cos(pi*t) > 0 iff t < 1/2 or t > 3/2, sin(pi*t) > 0 iff
    0 < t < 1, and tan's sign is the product of the two.  The value is
    irrational, so never zero, and t never sits on a boundary.
    """
    if classification.case not in (Case.VALUE_RATIONAL, Case.SQUARE_RATIONAL):
        raise ValueError(f"no base value to describe in the {classification.case} case")
    if classification.case is Case.VALUE_RATIONAL:
        return ValueDescriptor.from_rational(classification.value)
    p, q = classification.angle.p, classification.angle.q
    cos_sign = 1 if 2 * p < q or 2 * p > 3 * q else -1
    sin_sign = 1 if 0 < p < q else -1
    sign = {TrigFunc.COS: cos_sign, TrigFunc.SIN: sin_sign, TrigFunc.TAN: cos_sign * sin_sign}
    return ValueDescriptor(sign[classification.func], classification.value)


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
