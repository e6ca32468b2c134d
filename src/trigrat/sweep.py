"""Exhaustive verification of the rational-power classification.

``verify_theorem_sweep`` covers every reduced angle p/q with q up to a
bound: it raises cos, sin and tan of pi*p/q to every exponent up to another
bound exactly (each power written down by the binomial theorem, its terms
moved along p-gons, the three functions at one angle read off the same two
streams of powers, ``trig._powers``) and checks each outcome against
what the classification and the predicted value lists say must happen:

* a rational n-th power forces the base value into the finite list for the
  parity of n (0, +-1/2, +-1 and, for even n, +-sqrt(2)/2, +-sqrt(3)/2 for
  cos and sin; 0, +-1 and +-sqrt(3)/3, +-sqrt(3) for tan);
* an angle classified rational-at-n=1 must have every power rational and
  equal to the power of its value;
* an angle classified rational-square must hit exactly the even exponents;
* an angle classified never-rational must hit nothing.

Every rational power found is recorded as a hit; every broken expectation
as a violation.  A clean sweep is a report with an empty violation list.
A never-rational function with no rational power, the common case, is
checked in one scan of its powers.  Otherwise the base value is looked up
in the odd and the even list once per check, not once per hit, and each
hit is compared with the power of the classified value num/den as the two
integers num^k and den^k (``_check``).

The case of each angle is decided from its powers alone, by the verdict
``classify`` gives (``trig._classification``): x rational makes it
rational-at-n=1, x^2 rational rational-square, and anything else
never-rational, since no least rational exponent is 3 or more.  Those are
the first two powers it reads, so the sweep builds no witness, no
Phi_M and no long division.

One angle is surveyed per class of the group that the Galois action and
two reflections generate, and every other angle is read off that survey by
an exact map.  The three values at pi*p/q lie in Q(zeta_M), M = lcm(2q, 4).
For p prime to M, sigma_p (zeta_M -> zeta_M^p) fixes Q and sends cos(pi/q)
to cos(pi p/q), and sin and tan to i^(1-p) times themselves at p/q.  So
cos^n at p/q equals cos^n at 1/q, and sin^n and tan^n at p/q equal their
values at 1/q, times (-1)^n when p = 3 mod 4 (``_galois_powers``); an
irrational power stays irrational.  The odd p in [0, 2q) prime to q, the
units mod 2q, make up one orbit of phi(2q) members; for odd q the even p
(twice the units) make up a second, which the first reflection reaches:

* theta -> pi - theta sends p/q to (q - p)/q (``_supplement``).  At odd q
  it maps the odd orbit onto the even one; cos^n and tan^n become (-1)^n
  times themselves and sin^n stays (``_supplement_powers``).
* theta -> pi/2 - theta sends p/h to (h - 2p)/2h (``_complement``).  For
  odd h > 1 it maps both orbits of h onto the one of 2h, with M = 4h on
  both sides; cos and sin swap, and tan becomes 1/tan
  (``_complement_powers``), which is never 0 at odd p over 2h, nor a pole
  at p/h.  h = 1 is left out: tan 0 = 0 pairs with the pole at 1/2.

So ``trig._powers`` runs once per class, at 1/q: for q = 1, every even q
and every odd q above q_max/2, over the config's functions and, at q = 2h
with h odd and above 1, over their partners (sin for cos, cos for sin) too.
Every reduced angle is read off it: the odd orbit of q by the Galois map,
the even orbit of an odd q by the Galois map followed by theta -> pi -
theta, and both orbits of an odd h by the Galois map at 2h followed by
theta -> pi/2 - theta.  Each angle read off is checked and booked with its
own powers, as a survey of it would be.  One rule cuts the work: a
function that is NEVER at the least p of an orbit, with no hit and no
violation, is NEVER with no hit at every member, so the whole orbit is
booked from that one check.  By the paper every other orbit is at q in
{1, 2, 3, 4, 6}, but the sweep decides it from the check, not from that
list.  The tests compare the report with a survey of every angle, and
each map's powers with ``trig._powers`` at both ends.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._record import FrozenRecord, Record
from .numtheory import euler_phi, format_rational
from .trig import (
    MAX_POWER_EXPONENT,
    MAX_TRIG_MODULUS,
    Angle,
    Case,
    TrigFunc,
    _classification,
    _powers,
    theorem_value_list,
    value_descriptor,
)

_FUNC_ORDER = {TrigFunc.COS: 0, TrigFunc.SIN: 1, TrigFunc.TAN: 2}


class SweepConfig(FrozenRecord):
    """Bounds for one sweep.  ``n_max`` is at most
    ``trig.MAX_POWER_EXPONENT``, the largest exponent ``power_rational``
    computes, and ``q_max`` at most ``trig.MAX_TRIG_MODULUS // 4``, the
    largest bound at which every M = lcm(2q, 4) is within that limit (then
    so is every spread, as it is below q).  ``funcs`` is kept as a tuple
    of ``TrigFunc`` members, so the config is hashable; any other member is
    refused with ValueError."""

    __slots__ = ("q_max", "n_max", "funcs")

    def __init__(self, q_max: int, n_max: int,
                 funcs: tuple[TrigFunc, ...] = (TrigFunc.COS, TrigFunc.SIN, TrigFunc.TAN)):
        if q_max < 1:
            raise ValueError(f"q_max must be >= 1, got {q_max}")
        if q_max > MAX_TRIG_MODULUS // 4:
            raise ValueError(f"q_max must be <= {MAX_TRIG_MODULUS // 4}, got {q_max}")
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        if n_max > MAX_POWER_EXPONENT:
            raise ValueError(f"n_max must be <= {MAX_POWER_EXPONENT}, got {n_max}")
        funcs = tuple(funcs)
        if not funcs:
            raise ValueError("funcs must not be empty")
        for func in funcs:
            if not isinstance(func, TrigFunc):
                raise ValueError(f"funcs must hold TrigFunc members only, got {func!r}")
        if len(set(funcs)) < len(funcs):
            raise ValueError(f"funcs must not repeat a function, got {','.join(map(str, funcs))}")
        object.__setattr__(self, "q_max", q_max)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "funcs", funcs)


class Hit(FrozenRecord):
    """One rational power: func(pi*theta)^n = value exactly."""

    __slots__ = ("func", "angle", "n", "value")

    def __init__(self, func: TrigFunc, angle: Angle, n: int, value: Fraction):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "angle", angle)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value)

    def sort_key(self):
        return (_FUNC_ORDER[self.func], self.angle.q, self.angle.p, self.n)

    def to_json(self) -> dict:
        return {
            "func": str(self.func),
            "theta": str(self.angle),
            "n": self.n,
            "value": format_rational(self.value),
        }


class Violation(FrozenRecord):
    """A broken expectation, kept machine-readable for triage."""

    __slots__ = ("func", "angle", "n", "reason", "value")

    def __init__(self, func: TrigFunc, angle: Angle, n: int | None, reason: str, value: Fraction | None = None):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "angle", angle)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "value", value)

    def sort_key(self):
        return (_FUNC_ORDER[self.func], self.angle.q, self.angle.p, self.n or 0)

    def to_json(self) -> dict:
        return {
            "func": str(self.func),
            "theta": str(self.angle),
            "n": self.n,
            "reason": self.reason,
            "value": None if self.value is None else format_rational(self.value),
        }


class SweepReport(Record):
    """Everything a sweep found, in deterministic order.  Mutable, and so
    unhashable; a list or dict left out starts empty."""

    __slots__ = ("config", "hits", "violations", "case_counts", "queries")

    def __init__(self, config: SweepConfig, hits: list[Hit] | None = None,
                 violations: list[Violation] | None = None,
                 case_counts: dict[TrigFunc, dict[Case, int]] | None = None, queries: int = 0):
        self.config = config
        self.hits = [] if hits is None else hits
        self.violations = [] if violations is None else violations
        self.case_counts = {} if case_counts is None else case_counts
        self.queries = queries

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        cases = {
            str(func): {str(case): count for case, count in sorted(by_case.items(), key=lambda kv: kv[0].value)}
            for func, by_case in sorted(self.case_counts.items(), key=lambda kv: _FUNC_ORDER[kv[0]])
        }
        return {
            "hits": [h.to_json() for h in self.hits],
            "violations": [v.to_json() for v in self.violations],
            "totals": {
                "queries": self.queries,
                "hits": len(self.hits),
                "violations": len(self.violations),
                "cases": cases,
            },
        }


def reduced_angles(q_max: int) -> list[Angle]:
    """All reduced p/q with 1 <= q <= q_max and 0 <= p/q < 2, sorted by
    (q, p)."""
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    return [
        Angle(p, q)
        for q in range(1, q_max + 1)
        for p in range(0, 2 * q)
        if gcd(p, q) == 1
    ]


def _check(func: TrigFunc, angle: Angle, n_max: int, values) -> tuple[list[Hit], list[Violation], Case]:
    """Hits and violations of one function at one angle, from its powers
    ``values`` at n = 1, 2, ... (None at a pole), checked as the module
    docstring says."""
    hits: list[Hit] = []
    violations: list[Violation] = []

    def violation(n, reason, value=None):
        violations.append(Violation(func, angle, n, reason, value))

    classification = _classification(func, angle, values)
    case = classification.case

    undefined = case is Case.UNDEFINED
    if (func is TrigFunc.TAN and angle.q == 2) != undefined:
        violation(None, "pole misclassified")
    if undefined:
        return hits, violations, case
    values = values[:n_max]
    never = case is Case.NEVER
    if never and values.count(None) == len(values):
        return hits, violations, case

    rational, square = case is Case.VALUE_RATIONAL, case is Case.SQUARE_RATIONAL
    if not never:
        base = value_descriptor(classification)
        outside = (base not in theorem_value_list(func, "even"), base not in theorem_value_list(func, "odd"))
        num, den = classification.value.numerator, classification.value.denominator

    first_hit_n = None
    for n, value in enumerate(values, 1):
        odd = n % 2
        if value is None:
            if rational:
                violation(n, "power of a rational value is irrational")
            elif square and not odd:
                violation(n, "even power with rational square is irrational")
            continue

        hits.append(Hit(func, angle, n, value))
        if first_hit_n is None:
            first_hit_n = n

        if never:
            violation(n, "rational power in a never-rational class", value)
            continue
        if rational or not odd:
            k = n if rational else n // 2
            if value.numerator != num ** k or value.denominator != den ** k:
                violation(n, "power disagrees with classified base value", value)
        else:
            violation(n, "odd power of an irrational value is rational", value)
        if outside[odd]:
            violation(n, "base value outside the predicted list", value)

    minimal_n = classification.minimal_n  # read off the case
    if minimal_n is not None and minimal_n <= n_max and first_hit_n != minimal_n:
        violation(first_hit_n, "least rational exponent mismatch")
    if minimal_n is None and first_hit_n is not None:
        violation(first_hit_n, "hit despite no classified minimal exponent")
    return hits, violations, case


def _numerators(q: int, parity: int):
    """The p of one parity with p/q reduced and 0 <= p < 2q, increasing:
    one Galois orbit (module docstring)."""
    return (p for p in range(parity, 2 * q, 2) if gcd(p, q) == 1)


def _add(report: SweepReport, func: TrigFunc, result, members: int = 1) -> None:
    """Book one check's result for ``members`` angles of ``func``."""
    hits, violations, case = result
    report.hits.extend(hits)
    report.violations.extend(violations)
    report.queries += members * report.config.n_max if case is not Case.UNDEFINED else 0
    by_case = report.case_counts.setdefault(func, {})
    by_case[case] = by_case.get(case, 0) + members


def _orbit(report: SweepReport, q: int, parity: int, powers_at) -> None:
    """Check and book one (q, orbit) for the config's functions, each at
    the least p, and at every other member for each that is not NEVER
    there with no hit and no violation.  ``powers_at(func, p)`` gives
    func's powers at p/q."""
    funcs = report.config.funcs
    for member, p in enumerate(_numerators(q, parity)):
        angle, rest = Angle(p, q), []
        for func in funcs:
            result = _check(func, angle, report.config.n_max, powers_at(func, p))
            hits, violations, case = result
            if not member and case is Case.NEVER and not hits and not violations:
                _add(report, func, result, euler_phi(2 * q))
            else:
                _add(report, func, result)
                rest.append(func)
        if not rest:
            break
        funcs = rest


def _odd_negated(values):
    """The powers ``values`` at n = 1, 2, ... with the odd ones negated."""
    return [v if i % 2 or v is None else -v for i, v in enumerate(values)]  # n = i + 1


def _galois_powers(func: TrigFunc, p: int, values):
    """func(pi p/q)^n from func(pi/q)^n, p odd and prime to q: the same for
    cos, and for sin and tan (-1)^n times it when p = 3 mod 4.  None, a
    pole, stays None."""
    if func is TrigFunc.COS or p % 4 == 1 or values is None:
        return values
    return _odd_negated(values)


def _supplement(q: int, p: int) -> int:
    """theta -> pi - theta: the p' with p'/q = 1 - p/q mod 2."""
    return (q - p) % (2 * q)


def _supplement_powers(func: TrigFunc, values):
    """func(pi - theta)^n from func(theta)^n: (-1)^n times it for cos and
    tan, itself for sin."""
    return values if func is TrigFunc.SIN else _odd_negated(values)


def _complement(h: int, p: int) -> int:
    """theta -> pi/2 - theta: the p' with p'/(2h) = 1/2 - p/h mod 2."""
    return (h - 2 * p) % (4 * h)


def _complement_powers(func: TrigFunc, values):
    """func(pi/2 - theta)^n from the powers of its partner at theta (sin
    for cos, cos for sin, tan for tan): the same, but inverted for tan,
    which is never 0 at odd p over 2h."""
    if func is TrigFunc.TAN:
        return [None if v is None else 1 / v for v in values]
    return values


# theta -> pi/2 - theta swaps cos and sin and inverts tan
_PARTNER = {TrigFunc.COS: TrigFunc.SIN, TrigFunc.SIN: TrigFunc.COS, TrigFunc.TAN: TrigFunc.TAN}


def verify_theorem_sweep(config: SweepConfig) -> SweepReport:
    """Run the full sweep described by ``config`` and collect the report.

    Moduli run in increasing q.  Each q that is not read off 2q is surveyed
    once, at 1/q, and every angle of its class is read off that survey: its
    odd orbit by the Galois map, the even orbit of an odd q by the Galois
    map and theta -> pi - theta, and, at q = 2h with h odd and above 1 (a
    survey that runs over the partner of each function too), both orbits
    of h by the Galois map and theta -> pi/2 - theta.  Each orbit is
    checked at its least p; a function NEVER there with no hit and no
    violation counts as NEVER, with ``n_max`` queries, at all phi(2q)
    members, and every other function is checked at every member with its
    own powers.  The report is that of a survey of every reduced angle,
    hits and violations sorted alike.  Everything runs in this one process.
    """
    report = SweepReport(config=config)
    funcs, last = config.funcs, max(config.n_max, 2)
    partnered = tuple(dict.fromkeys(funcs + tuple(_PARTNER[func] for func in funcs)))
    for q in range(1, config.q_max + 1):
        if q % 2 and 1 < q <= config.q_max // 2:
            continue  # read off the survey at 2q
        h = q // 2 if q % 4 == 2 and q > 2 else 0
        survey = _powers(partnered if h else funcs, Angle(1, q), 1, last)
        _orbit(report, q, 1, lambda f, p: _galois_powers(f, p, survey.get(f)))
        if q % 2:
            _orbit(report, q, 0, lambda f, p: _supplement_powers(f, _galois_powers(f, _supplement(q, p), survey[f])))
        elif h:
            for parity in (1, 0):
                _orbit(report, h, parity, lambda f, p: _complement_powers(
                    f, _galois_powers(_PARTNER[f], _complement(h, p), survey[_PARTNER[f]])))
    report.hits.sort(key=Hit.sort_key)
    report.violations.sort(key=Violation.sort_key)
    return report
