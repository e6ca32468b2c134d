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
A survey of a never-rational function with no rational power, the common
case, is checked in one scan of its powers.  Otherwise the base value is
looked up in the odd and the even list once per survey, not once per hit,
and each hit is compared with the power of the classified value num/den
as the two integers num^k and den^k (``_check``).

The case of each angle is decided from its powers alone, by the verdict
``classify`` gives (``trig._classification``): x rational makes it
rational-at-n=1, x^2 rational rational-square, and anything else
never-rational, since no least rational exponent is 3 or more.  Those are
the survey's own first two powers, so the sweep builds no witness, no
Phi_M and no long division.

The angles are not surveyed one by one but one Galois orbit at a time.  The
three values at pi*p/q lie in Q(zeta_M), M = lcm(2q, 4), and for c prime to
M the automorphism sigma_c (zeta_M -> zeta_M^c) sends cos(pi p/q) to cos(pi
cp/q), and sin and tan to +-the same function at cp/q (the sign is that of
sigma_c(i) = i^c).  sigma_c fixes Q, so x^n is rational exactly when
sigma_c(x)^n is: which powers are rational, and hence the case, is the same
at p/q and cp/q.  The c mod 2q run over all units mod 2q, so the orbit of p
is p times those units, and the reduced p in [0, 2q) fall into at most two
orbits of phi(2q) members each: the odd p (the units), and, for odd q, the
even p (twice the units).  One representative, the least p, is surveyed per
(q, orbit), for every function at once.  A function with no rational power,
no hit and no violation there is never-rational throughout the orbit and is
booked without more work; for the others every other member is surveyed as
well, since the rational values and their checks differ from member to
member.  By the paper that happens only at q in {1, 2, 3, 4, 6}, but the
sweep decides it from the survey, not from that list.  The orbit step
trusts the power decisions to be Galois-invariant at the members it does
not survey; the tests compare the report with a survey of every angle.
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
    """Book one survey's result for ``members`` angles of ``func``."""
    hits, violations, case = result
    report.hits.extend(hits)
    report.violations.extend(violations)
    report.queries += members * report.config.n_max if case is not Case.UNDEFINED else 0
    by_case = report.case_counts.setdefault(func, {})
    by_case[case] = by_case.get(case, 0) + members


def verify_theorem_sweep(config: SweepConfig) -> SweepReport:
    """Run the full sweep described by ``config`` and collect the report.

    Moduli run in increasing q.  Each (q, orbit) is surveyed at its least
    p, the representative, for every function.  A function that is NEVER
    there with no hit and no violation stands for the whole orbit: by
    Galois invariance (module docstring) none of the phi(2q) members has a
    rational power, so each counts as NEVER with ``n_max`` queries.  The
    functions with any other outcome (a rational power, a pole, a
    violation, a case other than NEVER) are surveyed at every other member
    too, so their hits and violations are those of each angle on its own.
    The report is that of a survey of every reduced angle, hits and
    violations sorted alike.  Everything runs in this one process.
    """
    report = SweepReport(config=config)
    for q in range(1, config.q_max + 1):
        for parity in (1, 0) if q % 2 else (1,):
            funcs = config.funcs
            for member, p in enumerate(_numerators(q, parity)):
                angle, rest = Angle(p, q), []
                powers = _powers(funcs, angle, 1, max(config.n_max, 2))
                for func in funcs:
                    result = _check(func, angle, config.n_max, powers.get(func))
                    hits, violations, case = result
                    if not member and case is Case.NEVER and not hits and not violations:
                        _add(report, func, result, euler_phi(2 * q))
                    else:
                        _add(report, func, result)
                        rest.append(func)
                if not rest:
                    break
                funcs = rest
    report.hits.sort(key=Hit.sort_key)
    report.violations.sort(key=Violation.sort_key)
    return report
