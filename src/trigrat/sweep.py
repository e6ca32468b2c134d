"""Exhaustive verification of the rational-power classification.

``verify_theorem_sweep`` walks every reduced angle p/q with q up to a bound,
raises cos, sin and tan of pi*p/q to every exponent up to another bound by
exact cyclotomic arithmetic, and checks each outcome against what the
classification and the predicted value lists say must happen:

* a rational n-th power forces the base value into the finite list for the
  parity of n (0, +-1/2, +-1 and, for even n, +-sqrt(2)/2, +-sqrt(3)/2 for
  cos and sin; 0, +-1 and +-sqrt(3)/3, +-sqrt(3) for tan);
* an angle classified rational-at-n=1 must have every power rational and
  equal to the power of its value;
* an angle classified rational-square must hit exactly the even exponents;
* an angle classified never-rational must hit nothing.

Every rational power found is recorded as a hit; every broken expectation
as a violation.  A clean sweep is a report with an empty violation list.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .numtheory import format_rational
from .trig import (
    Angle,
    Case,
    TrigFunc,
    classify,
    theorem_value_list,
    value_descriptor,
)

_FUNC_ORDER = {TrigFunc.COS: 0, TrigFunc.SIN: 1, TrigFunc.TAN: 2}


@dataclass(frozen=True)
class SweepConfig:
    """Bounds for one sweep.  ``parallel`` is a worker-process count; zero
    runs in-process (results are identical either way)."""

    q_max: int
    n_max: int
    funcs: tuple[TrigFunc, ...] = (TrigFunc.COS, TrigFunc.SIN, TrigFunc.TAN)
    parallel: int = 0

    def __post_init__(self):
        if self.q_max < 1:
            raise ValueError(f"q_max must be >= 1, got {self.q_max}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not self.funcs:
            raise ValueError("funcs must not be empty")
        if self.parallel < 0:
            raise ValueError(f"parallel must be >= 0, got {self.parallel}")


@dataclass(frozen=True)
class Hit:
    """One rational power: func(pi*theta)^n = value exactly."""

    func: TrigFunc
    angle: Angle
    n: int
    value: Fraction

    def sort_key(self):
        return (_FUNC_ORDER[self.func], self.angle.q, self.angle.p, self.n)

    def to_json(self) -> dict:
        return {
            "func": str(self.func),
            "theta": str(self.angle),
            "n": self.n,
            "value": format_rational(self.value),
        }


@dataclass(frozen=True)
class Violation:
    """A broken expectation, kept machine-readable for triage."""

    func: TrigFunc
    angle: Angle
    n: int | None
    reason: str
    value: Fraction | None = None

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


@dataclass
class SweepReport:
    """Everything a sweep found, in deterministic order."""

    config: SweepConfig
    hits: list[Hit] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    case_counts: dict[TrigFunc, dict[Case, int]] = field(default_factory=dict)
    queries: int = 0

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


def _survey(func: TrigFunc, angle: Angle, n_max: int) -> tuple[list[Hit], list[Violation], Case]:
    """Hits and violations for one (func, angle) pair, exponents 1..n_max."""
    hits: list[Hit] = []
    violations: list[Violation] = []
    classification = classify(func, angle)
    case = classification.case

    is_pole = func is TrigFunc.TAN and angle.q == 2
    if is_pole != (case is Case.UNDEFINED):
        violations.append(Violation(func, angle, None, "pole misclassified"))
    if case is Case.UNDEFINED:
        return hits, violations, case

    x = classification.witness
    odd_list = theorem_value_list(func, "odd")
    even_list = theorem_value_list(func, "even")
    base = value_descriptor(classification) if case is not Case.NEVER else None

    power = None
    first_hit_n = None
    for n in range(1, n_max + 1):
        power = x if power is None else power * x
        value = power.as_rational()
        if value is None:
            if case is Case.VALUE_RATIONAL:
                violations.append(
                    Violation(func, angle, n, "power of a rational value is irrational")
                )
            if case is Case.SQUARE_RATIONAL and n % 2 == 0:
                violations.append(
                    Violation(func, angle, n, "even power with rational square is irrational")
                )
            continue

        hits.append(Hit(func, angle, n, value))
        if first_hit_n is None:
            first_hit_n = n

        if case is Case.NEVER:
            violations.append(
                Violation(func, angle, n, "rational power in a never-rational class", value)
            )
            continue
        if case is Case.SQUARE_RATIONAL and n % 2 == 1:
            violations.append(
                Violation(func, angle, n, "odd power of an irrational value is rational", value)
            )
        expected = classification.value ** (n if case is Case.VALUE_RATIONAL else n // 2)
        if case is Case.VALUE_RATIONAL or n % 2 == 0:
            if value != expected:
                violations.append(
                    Violation(func, angle, n, "power disagrees with classified base value", value)
                )
        allowed = odd_list if n % 2 == 1 else even_list
        if base is not None and base not in allowed:
            violations.append(
                Violation(func, angle, n, "base value outside the predicted list", value)
            )

    if classification.minimal_n is not None and classification.minimal_n <= n_max:
        if first_hit_n != classification.minimal_n:
            violations.append(
                Violation(func, angle, first_hit_n, "least rational exponent mismatch")
            )
    if classification.minimal_n is None and first_hit_n is not None:
        violations.append(
            Violation(func, angle, first_hit_n, "hit despite no classified minimal exponent")
        )
    return hits, violations, case


def verify_theorem_sweep(config: SweepConfig) -> SweepReport:
    """Run the full sweep described by ``config`` and collect the report.

    The parallel path chunks (func, angle) pairs over a process pool; the
    order-preserving map keeps the report identical to a sequential run.
    """
    angles = reduced_angles(config.q_max)
    tasks = [(func, angle, config.n_max) for func in config.funcs for angle in angles]
    if config.parallel > 1:
        with multiprocessing.Pool(config.parallel) as pool:
            results = pool.starmap(_survey, tasks, chunksize=16)
    else:
        results = [_survey(*t) for t in tasks]

    report = SweepReport(config=config)
    for (func, angle, n_max), (hits, violations, case) in zip(tasks, results):
        report.hits.extend(hits)
        report.violations.extend(violations)
        report.queries += n_max if case is not Case.UNDEFINED else 0
        by_case = report.case_counts.setdefault(func, {})
        by_case[case] = by_case.get(case, 0) + 1
    report.hits.sort(key=Hit.sort_key)
    report.violations.sort(key=Violation.sort_key)
    return report
