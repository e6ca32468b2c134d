"""Checks on trigrat's outputs that share no code with trigrat.

Everything here is integer arithmetic, ``fractions.Fraction`` and, for the
numeric witness checks only, ``math``/``cmath`` floats.  The expected
verdicts come from closed forms:

* the sweep's hits follow from the paper's value lists (cos and sin land in
  0, +-1/2, +-1 for odd n and additionally +-sqrt(2)/2, +-sqrt(3)/2 for even
  n; tan in 0, +-1 and additionally +-sqrt(3)/3, +-sqrt(3));
* sqrt(d), d squarefree, lies in Q(zeta_m) iff the conductor of Q(sqrt d)
  (d if d = 1 mod 4, else 4d) divides m;
* x^n - alpha, alpha > 0, is irreducible iff alpha is no r-th power for any
  prime r dividing n.

Each ``check_*`` function returns None when the answer is right and a short
reason string when it is wrong.  ``check_call`` also fails a call that
exits nonzero, but counts that as a wrong answer only when the answer in
its output is wrong too.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

FUNCS = ("cos", "sin", "tan")
_NUMERIC_TOL = 1e-9


# ----------------------------------------------------------------------
# integer helpers

def int_root(x: int, k: int) -> int | None:
    """The integer r >= 0 with r**k == x, or None."""
    if x < 2:
        return x if x >= 0 else None
    r = 1 << -(-x.bit_length() // k)  # Newton's method from above
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r ** k == x else None


def rational_root(alpha: Fraction, k: int) -> Fraction | None:
    """The positive rational r with r**k == alpha, or None."""
    num = int_root(alpha.numerator, k)
    den = int_root(alpha.denominator, k)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def phi(n: int) -> int:
    result = n
    for p in prime_factors(n):
        result = result // p * (p - 1)
    return result


def squarefree_part(alpha: Fraction) -> int:
    """The squarefree integer d with alpha = r^2 * d, r rational."""
    n = alpha.numerator * alpha.denominator
    d = 1
    for p in prime_factors(n):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            d *= p
    return d


def conductor(d: int) -> int:
    """Conductor of Q(sqrt d) for squarefree d >= 1 (1 for d = 1)."""
    if d == 1:
        return 1
    return d if d % 4 == 1 else 4 * d


def root_member_expected(alpha: Fraction, n: int, m: int) -> bool:
    """Whether the real alpha^(1/n) lies in Q(zeta_m), by the conductor rule.

    With e the largest divisor of n for which alpha is an e-th power and
    k = n/e, the root is rational for k = 1, a quadratic irrationality for
    k = 2 (a member iff the conductor of sqrt(alpha^(1/e)) divides m), and of
    degree k >= 3 otherwise, which no abelian field contains.
    """
    e = max(d for d in range(1, n + 1) if n % d == 0 and rational_root(alpha, d) is not None)
    k = n // e
    if k == 1:
        return True
    if k > 2:
        return False
    beta = rational_root(alpha, e)
    return m % conductor(squarefree_part(beta)) == 0


def radical_irreducible(alpha: Fraction, n: int) -> bool:
    """Irreducibility of x^n - alpha over Q for alpha > 0."""
    return all(rational_root(alpha, r) is None for r in prime_factors(n))


# ----------------------------------------------------------------------
# numeric evaluation of a witness {"modulus": m, "coeffs": [...]}

def witness_close(witness: dict, x: float) -> bool:
    """Whether the witness evaluates to the real number x, within a
    tolerance scaled by the size of its coordinates."""
    m = witness["modulus"]
    coeffs = [float(Fraction(c)) for c in witness["coeffs"]]
    z = sum((c * cmath.exp(2j * math.pi * k / m) for k, c in enumerate(coeffs) if c), complex(0))
    scale = max(1.0, abs(x), sum(abs(c) for c in coeffs))
    return abs(z - x) <= _NUMERIC_TOL * scale


# ----------------------------------------------------------------------
# sweep

# the paper's value lists as (sign, square) pairs, split by parity of n
def _both(square: Fraction) -> list[tuple[int, Fraction]]:
    return [(1, square), (-1, square)]


_ODD_COS_SIN = [(0, Fraction(0))] + _both(Fraction(1, 4)) + _both(Fraction(1))
_ODD_TAN = [(0, Fraction(0))] + _both(Fraction(1))
_EVEN_COS_SIN = _ODD_COS_SIN + _both(Fraction(1, 2)) + _both(Fraction(3, 4))
VALUE_LISTS = {
    ("cos", "odd"): _ODD_COS_SIN,
    ("sin", "odd"): _ODD_COS_SIN,
    ("tan", "odd"): _ODD_TAN,
    ("cos", "even"): _EVEN_COS_SIN,
    ("sin", "even"): _EVEN_COS_SIN,
    ("tan", "even"): _ODD_TAN + _both(Fraction(1, 3)) + _both(Fraction(3)),
}


def _float_value(func: str, p: int, q: int) -> float | None:
    """func(pi*p/q) as a float; None at the poles of tan."""
    if func == "tan" and q == 2:
        return None
    x = math.pi * p / q
    return {"cos": math.cos, "sin": math.sin, "tan": math.tan}[func](x)


def reduced_angles(q_max: int) -> list[tuple[int, int]]:
    return [(p, q) for q in range(1, q_max + 1) for p in range(2 * q) if math.gcd(p, q) == 1]


def expected_hits(q_max: int, n_max: int, funcs=FUNCS) -> set:
    """The closed-form hit set {(func, "p/q", n, value)}.

    A power x^n is rational exactly when x sits in the value list for the
    parity of n; the list entries are far apart from every other trig value
    at these denominators, so a float comparison picks the entry, and the
    power's value then follows exactly from that entry.
    """
    hits = set()
    for func in funcs:
        for p, q in reduced_angles(q_max):
            x = _float_value(func, p, q)
            if x is None:
                continue
            for n in range(1, n_max + 1):
                parity = "odd" if n % 2 else "even"
                for sign, square in VALUE_LISTS[(func, parity)]:
                    if abs(x - sign * math.sqrt(square)) < 1e-9:
                        if n % 2:
                            value = (sign * rational_root(square, 2)) ** n
                        else:
                            value = square ** (n // 2)
                        hits.add((func, f"{p}/{q}", n, str(value)))
    return hits


def expected_queries(q_max: int, n_max: int, funcs=FUNCS) -> int:
    """Sum over funcs of n_max * (2 phi(q) summed over q, less tan's poles)."""
    angles = sum(2 * phi(q) for q in range(1, q_max + 1))
    poles = 2 if q_max >= 2 else 0
    return sum(n_max * (angles - (poles if f == "tan" else 0)) for f in funcs)


def check_sweep(payload: dict, q_max: int, n_max: int, funcs=FUNCS) -> str | None:
    hits = expected_hits(q_max, n_max, funcs)
    totals = payload["totals"]
    if payload["violations"] or totals["violations"]:
        return f"{totals['violations']} violations"
    queries = expected_queries(q_max, n_max, funcs)
    if totals["queries"] != queries:
        return f"queries {totals['queries']} != {queries}"
    got = {(h["func"], h["theta"], h["n"], h["value"]) for h in payload["hits"]}
    if got != hits or totals["hits"] != len(hits):
        return f"hit set differs: {len(got ^ hits)} entries"
    return None


# ----------------------------------------------------------------------
# the single-call subcommands

def check_classify(payload: dict, func: str, p: int, q: int) -> str | None:
    if payload.get("case") != "never":
        return f"case {payload.get('case')}, expected never"
    if payload.get("theta") != f"{p}/{q}" or payload.get("func") != func:
        return "echoed query differs"
    if not witness_close(payload["witness"], _float_value(func, p, q)):
        return f"witness is not {func}(pi*{p}/{q})"
    return None


def _root_witness_ok(witness: dict, m: int, value: float) -> bool:
    return witness is not None and witness["modulus"] == m and witness_close(witness, value)


def check_root_member(payload: dict, alpha: Fraction, n: int, m: int) -> str | None:
    expected = root_member_expected(alpha, n, m)
    answer = payload.get("answer")
    if answer != ("YES" if expected else "NO"):
        return f"answer {answer}, expected {'YES' if expected else 'NO'}"
    if expected and not _root_witness_ok(payload["witness"], m, float(alpha) ** (1.0 / n)):
        return "YES witness is not alpha^(1/n)"
    return None


def check_irreducible(payload: dict, alpha: Fraction, n: int) -> str | None:
    expected = radical_irreducible(alpha, n)
    if payload.get("irreducible") != expected:
        return f"irreducible {payload.get('irreducible')}, expected {expected}"
    return None


def oracle_false_alarm(payload: dict, alpha: Fraction, n: int) -> str | None:
    """The reason when trigrat's subset oracle alone is wrong: the verdict
    is right, so the call failed (it exits 1) but answered correctly."""
    expected = not radical_irreducible(alpha, n)
    if payload.get("oracle_reducible") != expected:
        return f"oracle_reducible {payload.get('oracle_reducible')}, expected {expected}"
    return None


def check_sqrt_embed(payload: dict, alpha: Fraction) -> str | None:
    expected = conductor(squarefree_part(alpha))
    if payload.get("modulus") != expected:
        return f"modulus {payload.get('modulus')}, expected conductor {expected}"
    if not _root_witness_ok(payload["witness"], expected, math.sqrt(alpha)):
        return "witness is not sqrt(alpha)"
    return None


def check_call(call: dict, code: int, stdout: str) -> tuple[str, bool] | None:
    """Check one CLI call described by ``call`` (see workloads.py).  Returns
    None when it succeeded, else ``(reason, wrong)``: ``wrong`` says the
    program gave a wrong answer, not merely a failing exit.  The answer is
    checked whenever the output is JSON, whatever the exit code."""
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        payload = None
    if not isinstance(payload, dict):
        if code != 0:
            return f"exit code {code}", False
        return "output is not JSON", True
    try:
        reason = check_answer(call, payload)
    except (LookupError, TypeError, ValueError) as exc:
        reason = f"malformed output: {exc!r}"
    if reason is not None:
        return reason, True
    if call["kind"] == "irreducible":
        reason = oracle_false_alarm(payload, Fraction(call["alpha"]), call["n"])
        if reason is not None:
            return f"subset oracle false alarm: {reason}", False
    if code != 0:
        return f"exit code {code}", False
    return None


def check_answer(call: dict, payload: dict) -> str | None:
    kind = call["kind"]
    if kind == "sweep":
        return check_sweep(payload, call["q_max"], call["n_max"], tuple(call["funcs"]))
    if kind == "classify":
        return check_classify(payload, call["func"], call["p"], call["q"])
    alpha = Fraction(call["alpha"])
    if kind == "root-member":
        return check_root_member(payload, alpha, call["n"], call["m"])
    if kind == "irreducible":
        return check_irreducible(payload, alpha, call["n"])
    if kind == "sqrt-embed":
        return check_sqrt_embed(payload, alpha)
    raise ValueError(f"unknown call kind {kind!r}")
