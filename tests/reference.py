"""Frozen reference implementations that the tests check the library against.

Each one reaches its answer by another route than the decision path it
checks:

* ``mobius``, ``squarefree_decompose`` and ``poly_divmod`` (long division
  over Q) have no counterpart in the library: the references below and
  the tests build on them;
* ``reference_cyclotomic_coeffs`` builds Phi_m from the Moebius product
  over all divisors of m, divided once by the dense product of its
  denominator binomials, not one binomial at a time at the radical of m;
* ``reference_mul``, ``reference_galois_apply`` and ``reference_embed``
  reduce through the rows of the power table, not through the reduction
  kernel;
* ``reference_trig_elem`` builds sin and tan by field inversion, not from
  the division-free closed forms;
* ``reference_power_values`` raises that value to dense powers in the
  power basis, not by the binomial theorem;
* ``reference_sqrt_witness`` builds the square-root witness as a product
  of a rational, sqrt(2), a Gauss sum and 1/i, each embedded into the
  conductor, not as one combination of roots of unity;
* ``reference_sqrt_member`` decides square-root membership by the general
  Galois-invariance procedure and a linear descent
  (``express_in_submodulus``, Gauss-Jordan over the power table), not by
  the conductor;
* ``trig_embedding_error`` checks a trig witness, which no verdict
  reads, in floats at every embedding sigma_c of Q(zeta_M), not by exact
  arithmetic in the power basis;
* ``reference_check`` checks one survey hit by hit: each hit raises the
  classified value to its power as a Fraction and looks the base value up
  in the list of its parity, where ``sweep._check`` scans a never-rational
  survey once and looks the base value up once per parity;
* ``reference_sweep`` surveys every reduced angle, not one representative
  per Galois orbit, each function on its own (``_survey``), and checks
  each survey with ``reference_check``;
* ``reference_subset_factorizations`` multiplies every subset of roots out
  from scratch in floats, rebuilds every real-looking candidate with
  ``limit_denominator`` and divides it over Q, the oracle's design before
  it worked in integers.  It keeps that design's two constants, so it
  misses every factor with a denominator past FLOAT_DENOMINATOR_CAP, and
  every factor whose float product has imaginary parts past
  FLOAT_IMAG_TOLERANCE (roots of modulus 10^10, say); the tests compare
  against it only on inputs with roots of modulus below 2.5 and factors'
  denominators within the cap;
* ``reference_exact_subset_factorizations`` rebuilds every coefficient of
  every closed subset's product exactly, as the rational n-th root of
  alpha^d * e_d^n with e_d in Q(zeta_n), and divides over Q: no floats but
  a sign, no integer substitution, no size filter;
* ``reference_prime_factorization``, ``reference_squarefree_part`` and
  ``reference_polygon_moves`` are three trial-division loops, each with
  its own stopping rule, not the one bounded ``numtheory._trial_division``
  that the library's three callers share;
* ``reference_integer_nth_root`` bisects the bracket 2^t <= r < 2^(t+1),
  t = (bits(x) - 1) // n, one n-th power per step, not Newton's iteration;
* ``reference_radical_condition`` searches the divisors of n upward for a
  rational root and ``reference_rational_root_degree`` downward for the
  largest, each on its own, not through ``numtheory._root_reduction``.
"""

import cmath
import itertools
import math
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from trigrat import sweep
from trigrat.cyclotomic import CycElem, _power_table, root_combination, zeta_power
from trigrat.kummer import SubsetFactor, gauss_sum, sqrt_in_cyclotomic
from trigrat.numtheory import (
    _check_natural,
    _check_positive,
    _squarefree_part,
    divisors,
    euler_phi,
    nth_root_rational,
    prime_factorization,
)
from trigrat.polynomials import RatPoly, _divide_monic, _monic_tail, _poly_mul
from trigrat.sweep import Hit, SweepReport, Violation, reduced_angles
from trigrat.trig import (
    MAX_POLYGON_SPREAD,
    Case,
    TrigFunc,
    UndefinedTrigValue,
    _powers,
    theorem_value_list,
    value_descriptor,
)


def mobius(n: int) -> int:
    """The Moebius function: 0 on non-squarefree n, else (-1)**(#primes)."""
    _check_natural(n, 1)
    factorization = prime_factorization(n)
    if any(e >= 2 for _, e in factorization):
        return 0
    return -1 if len(factorization) % 2 else 1


def squarefree_decompose(alpha: Fraction) -> tuple[Fraction, int]:
    """Write alpha = r**2 * d with r rational and d a squarefree integer.

    d is the squarefree part of numerator * denominator of the reduced alpha.
    """
    alpha = _check_positive(alpha)
    nd = alpha.numerator * alpha.denominator
    d = _squarefree_part(nd, isqrt(nd))  # the bound reaches sqrt(nd): never None
    r = nth_root_rational(alpha / d, 2)
    assert r is not None  # alpha/d is a perfect square by construction
    return r, d


def poly_divmod(num: RatPoly, den: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Quotient and remainder of num by den over Q: the division by the
    monic den / lead gives lead * quotient."""
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    lead = den.coeffs[-1]
    rem = list(num.coeffs)
    quotient = _divide_monic(rem, *_monic_tail([c / lead for c in den.coeffs]))
    return RatPoly(c / lead for c in quotient), RatPoly(rem[: den.degree])


def reference_cyclotomic_coeffs(m: int) -> tuple[int, ...]:
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
            num = _poly_mul(num, binomial)
        else:
            den = _poly_mul(den, binomial)
    quotient = _divide_monic(num, *_monic_tail(den))
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return tuple(quotient)


def _reference_combination(m, terms):
    table = _power_table(m)
    out = [Fraction(0)] * len(table[0])
    for k, c in terms:
        if c:
            for i, t in enumerate(table[k]):
                out[i] += c * t
    return CycElem(m, out)


def reference_mul(x, y):
    conv = [Fraction(0)] * (2 * len(x.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            conv[i + j] += a * b
    return _reference_combination(x.modulus, enumerate(conv))


def reference_galois_apply(x, c):
    m = x.modulus
    return _reference_combination(m, [(i * c % m, a) for i, a in enumerate(x.coeffs)])


def reference_embed(x, big):
    stride = big // x.modulus
    return _reference_combination(big, [(i * stride, a) for i, a in enumerate(x.coeffs)])


def reference_trig_elem(func, angle):
    """Reference formula: cos = (z^e + z^-e)/2, sin = that difference
    over 2i and tan = sin/cos, each division by field inversion."""
    m = lcm(2 * angle.q, 4)
    e = angle.p * m // (2 * angle.q)
    plus = zeta_power(m, e)
    minus = zeta_power(m, -e)
    half = Fraction(1, 2)
    if func is TrigFunc.COS:
        return (plus + minus) * half
    i_unit = zeta_power(m, m // 4)
    sine = (plus - minus) * half / i_unit
    if func is TrigFunc.SIN:
        return sine
    cosine = (plus + minus) * half
    if cosine.is_zero():
        raise UndefinedTrigValue(f"tan(pi * {angle}) is undefined")
    return sine / cosine


def reference_power_values(func, angle, n_max):
    """func(pi*angle)^n for n = 1..n_max, each a dense power in the power
    basis read off by ``as_rational``: the exact value or None."""
    x = reference_trig_elem(func, angle)
    return [(x ** n).as_rational() for n in range(1, n_max + 1)]


def trig_embedding_error(witness, func, angle):
    """The largest |sigma_c(x) - func's value at sigma_c| over the units c
    mod M, relative to sum |x_k|, for a witness x = sum x_k zeta_M^k of
    func(pi*angle), M = lcm(2q, 4).

    sigma_c (zeta_M -> zeta_M^c) takes x to sum x_k exp(2 pi i ck/M), and
    takes cos(pi p/q) to cos(pi pc/q), and sin and tan to chi_4(c) times
    sin and tan at pc/q, since sigma_c(i) = i^c.  Each power of
    exp(2 pi i c/M) is one float product from the one before, and pc is
    reduced mod 2q before it is scaled by pi/q."""
    m, q = witness.modulus, angle.q
    xs = [float(a) for a in witness.coeffs]
    value_at = {TrigFunc.COS: math.cos, TrigFunc.SIN: math.sin, TrigFunc.TAN: math.tan}[func]
    worst = 0.0
    for c in range(1, m):
        if gcd(c, m) == 1:
            z = cmath.exp(2j * cmath.pi * c / m)
            image = sum(map(mul, xs, itertools.accumulate(itertools.repeat(z, len(xs) - 1), mul, initial=1)))
            chi = 1 if func is TrigFunc.COS or c % 4 == 1 else -1
            worst = max(worst, abs(image - chi * value_at(math.pi * (angle.p * c % (2 * q)) / q)))
    return worst / sum(map(abs, xs))


def reference_sqrt_witness(alpha):
    """(conductor, sqrt(alpha)) as a product: r, times zeta_8 + 1/zeta_8
    when the squarefree part d is even, times the Gauss sum of the odd part
    d', divided by i = zeta_4 when d' = 3 mod 4."""
    r, d = squarefree_decompose(Fraction(alpha))
    modulus = d if d % 4 == 1 else 4 * d
    witness = CycElem.from_rational(modulus, r)
    if d % 2 == 0:
        witness = witness * (zeta_power(8, 1) + zeta_power(8, -1)).embed(modulus)
    odd = d if d % 2 else d // 2
    if odd > 1:
        g = gauss_sum(odd)
        if odd % 4 == 1:
            witness = witness * g.embed(modulus)
        else:
            m2 = 4 * odd
            witness = witness * (g.embed(m2) * zeta_power(m2, -(m2 // 4))).embed(modulus)
    return modulus, witness


def express_in_submodulus(x: CycElem, sub_modulus: int) -> CycElem | None:
    """Coordinates of x in the power basis of Q(zeta_sub), or None.

    A general descent by Gauss-Jordan elimination; the library decides root
    membership by the conductor instead.  ``sub_modulus`` must divide
    ``x.modulus``.  The
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


def reference_sqrt_member(beta, m: int) -> CycElem | None:
    """Reference for the conductor rule: the general Galois-invariance
    procedure.  sqrt(beta) lies in Q(zeta_m) iff its witness is fixed by
    every automorphism of the compositum that fixes Q(zeta_m); a fixed
    witness is then descended by solving a linear system.  Returns the
    witness in Q(zeta_m), or None."""
    m_norm = m // 2 if m % 4 == 2 else m
    w_mod, w = sqrt_in_cyclotomic(beta)
    big = lcm(m_norm, w_mod)
    w_big = w.embed(big)
    fixed = all(
        w_big.galois_apply(c) == w_big
        for c in range(1, big + 1)
        if gcd(c, big) == 1 and (c - 1) % m_norm == 0
    )
    if not fixed:
        return None
    descended = express_in_submodulus(w_big, m_norm)
    assert descended is not None, (beta, m)
    return descended.embed(m)


def reference_check(func, angle, n_max, values):
    """Hits, violations and case of one function at one angle, from its
    powers ``values`` at n = 1, 2, ... (None at a pole), as ``sweep._check``
    gives them.  The case is read through ``sweep._classification`` when
    called, so a classification a test plants there is read here too."""
    hits = []
    violations = []

    def violation(n, reason, value=None):
        violations.append(Violation(func, angle, n, reason, value))

    classification = sweep._classification(func, angle, values)
    case = classification.case

    is_pole = func is TrigFunc.TAN and angle.q == 2
    if is_pole != (case is Case.UNDEFINED):
        violation(None, "pole misclassified")
    if case is Case.UNDEFINED:
        return hits, violations, case

    odd_list = theorem_value_list(func, "odd")
    even_list = theorem_value_list(func, "even")
    base = value_descriptor(classification) if case is not Case.NEVER else None

    first_hit_n = None
    for n, value in zip(range(1, n_max + 1), values):
        if value is None:
            if case is Case.VALUE_RATIONAL:
                violation(n, "power of a rational value is irrational")
            if case is Case.SQUARE_RATIONAL and n % 2 == 0:
                violation(n, "even power with rational square is irrational")
            continue

        hits.append(Hit(func, angle, n, value))
        if first_hit_n is None:
            first_hit_n = n

        if case is Case.NEVER:
            violation(n, "rational power in a never-rational class", value)
            continue
        if case is Case.SQUARE_RATIONAL and n % 2 == 1:
            violation(n, "odd power of an irrational value is rational", value)
        expected = classification.value ** (n if case is Case.VALUE_RATIONAL else n // 2)
        if case is Case.VALUE_RATIONAL or n % 2 == 0:
            if value != expected:
                violation(n, "power disagrees with classified base value", value)
        allowed = odd_list if n % 2 == 1 else even_list
        if base is not None and base not in allowed:
            violation(n, "base value outside the predicted list", value)

    minimal_n = classification.minimal_n
    if minimal_n is not None and minimal_n <= n_max and first_hit_n != minimal_n:
        violation(first_hit_n, "least rational exponent mismatch")
    if minimal_n is None and first_hit_n is not None:
        violation(first_hit_n, "hit despite no classified minimal exponent")
    return hits, violations, case


def _survey(func, angle, n_max):
    """Hits, violations and case for one (func, angle) pair, exponents
    1..n_max: ``reference_check`` on the powers ``trig._powers`` reads for
    that one function."""
    return reference_check(func, angle, n_max, _powers((func,), angle, 1, max(n_max, 2)).get(func))


def reference_sweep(config):
    """The brute sweep: ``_survey`` at every (func, angle) pair, functions
    outside and angles inside, in process."""
    angles = reduced_angles(config.q_max)
    tasks = [(func, angle, config.n_max) for func in config.funcs for angle in angles]
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


FLOAT_DENOMINATOR_CAP = 10 ** 6
FLOAT_IMAG_TOLERANCE = 1e-6


def reference_subset_factorizations(alpha, n: int) -> list[SubsetFactor]:
    """The float subset scan one subset at a time: each subset's product
    multiplied out from scratch, and every candidate whose product looks
    real reconstructed with denominators up to FLOAT_DENOMINATOR_CAP and
    divided."""
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
            if any(abs(c.imag) > FLOAT_IMAG_TOLERANCE for c in coeffs):
                continue
            candidate = RatPoly(
                Fraction(c.real).limit_denominator(FLOAT_DENOMINATOR_CAP)
                for c in coeffs
            )
            quotient, remainder = poly_divmod(target, candidate)
            if remainder.is_zero():
                found.append(SubsetFactor(frozenset(subset), candidate, quotient))
    return found


def reference_exact_subset_factorizations(alpha, n: int) -> list[SubsetFactor]:
    """Every closed subset S of 0..n-1, in ``itertools.combinations``
    order, whose product of x - alpha^(1/n) zeta_n^j divides x^n - alpha.

    The coefficient of x^(s-d) is (-1)^d alpha^(d/n) e_d, e_d the d-th
    elementary symmetric function of the zeta_n^j, j in S.  It is rational
    iff alpha^d e_d^n is the n-th power of a rational r, and then it is
    +-r with the sign of (-1)^d e_d: e_d is real for a closed S, and
    |e_d| >= 1 when e_d^n is a nonzero rational (an algebraic integer), so
    a float sum of the roots of unity decides the sign."""
    alpha = _check_positive(alpha)
    target = RatPoly.monomial(n) - alpha
    found = []
    for size in range(1, n):
        for subset in itertools.combinations(range(n), size):
            if set(subset) != {(n - j) % n for j in subset}:
                continue
            coeffs = []
            for d in range(size, 0, -1):
                sums = [sum(t) for t in itertools.combinations(subset, d)]
                power = (root_combination(n, [(k, 1) for k in sums]) ** n).as_rational()
                if power is None:
                    break
                root = nth_root_rational(alpha ** d * abs(power), n) if power else Fraction(0)
                if root is None:
                    break
                e_d = sum(cmath.exp(2j * cmath.pi * k / n) for k in sums).real
                coeffs.append(root if (e_d > 0) == (d % 2 == 0) else -root)
            else:
                candidate = RatPoly(coeffs + [1])
                quotient, remainder = poly_divmod(target, candidate)
                if remainder.is_zero():
                    found.append(SubsetFactor(frozenset(subset), candidate, quotient))
    return found


def reference_prime_factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Sorted (prime, exponent) pairs of n >= 1, trial division by 2 and
    the odd numbers while p * p <= n."""
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def reference_squarefree_part(n: int, bound: int) -> int | None:
    """The squarefree part of n >= 1 from trial division by 2 and the odd
    numbers up to bound, or None when what is left is neither 1, a prime
    nor a square."""
    d, p = 1, 2
    while p <= bound and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if p * p > n:  # n is 1 or a prime
        return d * n
    return d if isqrt(n) ** 2 == n else None


def reference_polygon_moves(m: int) -> tuple[tuple[int, int, int, int], ...]:
    """``trig._polygon_moves`` by trial division of M's odd part that stops
    as soon as the spread passes MAX_POLYGON_SPREAD, and takes what is left
    as one factor once p passes MAX_POLYGON_SPREAD + 1."""
    moves, rest, spread, p = [], m // (m & -m), 1, 3
    while rest > 1 and spread <= MAX_POLYGON_SPREAD:
        if p * p > rest or p > MAX_POLYGON_SPREAD + 1:
            p = rest
        if rest % p == 0:
            pa = p
            rest //= p
            while rest % p == 0:
                pa, rest = pa * p, rest // p
            spread *= p - 1
            moves.append((pa, pow(m // pa, -1, pa), pa - pa // p, m // p))
        p += 2
    if spread > MAX_POLYGON_SPREAD:
        raise ValueError(f"the spread prod(p - 1) over the odd primes p of M = {m}"
                         f" is above the limit {MAX_POLYGON_SPREAD}")
    return tuple(moves)


def reference_integer_nth_root(x: int, n: int) -> int:
    """Largest r >= 0 with r**n <= x, by binary search from the bracket
    2^t <= r < 2^(t+1), t = (bits(x) - 1) // n."""
    if x in (0, 1) or n == 1:
        return x
    lo, hi = 1 << (x.bit_length() - 1) // n, 2 << (x.bit_length() - 1) // n
    while hi - lo > 1:  # lo**n <= x < hi**n
        mid = (lo + hi) // 2
        if mid ** n <= x:
            lo = mid
        else:
            hi = mid
    return lo


def _root_bound(alpha: Fraction, n: int) -> int:
    """The largest e worth trying: 2^e <= a for a part a > 1 of alpha."""
    return min(n, max(alpha.numerator.bit_length(), alpha.denominator.bit_length()))


def reference_radical_condition(alpha: Fraction, n: int) -> bool:
    """No divisor r >= 2 of n, up to alpha's bit length, at which alpha is
    a rational r-th power, tried upward."""
    if alpha == 1:
        return False
    return all(nth_root_rational(alpha, r) is None for r in range(2, _root_bound(alpha, n) + 1) if n % r == 0)


def reference_rational_root_degree(alpha: Fraction, n: int) -> int:
    """The largest divisor e of n, up to alpha's bit length, at which alpha
    is a rational e-th power, tried downward."""
    if alpha == 1:
        return n
    return next(d for d in range(_root_bound(alpha, n), 0, -1) if n % d == 0 and nth_root_rational(alpha, d) is not None)
