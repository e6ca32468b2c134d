"""Frozen reference implementations that the tests check the library against.

Each one reaches its answer by another route than the decision path it
checks:

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
* ``reference_sweep`` surveys every reduced angle, not one representative
  per Galois orbit.
"""

from fractions import Fraction
from math import gcd, lcm

from trigrat.cyclotomic import CycElem, _power_table, zeta_power
from trigrat.kummer import gauss_sum, sqrt_in_cyclotomic
from trigrat.numtheory import divisors, euler_phi, mobius, squarefree_decompose
from trigrat.polynomials import _divide_monic, _monic_tail, _poly_mul
from trigrat.sweep import Hit, SweepReport, Violation, _survey, reduced_angles
from trigrat.trig import Case, TrigFunc, UndefinedTrigValue


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


def reference_sweep(config):
    """The brute sweep: ``sweep._survey`` at every (func, angle) pair,
    functions outside and angles inside, in process."""
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
