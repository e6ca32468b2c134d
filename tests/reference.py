"""Frozen reference implementations that the tests check the library against.

Each one reaches its answer by another route than the decision path it
checks:

* ``reference_mul``, ``reference_galois_apply`` and ``reference_embed``
  reduce through the rows of the power table, not through the reduction
  kernel;
* ``reference_trig_elem`` builds sin and tan by field inversion, not from
  the division-free closed forms;
* ``reference_power_values`` raises that value to dense powers in the
  power basis, not in the group ring;
* ``reference_sqrt_member`` decides square-root membership by the general
  Galois-invariance procedure and a linear descent, not by the conductor.
"""

from fractions import Fraction
from math import gcd, lcm

from trigrat.cyclotomic import CycElem, _power_table, express_in_submodulus, zeta_power
from trigrat.kummer import sqrt_in_cyclotomic
from trigrat.trig import TrigFunc, UndefinedTrigValue


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
