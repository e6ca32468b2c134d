import math
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrat import trig
from trigrat.cyclotomic import CycElem
from trigrat.sweep import SweepConfig, _survey, reduced_angles, verify_theorem_sweep
from trigrat.trig import (
    MAX_POWER_EXPONENT,
    Angle,
    Case,
    TrigFunc,
    UndefinedTrigValue,
    ValueDescriptor,
    classify,
    power_rational,
    theorem_value_list,
    trig_elem,
    value_descriptor,
)

from reference import reference_power_values, reference_trig_elem

COS, SIN, TAN = TrigFunc.COS, TrigFunc.SIN, TrigFunc.TAN


@st.composite
def angles(draw, q_max=30):
    q = draw(st.integers(1, q_max))
    p = draw(st.integers(0, 2 * q - 1))
    if gcd(p, q) != 1:
        g = gcd(p, q)
        p, q = p // g, q // g
    return Angle(p, q)


def test_angle_normalization():
    assert Angle.normalized(7, 3) == Angle(1, 3)
    assert Angle.normalized(-1, 4) == Angle(7, 4)
    assert Angle.normalized(5, -10) == Angle(3, 2)
    assert Angle.parse("9/4") == Angle(1, 4)
    assert str(Angle(1, 6)) == "1/6"
    assert Angle(1, 6).theta == Fraction(1, 6)


def test_angle_validation():
    with pytest.raises(ValueError):
        Angle(2, 4)  # not reduced
    with pytest.raises(ValueError):
        Angle(9, 4)  # outside [0, 2)
    with pytest.raises(ValueError):
        Angle(1, 0)
    with pytest.raises(ValueError):
        Angle.normalized(1, 0)


def test_trigfunc_parse():
    assert TrigFunc.parse("COS") is COS
    assert TrigFunc.parse(" tan ") is TAN
    with pytest.raises(ValueError):
        TrigFunc.parse("sec")


def test_known_values():
    assert trig_elem(COS, Angle(0, 1)).as_rational() == 1
    assert trig_elem(COS, Angle(1, 1)).as_rational() == -1
    assert trig_elem(COS, Angle(1, 3)).as_rational() == Fraction(1, 2)
    assert trig_elem(COS, Angle(1, 2)).as_rational() == 0
    assert trig_elem(SIN, Angle(0, 1)).as_rational() == 0
    assert trig_elem(SIN, Angle(1, 6)).as_rational() == Fraction(1, 2)
    assert trig_elem(SIN, Angle(3, 2)).as_rational() == -1
    assert trig_elem(TAN, Angle(1, 4)).as_rational() == 1
    assert trig_elem(TAN, Angle(3, 4)).as_rational() == -1
    assert trig_elem(TAN, Angle(0, 1)).as_rational() == 0


def test_tan_pole_raises():
    with pytest.raises(UndefinedTrigValue):
        trig_elem(TAN, Angle(1, 2))
    with pytest.raises(UndefinedTrigValue):
        power_rational(TAN, Angle(3, 2), 4)


def test_power_rational_examples():
    assert power_rational(COS, Angle(1, 4), 2) == Fraction(1, 2)
    assert power_rational(SIN, Angle(1, 3), 2) == Fraction(3, 4)
    assert power_rational(TAN, Angle(1, 6), 2) == Fraction(1, 3)
    assert power_rational(TAN, Angle(1, 3), 2) == 3
    assert power_rational(COS, Angle(1, 5), 2) is None
    assert power_rational(COS, Angle(1, 5), 1) is None
    with pytest.raises(ValueError):
        power_rational(COS, Angle(1, 3), 0)


def test_power_rational_refuses_exponents_past_the_limit():
    n = MAX_POWER_EXPONENT
    assert power_rational(COS, Angle(1, 3), n) == Fraction(1, 2) ** n
    assert power_rational(TAN, Angle(1, 6), n) == Fraction(1, 3) ** (n // 2)
    assert power_rational(COS, Angle(1, 60), n) is None
    with pytest.raises(ValueError, match=f"<= {n}"):
        power_rational(COS, Angle(1, 3), n + 1)
    with pytest.raises(ValueError):
        power_rational(COS, Angle(1, 60), 10 ** 6)


@given(angles())
def test_trig_values_are_real(angle):
    for func in (COS, SIN) if angle.q == 2 else (COS, SIN, TAN):
        x = trig_elem(func, angle)
        assert x.conjugate() == x


@given(angles())
def test_pythagorean_identity(angle):
    c = trig_elem(COS, angle)
    s = trig_elem(SIN, angle)
    assert (c * c + s * s).as_rational() == 1


def test_pythagorean_identity_exhaustive_small_q():
    for q in range(1, 31):
        for p in range(0, 2 * q):
            if gcd(p, q) == 1:
                angle = Angle(p, q)
                c = trig_elem(COS, angle)
                s = trig_elem(SIN, angle)
                assert (c * c + s * s).as_rational() == 1


def test_half_angle_identity():
    """cos(pi t)^2 = (1 + cos(2 pi t))/2, with the doubled angle reduced."""
    for q in range(1, 31):
        for p in range(0, 2 * q):
            if gcd(p, q) != 1:
                continue
            angle = Angle(p, q)
            doubled = Angle.normalized(2 * p, q)
            m = lcm(trig_elem(COS, angle).modulus, trig_elem(COS, doubled).modulus)
            lhs = (trig_elem(COS, angle) ** 2).embed(m)
            rhs = (trig_elem(COS, doubled).embed(m) + 1) * Fraction(1, 2)
            assert lhs == rhs, angle


def test_tan_square_identity():
    # tan^2 = 1/cos^2 - 1 away from poles
    for q in (1, 3, 4, 5, 6, 7, 12):
        for p in range(0, 2 * q):
            if gcd(p, q) != 1:
                continue
            angle = Angle(p, q)
            t = trig_elem(TAN, angle)
            c = trig_elem(COS, angle)
            assert t * t == (c * c).inverse() - 1


@given(angles(q_max=50))
@settings(max_examples=60)
def test_numeric_agreement_with_math_library(angle):
    theta = math.pi * angle.p / angle.q
    assert abs(trig_elem(COS, angle).numeric_eval().real - math.cos(theta)) < 1e-9
    assert abs(trig_elem(SIN, angle).numeric_eval().real - math.sin(theta)) < 1e-9
    if angle.q != 2:
        assert abs(trig_elem(TAN, angle).numeric_eval().real - math.tan(theta)) < 1e-9


def test_classify_cases():
    c = classify(COS, Angle(1, 3))
    assert c.case is Case.VALUE_RATIONAL
    assert c.minimal_n == 1
    assert c.value == Fraction(1, 2)

    c = classify(COS, Angle(1, 4))
    assert c.case is Case.SQUARE_RATIONAL
    assert (c.minimal_n, c.value) == (2, Fraction(1, 2))

    c = classify(COS, Angle(1, 5))
    assert c.case is Case.NEVER
    assert c.minimal_n is None and c.value is None
    assert c.witness is not None

    c = classify(TAN, Angle(1, 2))
    assert c.case is Case.UNDEFINED

    c = classify(TAN, Angle(1, 6))
    assert (c.case, c.value) == (Case.SQUARE_RATIONAL, Fraction(1, 3))

    c = classify(COS, Angle(1, 12))
    assert c.case is Case.NEVER


def test_classification_json_contains_witness():
    data = classify(COS, Angle(1, 4)).to_json()
    assert data["case"] == "square_rational"
    assert data["minimal_n"] == 2
    assert data["value"] == "1/2"
    assert data["witness"]["modulus"] == 8


def test_never_case_by_brute_force():
    """NEVER verdicts rechecked directly: no rational power up to n = 12."""
    for func, p, q in [
        (COS, 1, 5),
        (COS, 1, 7),
        (COS, 1, 12),
        (SIN, 1, 5),
        (SIN, 1, 9),
        (TAN, 1, 5),
        (TAN, 1, 8),
        (TAN, 1, 12),
    ]:
        angle = Angle(p, q)
        assert classify(func, angle).case is Case.NEVER
        for n in range(1, 13):
            assert power_rational(func, angle, n) is None, (func, angle, n)


@given(angles())
def test_classify_consistent_with_direct_computation(angle):
    for func in (COS, SIN, TAN):
        if func is TAN and angle.q == 2:
            assert classify(func, angle).case is Case.UNDEFINED
            continue
        x = trig_elem(func, angle)
        c = classify(func, angle)
        v1, v2 = x.as_rational(), (x * x).as_rational()
        if v1 is not None:
            assert c.case is Case.VALUE_RATIONAL and c.value == v1
        elif v2 is not None:
            assert c.case is Case.SQUARE_RATIONAL and c.value == v2
        else:
            assert c.case is Case.NEVER


@given(angles())
def test_periodicity_and_reflection(angle):
    for func in (COS, SIN, TAN):
        shifted = Angle.normalized(angle.p + 2 * angle.q, angle.q)
        assert shifted == angle  # normalization absorbs the period
    mirrored = Angle.normalized(-angle.p, angle.q)
    if angle.q != 2:
        assert trig_elem(COS, mirrored) == trig_elem(COS, angle)
        assert trig_elem(TAN, mirrored) == -trig_elem(TAN, angle)
    assert trig_elem(SIN, mirrored) == -trig_elem(SIN, angle)


def descriptor_set(values):
    return {ValueDescriptor.from_rational(Fraction(v)) for v in values}


def test_theorem_value_list_odd():
    for func in (COS, SIN):
        odd = theorem_value_list(func, "odd")
        assert odd == descriptor_set([0, Fraction(1, 2), Fraction(-1, 2), 1, -1])
    assert theorem_value_list(TAN, "odd") == descriptor_set([0, 1, -1])


def test_theorem_value_list_even():
    even = theorem_value_list(COS, "even")
    assert theorem_value_list(COS, "odd") < even
    extras = even - theorem_value_list(COS, "odd")
    assert {d.square for d in extras} == {Fraction(1, 2), Fraction(3, 4)}
    assert all(d.as_rational() is None for d in extras)

    tan_even = theorem_value_list(TAN, "even")
    tan_extras = tan_even - theorem_value_list(TAN, "odd")
    assert {d.square for d in tan_extras} == {Fraction(1, 3), Fraction(3)}
    assert len(tan_even) == 7
    with pytest.raises(ValueError):
        theorem_value_list(COS, "both")


def test_value_descriptor_behaviour():
    d = ValueDescriptor.from_rational(Fraction(-1, 2))
    assert d.sign == -1 and d.square == Fraction(1, 4)
    assert d.as_rational() == Fraction(-1, 2)
    assert str(d) == "-1/2"

    irr = ValueDescriptor(1, Fraction(3, 4))
    assert irr.as_rational() is None
    assert str(irr) == "sqrt(3/4)"

    zero = ValueDescriptor(0, Fraction(0))
    assert zero.as_rational() == 0

    with pytest.raises(ValueError):
        ValueDescriptor(2, Fraction(1))
    with pytest.raises(ValueError):
        ValueDescriptor(0, Fraction(1))


def test_value_descriptor_of_classifications():
    assert value_descriptor(classify(COS, Angle(2, 3))) == ValueDescriptor.from_rational(Fraction(-1, 2))
    assert value_descriptor(classify(SIN, Angle(5, 4))) == ValueDescriptor(-1, Fraction(1, 2))
    for func, angle in [(COS, Angle(1, 5)), (TAN, Angle(1, 2))]:
        with pytest.raises(ValueError):
            value_descriptor(classify(func, angle))


def test_trig_elem_matches_reference_formula():
    for angle in reduced_angles(24):
        for func in (COS, SIN, TAN):
            if func is TAN and angle.q == 2:
                with pytest.raises(UndefinedTrigValue):
                    reference_trig_elem(func, angle)
                with pytest.raises(UndefinedTrigValue):
                    trig_elem(func, angle)
                continue
            assert trig_elem(func, angle) == reference_trig_elem(func, angle), (func, angle)


def test_group_ring_powers_match_dense_reference():
    """Every power written down by the binomial theorem agrees with the
    frozen dense power in the power basis, both as eval asks for one
    exponent and as the sweep books its hits (n = 1, 2, ...), and with the
    paper's values at n = 999 and 1000: a rational value keeps every power
    rational, a rational square only the even ones."""
    grid = [(angle, 8) for angle in reduced_angles(24)]
    grid += [(angle, 40) for angle in reduced_angles(15) if angle.q in (5, 7, 12, 15)]
    for angle, n_max in grid:
        for func in (COS, SIN, TAN):
            if func is TAN and angle.q == 2:
                with pytest.raises(UndefinedTrigValue):
                    power_rational(func, angle, 1)
                with pytest.raises(UndefinedTrigValue):
                    power_rational(func, angle, 3)
                continue
            expected = reference_power_values(func, angle, n_max)
            assert [power_rational(func, angle, n) for n in range(1, n_max + 1)] == expected, (func, angle)
            hits, _, _ = _survey(func, angle, n_max)
            rational = [(n, v) for n, v in enumerate(expected, 1) if v is not None]
            assert [(h.n, h.value) for h in hits] == rational, (func, angle)

    exact = {
        (COS, Angle(1, 3), 999): Fraction(1, 2 ** 999),
        (COS, Angle(2, 3), 999): -Fraction(1, 2 ** 999),
        (COS, Angle(1, 1), 999): -1,
        (COS, Angle(1, 4), 1000): Fraction(1, 2 ** 500),
        (COS, Angle(1, 4), 999): None,
        (COS, Angle(1, 5), 1000): None,
        (SIN, Angle(1, 6), 999): Fraction(1, 2 ** 999),
        (SIN, Angle(1, 3), 1000): Fraction(3, 4) ** 500,
        (SIN, Angle(1, 3), 999): None,
        (SIN, Angle(1, 1), 999): 0,
        (TAN, Angle(1, 6), 999): None,
        (TAN, Angle(1, 3), 1000): 3 ** 500,
        (TAN, Angle(3, 4), 999): -1,
        (TAN, Angle(1, 7), 1000): None,
    }
    for (func, angle, n), value in exact.items():
        assert power_rational(func, angle, n) == value, (func, angle, n)


def test_power_rational_reduces_once_per_numerator(monkeypatch):
    """Each power is laid out once and reduced modulo Phi_M once: one
    reduction for cos and sin, two (sin^n and cos^n) for tan, whatever n."""
    calls = []
    reduce_ = trig._reduce

    def counting(m, coeffs):
        calls.append(m)
        return reduce_(m, coeffs)

    monkeypatch.setattr(trig, "_reduce", counting)
    for angle in (Angle(1, 3), Angle(1, 4), Angle(1, 7), Angle(5, 12)):
        for func, reductions in ((COS, 1), (SIN, 1), (TAN, 2)):
            for n in (1, 2, 64, 1000):
                calls.clear()
                power_rational(func, angle, n)
                assert len(calls) == reductions, (func, angle, n)


def test_classify_and_sweep_never_invert(monkeypatch):
    """Trig values and their powers need no field division, so classify and
    the sweep must run with inversion disabled."""
    rational = {
        (COS, Angle(1, 3)): (Case.VALUE_RATIONAL, 1, Fraction(1, 2)),
        (COS, Angle(1, 4)): (Case.SQUARE_RATIONAL, 2, Fraction(1, 2)),
        (SIN, Angle(1, 3)): (Case.SQUARE_RATIONAL, 2, Fraction(3, 4)),
        (SIN, Angle(1, 6)): (Case.VALUE_RATIONAL, 1, Fraction(1, 2)),
        (TAN, Angle(1, 3)): (Case.SQUARE_RATIONAL, 2, Fraction(3)),
        (TAN, Angle(1, 4)): (Case.VALUE_RATIONAL, 1, Fraction(1)),
        (TAN, Angle(1, 6)): (Case.SQUARE_RATIONAL, 2, Fraction(1, 3)),
    }
    never = [(func, Angle(p, q)) for func in (COS, SIN, TAN) for p, q in [(1, 7), (5, 12)]]
    witnesses = {key: reference_trig_elem(*key) for key in [*rational, *never]}

    def no_division(*args, **kwargs):
        raise AssertionError("field division on the trig hot path")

    monkeypatch.setattr(CycElem, "inverse", no_division)
    trig_elem.cache_clear()
    classify.cache_clear()

    for key, witness in witnesses.items():
        c = classify(*key)
        assert c.witness == witness, key
        assert (c.case, c.minimal_n, c.value) == rational.get(key, (Case.NEVER, None, None)), key
    assert classify(TAN, Angle(1, 2)).case is Case.UNDEFINED

    totals = verify_theorem_sweep(SweepConfig(q_max=12, n_max=4)).to_json()["totals"]
    assert totals == {
        "queries": 1096,
        "hits": 136,
        "violations": 0,
        "cases": {
            "cos": {"never": 76, "square_rational": 8, "value_rational": 8},
            "sin": {"never": 76, "square_rational": 8, "value_rational": 8},
            "tan": {"never": 76, "square_rational": 8, "undefined": 2, "value_rational": 6},
        },
    }
