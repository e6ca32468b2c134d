import importlib.util
import math
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrat import cyclotomic, polynomials, trig
from trigrat.cyclotomic import CycElem, root_combination
from trigrat.numtheory import euler_phi, prime_factorization
from trigrat.sweep import SweepConfig, reduced_angles, verify_theorem_sweep
from trigrat.trig import (
    MAX_POLYGON_SPREAD,
    MAX_POWER_EXPONENT,
    MAX_TRIG_MODULUS,
    Angle,
    Case,
    Classification,
    TrigFunc,
    UndefinedTrigValue,
    ValueDescriptor,
    classify,
    power_rational,
    theorem_value_list,
    trig_elem,
    value_descriptor,
)

from reference import (
    _survey,
    reference_polygon_moves,
    reference_power_values,
    reference_trig_elem,
    trig_embedding_error,
)

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
        assert x.galois_apply(x.modulus - 1) == x


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


def test_classify_keeps_the_verdict_alone():
    """A verdict is its four fields, and classify keeps no witness: five tan
    verdicts at primes q near 10^4, whose witnesses hold about 1 MB each,
    retain under 0.1 MB."""
    assert classify(COS, Angle(1, 5)) == Classification(COS, Angle(1, 5), Case.NEVER, None)
    classify.cache_clear()
    trig_elem.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        verdicts = [classify(TAN, Angle(1, q)) for q in (10007, 10009, 10037, 10039, 10061)]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [v.case for v in verdicts] == [Case.NEVER] * 5
    assert retained < 100_000, retained


def test_a_tan_witness_lays_out_its_terms_as_they_come():
    """trig_elem hands tan's r terms to root_combination one at a time, not
    as a list: the witness at 1/100003 (M = 400012, r = 200006 terms)
    peaks under 35 MB, where a list of the terms peaked at 49 MB."""
    tracemalloc.start()
    try:
        x = trig_elem.__wrapped__(TAN, Angle(1, 100003))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.modulus == 400012
    assert peak < 35_000_000, peak


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


def test_classify_reads_no_coordinate_of_its_witness(monkeypatch):
    """The verdict comes from the powers alone: with ``as_rational``
    disabled and the trig caches empty, classify gives every function at
    every angle with q <= 24 the case, least exponent and value of the
    dense powers x and x^2, and still carries its witness."""
    expected = {}
    for angle in reduced_angles(24):
        for func in (COS, SIN, TAN):
            if func is TAN and angle.q == 2:
                expected[func, angle] = (Case.UNDEFINED, None, None)
                continue
            v1, v2 = reference_power_values(func, angle, 2)
            expected[func, angle] = ((Case.VALUE_RATIONAL, 1, v1) if v1 is not None
                                     else (Case.SQUARE_RATIONAL, 2, v2) if v2 is not None
                                     else (Case.NEVER, None, None))

    def forbidden(self):
        raise AssertionError("classify read a coordinate of its witness")

    monkeypatch.setattr(CycElem, "as_rational", forbidden)
    trig_elem.cache_clear()
    classify.cache_clear()
    for (func, angle), verdict in expected.items():
        c = classify(func, angle)
        assert (c.case, c.minimal_n, c.value) == verdict, (func, angle)
        assert (c.witness is None) == (c.case is Case.UNDEFINED), (func, angle)


def test_witnesses_match_their_values_at_every_embedding():
    """Each witness of cos, sin and tan at 1/q, 100 <= q < 200, evaluated in
    floats at every embedding zeta_M -> exp(2 pi i c/M), c a unit mod M, is
    the function's value at pi c/q (times chi_4(c) for sin and tan) within
    1e-9 of sum |x_k|; with one numerator raised by 1 it is not."""
    rng = random.Random(23)
    for q in range(100, 200):
        angle = Angle(1, q)
        for func in (COS, SIN, TAN):
            witness = classify(func, angle).witness
            assert trig_embedding_error(witness, func, angle) < 1e-9, (func, angle)
            nums = list(witness._nums)
            nums[rng.randrange(len(nums))] += 1
            faulty = CycElem._raw(witness.modulus, nums, witness._den)
            assert trig_embedding_error(faulty, func, angle) > 1e-9, (func, angle)


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


def test_value_census_checks_every_value_against_the_list(monkeypatch, capsys):
    """scripts/value_census.py at q <= 12 finds every base value on the
    predicted list and exits 0; with sqrt(3) taken off tan's list it exits
    1 and names that value at the first angle it occurs."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "value_census.py"
    result = subprocess.run([sys.executable, str(path), "--q-max", "12"], capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert "every value above is on the predicted finite list" in result.stdout

    spec = importlib.util.spec_from_file_location("value_census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    sqrt3 = ValueDescriptor(1, Fraction(3))
    monkeypatch.setattr(census, "theorem_value_list", lambda func, parity: theorem_value_list(func, parity) - {sqrt3})
    assert census.main(["--q-max", "12"]) == 1
    out, err = capsys.readouterr()
    assert err == "value off the predicted list: tan sqrt(3) at theta = 1/3\n"
    assert "every value above" not in out


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


def test_value_descriptor_sign_matches_the_float_sign():
    """The sign read from the angle agrees with the numeric value's on every
    SQUARE_RATIONAL case with q <= 200; the sweep's orbit rule finds them
    all as hits at n = 2."""
    report = verify_theorem_sweep(SweepConfig(q_max=200, n_max=2))
    cases = [
        classification
        for classification in (classify(hit.func, hit.angle) for hit in report.hits)
        if classification.case is Case.SQUARE_RATIONAL
    ]
    counted = sum(counts.get(Case.SQUARE_RATIONAL, 0) for counts in report.case_counts.values())
    assert len(cases) == counted == 24
    for classification in cases:
        numeric = classification.witness.numeric_eval().real
        assert value_descriptor(classification).sign == (1 if numeric > 0 else -1), classification


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


def test_folded_pascal_rows_match_dense_reference(monkeypatch):
    """Past r = M / gcd(2e, M) a power needs only the sums of its Pascal
    row over the residue classes mod r.  The power stream over n = 1, 2, ...
    steps each row's sums from the previous row's by Pascal's rule and
    builds no row past r; power_rational, asked in a shuffled order, sums
    each row afresh.  Both agree with the dense powers at every q <= 12,
    n <= 200."""
    n_max = 200
    rows = []
    binomial_row = trig._binomial_row

    def recording_row(sign, k):
        rows.append(k)
        return binomial_row(sign, k)

    monkeypatch.setattr(trig, "_binomial_row", recording_row)
    rng = random.Random(12)
    for angle in reduced_angles(12):
        m, e = trig._zeta_exponent(angle)
        r = m // gcd(2 * e, m)
        for func in (COS, SIN, TAN):
            if func is TAN and angle.q == 2:
                continue
            expected = reference_power_values(func, angle, n_max)
            rows.clear()
            assert trig._powers((func,), angle, 1, n_max)[func] == expected, (func, angle)
            assert max(rows) <= r, (func, angle)
            order = list(range(1, n_max + 1))
            rng.shuffle(order)
            shuffled = [power_rational(func, angle, n) for n in order]
            assert shuffled == [expected[n - 1] for n in order], (func, angle)


@pytest.mark.parametrize("funcs", [(COS, SIN, TAN), (TAN, SIN, COS), (COS,), (TAN,)])
def test_sweep_lays_out_and_moves_each_power_once(monkeypatch, funcs):
    """cos, sin and tan of one angle share one stream of (2 cos)^n and one
    of (2 sin)^n, whose first two powers also decide the case: in a sweep
    each (sign, M, e, k) is laid out and moved at most once, whichever
    function comes first, and only the signs the functions need are
    streamed (a tan sweep streams none at its poles, the two angles at
    q = 2).  The one exception is the survey at q = 2h, h odd and above 1,
    which streams sin for a cos sweep too, since h's cos is read off sin at
    2h (``sweep._complement``): at q <= 12, at M = 12 and 20.  The sweep
    surveys only 1/q, at ten q <= 12 (1, the even q, 7, 9 and 11), and
    each survey moves k = 1..8 once per sign it streams."""
    counts = Counter()
    moved_slots = trig._moved_slots

    def counting(*key_and_row):
        counts[key_and_row[:4]] += 1
        return moved_slots(*key_and_row)

    monkeypatch.setattr(trig, "_moved_slots", counting)
    classify.cache_clear()
    verify_theorem_sweep(SweepConfig(q_max=12, n_max=8, funcs=funcs))
    assert len(counts) == {(COS,): 96, (TAN,): 144}.get(funcs, 160)
    sin_moduli = {m for sign, m, e, k in counts if sign == -1}
    assert sin_moduli == ({12, 20} if funcs == (COS,) else {4, 8, 12, 16, 20, 24, 28, 36, 44})
    assert set(counts.values()) == {1}


@pytest.mark.parametrize("func", [COS, SIN, TAN])
@pytest.mark.parametrize("angle, n", [(Angle(1, 7), 3), (Angle(2, 3), 5)])
def test_single_power_builds_one_row(monkeypatch, func, angle, n):
    """power_rational runs the power stream for k = n only: it builds the
    one Pascal row n, whether r = q is above n (the row itself is laid
    out) or not (its residue-class sums are), and moves one power per sign
    the function needs, cos and sin one, tan two."""
    rows, moved = [], []
    binomial_row, moved_slots = trig._binomial_row, trig._moved_slots
    monkeypatch.setattr(trig, "_binomial_row", lambda sign, k: rows.append(k) or binomial_row(sign, k))
    monkeypatch.setattr(trig, "_moved_slots", lambda *key_and_row: moved.append(key_and_row[:4]) or moved_slots(*key_and_row))
    assert power_rational(func, angle, n) == reference_power_values(func, angle, n)[-1]
    assert rows == [n] * (2 if func is TAN else 1)
    m, e = trig._zeta_exponent(angle)
    assert moved == [(sign, m, e, n) for sign in {COS: [1], SIN: [-1], TAN: [1, -1]}[func]]


def test_values_and_powers_past_the_limits_are_refused(monkeypatch):
    """trig_elem (and so classify) refuses M = lcm(2q, 4) above
    MAX_TRIG_MODULUS, and power_rational a spread prod(p - 1) over the odd
    primes p of M above MAX_POLYGON_SPREAD, each before it lays out a slot;
    at the limits both lay out."""
    laid_out = []
    monkeypatch.setattr(trig, "root_combination", lambda m, terms, den=1: laid_out.append(m))
    monkeypatch.setattr(trig, "_moved_slots", lambda sign, m, e, k, row: laid_out.append(m) or {0: 1})
    for func in (COS, SIN):
        trig_elem.__wrapped__(func, Angle(1, MAX_TRIG_MODULUS // 2))  # M = 2q
    for func in (COS, SIN, TAN):
        with pytest.raises(ValueError, match=f"above the limit {MAX_TRIG_MODULUS}"):
            trig_elem.__wrapped__(func, Angle(1, MAX_TRIG_MODULUS // 4 + 1))  # M = 4q
    assert laid_out == [MAX_TRIG_MODULUS] * 2

    laid_out.clear()
    power_rational(COS, Angle(1, 1048573), 2)  # a prime, spread 1048572
    assert laid_out == [4 * 1048573]
    # 10007 and 10009 are each below the limit, but one term can spread
    # over (10007 - 1) * (10009 - 1) slots
    for q in (1048583, 10007 * 10009, 10 ** 9 + 7, 10 ** 30 + 57):
        for func in (COS, SIN, TAN):
            with pytest.raises(ValueError, match=f"above the limit {MAX_POLYGON_SPREAD}"):
                power_rational(func, Angle(1, q), 2)
    assert laid_out == [4 * 1048573]


def test_powers_at_moduli_with_a_small_spread_are_decided():
    """The p-gon moves are read off the odd prime powers of M, and
    M = 2^13 5^11, far above MAX_TRIG_MODULUS, has spread 4: power_rational
    decides its powers."""
    for m in range(4, 8000, 4):
        moves = [pa for pa, _, _, _ in trig._polygon_moves(m)]
        assert moves == [p ** a for p, a in prime_factorization(m)[1:]], m
    angle = Angle(1, 10 ** 11)
    assert [pa for pa, _, _, _ in trig._polygon_moves(trig._zeta_exponent(angle)[0])] == [5 ** 11]
    for func in (COS, SIN, TAN):
        assert power_rational(func, angle, 2) is None
    assert power_rational(COS, Angle(10 ** 11 - 1, 10 ** 11), 1000) is None


def _moves_or_refusal(polygon_moves, m):
    try:
        return polygon_moves(m)
    except ValueError as error:
        return str(error)


# 524287 and 524309 are the primes either side of 2^19, 1048573 and 1048583
# either side of 2^20 (and of the trial bound 2^20 + 1)
@given(st.integers(0, 4), st.sampled_from([1, 3, 5, 9, 15, 27, 105]),
       st.sampled_from([1, 524287, 524309, 1048573, 1048583, 524287 ** 2, 1048573 ** 2, 1048583 ** 2, 1048583 * 1048589]))
@settings(max_examples=60, deadline=None)
def test_polygon_moves_match_the_reference_loop(b, small, cofactor):
    """The moves over the one bounded trial division are those of the loop
    that stops once the spread passes the limit, and a refusal has the same
    message: spreads on either side of 2^20, and cofactors that are a prime
    or a prime square below or above the trial bound."""
    m = 2 ** (b + 1) * small * cofactor
    expected = _moves_or_refusal(reference_polygon_moves, m)
    assert _moves_or_refusal(trig._polygon_moves.__wrapped__, m) == expected, m


def test_power_rational_needs_no_reduction_modulo_phi(monkeypatch):
    """Powers are decided by p-gon moves alone: power_rational runs for cos,
    sin and tan at every exponent with the reduction modulo Phi_M, the
    divisor it reads and the long division all disabled."""
    def disabled(*args, **kwargs):
        raise AssertionError("reduction modulo Phi_M on the power path")

    monkeypatch.setattr(cyclotomic, "_reduce", disabled)
    monkeypatch.setattr(cyclotomic, "_cyclotomic_divisor", disabled)
    monkeypatch.setattr(polynomials, "_divide_monic", disabled)
    for angle in (Angle(1, 3), Angle(1, 4), Angle(1, 7), Angle(5, 12), Angle(1, 105)):
        for func in (COS, SIN, TAN):
            for n in (1, 2, 64, 1000):
                power_rational(func, angle, n)


def _binomial_terms(func, m, e, n):
    """The n + 1 terms of (2 cos)^n or (2 sin)^n over zeta_M, one per
    binomial coefficient."""
    shift, sign = (n * (m // 4), -1) if func is SIN else (0, 1)
    return [(e * (n - 2 * j) - shift, sign ** j * math.comb(n, j)) for j in range(n + 1)]


def _power_through_phi(func, angle, n):
    """power_rational as it was decided before p-gon moves: the binomial
    terms laid out over M/2 slots and reduced modulo Phi_M into the power
    basis."""
    m, e = trig._zeta_exponent(angle)

    def reduced(f):
        h = m // 2
        coeffs = [0] * h
        for x, c in _binomial_terms(f, m, e, n):
            x %= m
            if x < h:
                coeffs[x] += c
            else:
                coeffs[x - h] -= c
        return cyclotomic._reduce(m, coeffs)

    if func is not TAN:
        v = reduced(func)
        return None if any(v[1:]) else Fraction(v[0], 2 ** n)
    s, c = reduced(SIN), reduced(COS)
    i = next(j for j, cj in enumerate(c) if cj)
    return Fraction(s[i], c[i]) if all(sj * c[i] == s[i] * cj for sj, cj in zip(s, c)) else None


def _in_top_block(m, x):
    """Whether slot x has, for some odd p^a exactly dividing M, its p-digit
    d (x = (M/p^a) * d mod p^a) at p^a - p^(a-1) or above."""
    for p, a in prime_factorization(m):
        pa = p ** a
        if p > 2 and next(d for d in range(pa) if (m // pa * d - x) % pa == 0) >= pa - pa // p:
            return True
    return False


def test_polygon_moves_match_phi_reduction_at_three_odd_primes():
    """At moduli with three odd primes, M = 420, 660 and 4620, the p-gon
    moves keep the value of each numerator (its moved slots reduce modulo
    Phi_M to the coordinates its binomial terms reduce to), leave no slot in
    a top block (the phi(M) slots outside them are a basis), and decide every
    power as the reduction modulo Phi_M does."""
    for m in (420, 660, 4620):
        assert sum(not _in_top_block(m, x) for x in range(m // 2)) == euler_phi(m)
    grid = [angle for angle in reduced_angles(165) if angle.q in (105, 165)] + [Angle(1, 1155)]
    for angle in grid:
        m, e = trig._zeta_exponent(angle)
        for n in range(1, 4):
            for func in (COS, SIN):
                slots = next(trig._power_stream(-1 if func is SIN else 1, m, e, n, n))
                assert not any(_in_top_block(m, x) for x in slots), (func, angle, n)
                moved = root_combination(m, slots.items())
                assert moved == root_combination(m, _binomial_terms(func, m, e, n)), (func, angle, n)
            for func in (COS, SIN, TAN):
                assert power_rational(func, angle, n) == _power_through_phi(func, angle, n), (func, angle, n)


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
