import argparse
import contextlib
import enum
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from math import cos, gcd, isclose, pi, sin

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import reference_check, reference_sweep
from trigrat import cli, kummer, sweep
from trigrat.cli import run_cli
from trigrat.cyclotomic import CycElem
from trigrat.kummer import MAX_MEMBER_MODULUS, MAX_WITNESS_MODULUS
from trigrat.numtheory import euler_phi
from trigrat.polynomials import RatPoly
from trigrat.sweep import (
    Hit,
    SweepConfig,
    Violation,
    reduced_angles,
    verify_theorem_sweep,
)
from trigrat.trig import (
    MAX_POLYGON_SPREAD,
    MAX_POWER_EXPONENT,
    MAX_TRIG_MODULUS,
    Angle,
    Case,
    Classification,
    TrigFunc,
    _classification,
    _powers,
    classify,
    trig_elem,
)

COS, SIN, TAN = TrigFunc.COS, TrigFunc.SIN, TrigFunc.TAN


# ----------------------------------------------------------------------
# sweep machinery

def test_reduced_angles_smallest_bound():
    assert reduced_angles(1) == [Angle(0, 1), Angle(1, 1)]


def test_reduced_angles_count_and_order():
    angles = reduced_angles(6)
    # 2*phi(q) angles per denominator: 2+2+4+4+8+4
    assert len(angles) == 24
    assert angles == sorted(angles, key=lambda a: (a.q, a.p))
    assert all(0 <= a.p < 2 * a.q for a in angles)
    with pytest.raises(ValueError):
        reduced_angles(0)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(q_max=0, n_max=1)
    with pytest.raises(ValueError):
        SweepConfig(q_max=1, n_max=0)
    with pytest.raises(ValueError):
        SweepConfig(q_max=1, n_max=1, funcs=())
    with pytest.raises(ValueError, match="funcs must not repeat a function, got cos,cos"):
        SweepConfig(q_max=1, n_max=1, funcs=(COS, COS))
    with pytest.raises(ValueError, match="got tan,sin,tan"):
        SweepConfig(q_max=1, n_max=1, funcs=(TAN, SIN, TAN))
    with pytest.raises(ValueError):
        SweepConfig(q_max=1, n_max=MAX_POWER_EXPONENT + 1)
    # every q <= MAX_TRIG_MODULUS // 4 has M = lcm(2q, 4) <= 4q within the
    # limit; the next q is odd, with M = 4q above it
    SweepConfig(q_max=MAX_TRIG_MODULUS // 4, n_max=1)
    with pytest.raises(ValueError, match=f"q_max must be <= {MAX_TRIG_MODULUS // 4}"):
        SweepConfig(q_max=MAX_TRIG_MODULUS // 4 + 1, n_max=1)


def test_sweep_config_holds_a_tuple_of_trig_funcs():
    """``funcs`` is refused unless every member is a TrigFunc, and kept as
    a tuple, so a config given a list is hashable."""
    with pytest.raises(ValueError, match="funcs must hold TrigFunc members only, got 'cos'"):
        verify_theorem_sweep(SweepConfig(4, 2, ("cos",)))
    assert hash(SweepConfig(4, 2, [COS])) == hash(SweepConfig(4, 2, (COS,)))


@pytest.fixture(scope="module")
def small_report():
    return verify_theorem_sweep(SweepConfig(q_max=6, n_max=4))


def test_small_sweep_is_clean(small_report):
    assert small_report.clean
    assert small_report.violations == []
    # 24 angles * 3 funcs minus the two tangent poles, times 4 exponents
    assert small_report.queries == (24 * 3 - 2) * 4


def test_small_sweep_contains_known_hits(small_report):
    hits = set(small_report.hits)
    assert Hit(COS, Angle(1, 3), 1, Fraction(1, 2)) in hits
    assert Hit(COS, Angle(1, 4), 2, Fraction(1, 2)) in hits
    assert Hit(SIN, Angle(1, 6), 1, Fraction(1, 2)) in hits
    assert Hit(TAN, Angle(1, 4), 1, Fraction(1)) in hits
    assert Hit(TAN, Angle(1, 6), 2, Fraction(1, 3)) in hits
    assert Hit(COS, Angle(1, 1), 3, Fraction(-1)) in hits
    # cos(pi/5) never has a rational power
    assert not any(h.angle == Angle(1, 5) and h.func is COS for h in hits)


def test_sweep_hits_are_sorted(small_report):
    keys = [h.sort_key() for h in small_report.hits]
    assert keys == sorted(keys)


def test_small_sweep_cos_values_fill_the_even_list(small_report):
    from trigrat.trig import classify, theorem_value_list, value_descriptor

    observed = {
        value_descriptor(classify(COS, h.angle))
        for h in small_report.hits
        if h.func is COS
    }
    assert observed == theorem_value_list(COS, "even")


def test_sweep_case_counts(small_report):
    assert small_report.case_counts[TAN][Case.UNDEFINED] == 2
    total = sum(small_report.case_counts[COS].values())
    assert total == 24


def test_sweep_is_deterministic():
    config = SweepConfig(q_max=4, n_max=3)
    first = verify_theorem_sweep(config).to_json()
    second = verify_theorem_sweep(config).to_json()
    assert first == second


def report_text(report):
    return json.dumps(report.to_json(), sort_keys=True, indent=2)


@pytest.mark.parametrize("funcs", [(COS, SIN, TAN), (TAN, SIN)])
def test_orbit_sweep_matches_reference_sweep(funcs):
    """One survey per symmetry class prints the report of the brute sweep
    over every reduced angle, byte for byte: at q <= 96 over all three
    functions, at q <= 48 over tan and sin."""
    config = SweepConfig(q_max=96 if len(funcs) == 3 else 48, n_max=8, funcs=funcs)
    assert report_text(verify_theorem_sweep(config)) == report_text(reference_sweep(config))


@pytest.mark.parametrize("n_max", [1, 2])
@pytest.mark.parametrize("funcs", [(COS,), (SIN,), (SIN, COS)])
def test_orbit_sweep_matches_reference_sweep_at_the_least_exponents(funcs, n_max):
    """The same at q <= 48 for the sweeps whose functions lack a partner
    (cos alone reads h off sin at 2h, which it does not book) and at the
    exponents 1 and 2, where a survey still reads two powers."""
    config = SweepConfig(q_max=48, n_max=n_max, funcs=funcs)
    assert report_text(verify_theorem_sweep(config)) == report_text(reference_sweep(config))


def test_reflections_map_powers_onto_powers():
    """The two reflections the sweep reads angles off by.  At every reduced
    p/q with odd q <= 45: theta -> pi - theta (``sweep._supplement``) sends
    p/q to p'/q with cos(pi p'/q) = -cos(pi p/q) and the same sin, and for
    q > 1 theta -> pi/2 - theta (``sweep._complement``) sends it to p'/2q
    with cos and sin swapped, both checked in floats, so each map is the
    reflection and not another bijection of the orbit.  And the powers at
    p'/q, turned by ``sweep._supplement_powers``, and those of the partner
    at p'/2q, by ``sweep._complement_powers``, are ``trig._powers`` at p/q
    for each function and n <= 8."""
    funcs, partner = (COS, SIN, TAN), {COS: SIN, SIN: COS, TAN: TAN}
    angles = 0
    for angle in reduced_angles(45):
        q, p = angle.q, angle.p
        if q % 2 == 0:
            continue
        powers = _powers(funcs, angle, 1, 8)
        image = sweep._supplement(q, p)
        assert isclose(cos(pi * image / q), -cos(pi * p / q), abs_tol=1e-9), angle
        assert isclose(sin(pi * image / q), sin(pi * p / q), abs_tol=1e-9), angle
        there = _powers(funcs, Angle(image, q), 1, 8)
        for func in funcs:
            assert sweep._supplement_powers(func, there[func]) == powers[func], (func, angle)
        if q > 1:
            image = sweep._complement(q, p)
            assert isclose(cos(pi * image / (2 * q)), sin(pi * p / q), abs_tol=1e-9), angle
            assert isclose(sin(pi * image / (2 * q)), cos(pi * p / q), abs_tol=1e-9), angle
            there = _powers(funcs, Angle(image, 2 * q), 1, 8)
            for func in funcs:
                assert sweep._complement_powers(func, there[partner[func]]) == powers[func], (func, angle)
        angles += 1
    assert angles == sum(2 * euler_phi(q) for q in range(1, 46, 2))


def test_misclassified_representatives_survey_their_orbits(monkeypatch):
    """A representative with a violation makes the sweep survey every other
    member of its orbit, also where the orbit is read off by a reflection:
    with every function planted as SQUARE_RATIONAL at 1/5 (the
    representative of the odd p over 5) and 3/5 (a member), both read off
    q = 10 by theta -> pi/2 - theta, at 2/5, the representative of the even
    p read off so, and at 2/7, read off 5/7 by theta -> pi - theta, both
    sweeps report the same violations, at each planted angle, and the same
    case counts."""
    planted = {Angle(1, 5), Angle(3, 5), Angle(2, 5), Angle(2, 7)}
    decide = sweep._classification

    def faulty(func, angle, values):
        if angle in planted:
            return Classification(func, angle, Case.SQUARE_RATIONAL, Fraction(1, 2))
        return decide(func, angle, values)

    monkeypatch.setattr(sweep, "_classification", faulty)
    config = SweepConfig(q_max=12, n_max=8)
    orbit, brute = verify_theorem_sweep(config), reference_sweep(config)
    assert {(v.func, v.angle) for v in orbit.violations} == {(f, a) for f in (COS, SIN, TAN) for a in planted}
    assert orbit.violations == brute.violations
    assert orbit.case_counts == brute.case_counts
    assert report_text(orbit) == report_text(brute)


REASONS = {
    "pole misclassified",
    "power of a rational value is irrational",
    "even power with rational square is irrational",
    "rational power in a never-rational class",
    "odd power of an irrational value is rational",
    "power disagrees with classified base value",
    "base value outside the predicted list",
    "least rational exponent mismatch",
    "hit despite no classified minimal exponent",
}


def check_outcome(check, func, angle, n_max, values):
    """Hits, violations and case from ``check``, or the type and text of
    the exception it raised."""
    try:
        return check(func, angle, n_max, values)
    except Exception as error:
        return type(error), str(error)


def power_faults(func, angle, values):
    """The powers ``values`` (n = 1..8) of one survey with one entry
    wrong: a list at a pole, or None for the list elsewhere; None in place
    of a rational power; a wrong rational; a rational odd power of a value
    with a rational square; a rational power of a never-rational value."""
    if values is None:
        yield [None] * 8
        return
    yield None
    case = _classification(func, angle, values).case
    for i, value in enumerate(values):
        if value is not None:
            faults = (None, value + 1, -value - 1)
        elif case is Case.SQUARE_RATIONAL:  # an odd power
            faults = (values[1] ** (i + 1),)
        else:  # a never-rational value
            faults = (Fraction(1, 2),)
        for fault in faults:
            yield values[:i] + [fault] + values[i + 1:]


def test_check_matches_reference_check(monkeypatch):
    """The sweep's check gives the hits, violations and case that the
    frozen hit-by-hit check gives, or raises what it raises: on every
    function and reduced angle with q <= 24, at n_max 1, 2 and 8, on the
    same powers with one entry wrong (``power_faults``), and with each
    other case planted as the classification of a survey off the poles.
    Across the faults every reason of a violation occurs."""
    surveys = []
    for angle in reduced_angles(24):
        powers = _powers((COS, SIN, TAN), angle, 1, 8)
        surveys += [(func, angle, powers.get(func)) for func in (COS, SIN, TAN)]
    planted = {}
    decide = sweep._classification
    monkeypatch.setattr(sweep, "_classification",
                        lambda func, angle, values: planted.get((func, angle)) or decide(func, angle, values))
    reasons = set()

    def compare(func, angle, values, faulty):
        for n_max in (1, 2, 8):
            head = None if values is None else values[:max(n_max, 2)]
            outcome = check_outcome(sweep._check, func, angle, n_max, head)
            assert outcome == check_outcome(reference_check, func, angle, n_max, head), (func, angle, n_max, head)
            if not faulty:
                assert outcome[1] == [], (func, angle, n_max)
            elif isinstance(outcome[1], list):
                reasons.update(v.reason for v in outcome[1])

    for func, angle, values in surveys:
        compare(func, angle, values, False)
        for faulty in power_faults(func, angle, values):
            compare(func, angle, faulty, True)
        if values is not None:
            true_case = _classification(func, angle, values).case
            rational = next((v for v in values if v is not None), Fraction(1, 2))
            for case in [case for case in Case if case is not true_case]:
                value = rational if case in (Case.VALUE_RATIONAL, Case.SQUARE_RATIONAL) else None
                planted[func, angle] = Classification(func, angle, case, value)
                compare(func, angle, values, True)
            planted.clear()
    assert reasons == REASONS


def test_witness_and_power_decisions_agree():
    """``classify`` decides from the powers at n = 1 and 2 and carries its
    witness x, built apart by ``trig_elem``, without reading it.  On every
    reduced angle with q <= 200 and each function the two agree: x is
    rational, and equal to the value, exactly in the VALUE_RATIONAL case,
    and x * x is the value in every SQUARE_RATIONAL case."""
    pairs = squares = 0
    for angle in reduced_angles(200):
        for func in (COS, SIN, TAN):
            verdict = classify(func, angle)
            pairs += 1
            if verdict.case is Case.UNDEFINED:
                assert verdict.witness is None, (func, angle)
                continue
            x = verdict.witness
            assert x.as_rational() == (verdict.value if verdict.case is Case.VALUE_RATIONAL else None), (func, angle)
            if verdict.case is Case.SQUARE_RATIONAL:
                assert (x * x).as_rational() == verdict.value, (func, angle)
                squares += 1
    assert (pairs, squares) == (73392, 24)


def test_sweep_builds_no_witness(monkeypatch, payload_digests):
    """The sweep decides every case from its powers: with field elements
    and Phi_M disabled, and the trig caches empty, it prints the same
    payload."""
    def forbidden(*args, **kwargs):
        raise AssertionError("field element or Phi_M built in the sweep")

    monkeypatch.setattr(CycElem, "_store", forbidden)
    monkeypatch.setattr("trigrat.cyclotomic._radical_cyclotomic", forbidden)
    trig_elem.cache_clear()
    classify.cache_clear()
    assert payload_digests.sweep_digest(48, 12, "tan,sin,cos") == SWEEP_48_12_DIGEST


def test_sweep_surveys_one_representative_per_orbit(monkeypatch):
    """One survey per symmetry class, of its representative for every
    function, plus one of each other member of the orbits with a rational
    power: at q <= 32 the odd orbit is surveyed at p = 1 for q = 1, each
    even q and each odd q above 16.  The even orbit of an odd q is read off
    the odd one by theta -> pi - theta, and both orbits of odd q in 3..15
    off the survey at 2q by theta -> pi/2 - theta.  By the paper the orbits with a
    rational power are those at q in {1, 2, 3, 4, 6}; of those, only the
    ones at q = 2, 4 and 6 have other members that are surveyed."""
    calls = []
    powers = sweep._powers

    def counted(funcs, angle, first, last):
        calls.append((angle, len(funcs), first, last))
        return powers(funcs, angle, first, last)

    monkeypatch.setattr(sweep, "_powers", counted)
    report = verify_theorem_sweep(SweepConfig(q_max=32, n_max=8))
    assert report.clean

    surveyed = sorted([1, *range(2, 33, 2), *range(17, 33, 2)])
    members = {q: [p for p in range(1, 2 * q, 2) if gcd(p, q) == 1] for q in (2, 4, 6)}
    assert (len(surveyed), sum(len(m) - 1 for m in members.values())) == (25, 7)
    assert [call[0] for call in calls] == [Angle(p, q) for q in surveyed for p in members.get(q, [1])]
    assert [call[1:] for call in calls] == [(3, 1, 8)] * 32


def test_report_json_shape(small_report):
    data = small_report.to_json()
    assert set(data) == {"hits", "violations", "totals"}
    assert set(data["totals"]) == {"queries", "hits", "violations", "cases"}
    assert data["totals"]["hits"] == len(small_report.hits)
    assert data["totals"]["violations"] == 0
    for hit in data["hits"]:
        assert set(hit) == {"func", "theta", "n", "value"}
    assert data["totals"]["cases"]["tan"]["undefined"] == 2


def test_violation_json_shape():
    v = Violation(COS, Angle(1, 5), 3, "rational power in a never-rational class", Fraction(1, 2))
    assert v.to_json() == {
        "func": "cos",
        "theta": "1/5",
        "n": 3,
        "reason": "rational power in a never-rational class",
        "value": "1/2",
    }


def test_single_function_sweep():
    report = verify_theorem_sweep(SweepConfig(q_max=3, n_max=2, funcs=(SIN,)))
    assert report.clean
    assert set(report.case_counts) == {SIN}


# ----------------------------------------------------------------------
# command-line interface

def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_classify(capsys):
    code, out, _ = run(capsys, "classify", "cos", "1/3")
    assert code == 0
    assert "1/2" in out and "value_rational" in out


def test_cli_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--json", "cos", "1/4")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "square_rational"
    assert data["minimal_n"] == 2
    assert data["value"] == "1/2"


def test_cli_classify_negative_angle_after_double_dash(capsys):
    """A leading '-' reads as an option, so a negative angle follows '--';
    -1/3 folds into [0, 2) as 5/3."""
    assert run(capsys, "classify", "--json", "cos", "--", "-1/3") == run(capsys, "classify", "--json", "cos", "5/3")
    code, out, _ = run(capsys, "eval", "cos", "--pow", "2", "--", "-1/3")
    assert (code, out) == (0, "cos(pi*5/3)^2 = 1/4\n")


def test_cli_classify_never(capsys):
    code, out, _ = run(capsys, "classify", "cos", "1/5")
    assert code == 0
    assert "irrational for every n" in out


def test_cli_eval(capsys):
    code, out, _ = run(capsys, "eval", "tan", "1/6", "--pow", "2")
    assert code == 0
    assert "= 1/3" in out

    code, out, _ = run(capsys, "eval", "cos", "1/5", "--pow", "3")
    assert code == 0
    assert "irrational" in out

    code, out, _ = run(capsys, "eval", "tan", "1/2")
    assert code == 0
    assert "undefined" in out


def test_cli_eval_refuses_exponents_past_the_limit(capsys):
    code, out, err = run(capsys, "eval", "cos", "1/60", "--pow", "1000000")
    assert (code, out) == (2, "")
    assert err == f"error: exponent must be <= {MAX_POWER_EXPONENT}, got 1000000\n"

    code, out, _ = run(capsys, "eval", "--json", "cos", "1/3", "--pow", str(MAX_POWER_EXPONENT))
    assert code == 0
    assert json.loads(out)["value"] == f"1/{2 ** MAX_POWER_EXPONENT}"


def test_cli_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "--json", "sin", "1/6")
    assert code == 0
    data = json.loads(out)
    assert data == {"func": "sin", "theta": "1/6", "n": 1, "value": "1/2", "status": "rational"}


def test_cli_rejects_malformed_input(capsys):
    code, _, err = run(capsys, "classify", "cos", "1/0")
    assert code == 2 and "error" in err

    code, _, err = run(capsys, "classify", "cot", "1/3")
    assert code == 2 and "error" in err

    code, _, err = run(capsys, "eval", "cos", "1/3", "--pow", "0")
    assert code == 2

    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_cli_gauss(capsys):
    code, out, _ = run(capsys, "gauss", "5")
    assert code == 0
    assert "case check: ok" in out


def test_cli_sqrt_embed(capsys):
    code, out, _ = run(capsys, "sqrt-embed", "2")
    assert code == 0
    assert "Q(zeta_8)" in out

    code, out, _ = run(capsys, "sqrt-embed", "--json", "15")
    assert code == 0
    assert json.loads(out)["modulus"] == 60


def test_cli_root_member(capsys):
    code, out, _ = run(capsys, "root-member", "--json", "2", "2", "8")
    assert code == 0
    data = json.loads(out)
    assert data["answer"] == "YES"
    assert data["witness"]["modulus"] == 8

    code, out, _ = run(capsys, "root-member", "2", "3", "10")
    assert code == 0
    assert "NO" in out and "theorem_1_3" in out


def test_cli_irreducible_with_oracle(capsys):
    code, out, _ = run(capsys, "irreducible", "8", "6", "--oracle")
    assert code == 0
    assert "reducible over Q" in out
    assert "x^2 - 2" in out
    assert "subset oracle agrees: True" in out

    code, out, _ = run(capsys, "irreducible", "--json", "2", "8", "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["irreducible"] is True
    assert data["oracle_reducible"] is False
    assert data["factors"] == []


@pytest.mark.parametrize("argv", [
    ["irreducible", "1" + "0" * 400, "2", "--oracle"],
    ["irreducible", "1/1" + "0" * 400, "2", "--oracle", "--json"],
    ["irreducible", "1" + "0" * 400, "12", "--oracle", "--json"],
    ["irreducible", "1/1" + "0" * 400, "12", "--oracle"],
])
def test_cli_oracle_factors_alpha_outside_the_float_range(argv):
    """10^400 overflows a float and 10^-400 rounds to 0; the oracle answers
    at both, in a fresh process, with the library's factors, and agrees
    with the radical criterion."""
    result = subprocess.run(
        [sys.executable, "-m", "trigrat", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    alpha, n = Fraction(argv[1]), int(argv[2])
    factors = [str(f.factor) for f in kummer.subset_factorizations(alpha, n)]
    assert factors and not kummer.binomial_irreducible(alpha, n)
    assert (result.returncode, result.stderr) == (0, "")
    if "--json" in argv:
        payload = json.loads(result.stdout)
        assert (payload["irreducible"], payload["oracle_reducible"], payload["factors"]) == (False, True, factors)
    else:
        lines = result.stdout.splitlines()
        assert lines[:2] == [f"x^{n} - {alpha} is reducible over Q", "subset oracle agrees: True"]
        assert [line.split("  (cofactor ")[0] for line in lines[2:]] == [f"  factor {f}" for f in factors]


def test_cli_refuses_witnesses_past_the_modulus_limits(capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("witness built before the limit was checked")

    monkeypatch.setattr(kummer, "root_combination", forbidden)
    monkeypatch.setattr(CycElem, "from_rational", forbidden)
    for argv, modulus, limit in (
        (("sqrt-embed", "50021"), 50021, MAX_WITNESS_MODULUS),
        (("sqrt-embed", "1000000007"), 4000000028, MAX_WITNESS_MODULUS),
        (("root-member", "4", "2", "1000000000"), 1000000000, MAX_MEMBER_MODULUS),
        (("root-member", "2", "2", "1000000000"), 1000000000, MAX_MEMBER_MODULUS),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: a witness at modulus {modulus} is above the limit {limit}\n"
    code, out, _ = run(capsys, "root-member", "3", "2", "1000000000")
    assert code == 0
    assert "NO" in out


def test_cli_json_output_formats_no_text(capsys, monkeypatch):
    """Under --json no witness is formatted as text, and each factor once,
    for its JSON string; the cofactors are not formatted at all."""
    formatted = []
    ratpoly_str = RatPoly.__str__

    def forbidden(self):
        raise AssertionError("witness formatted as text under --json")

    def counting(self):
        formatted.append(self)
        return ratpoly_str(self)

    monkeypatch.setattr(CycElem, "__str__", forbidden)
    monkeypatch.setattr(RatPoly, "__str__", counting)
    for argv in (("sqrt-embed", "2"), ("root-member", "2", "2", "8")):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["witness"]
    code, out, _ = run(capsys, "irreducible", "16", "4", "--oracle", "--json")
    assert code == 0
    assert len(json.loads(out)["factors"]) == len(formatted) == 6


# quotes, backslashes, control characters and non-ASCII, besides any text
json_strings = st.text(max_size=8) | st.sampled_from(['"', "\\", "a\n\t\x00\x1f\x7f", "é\u2028😀"])
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | json_strings,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(json_strings, inner, max_size=5),
    max_leaves=30,
)


@given(json_trees)
@settings(max_examples=300)
def test_json_writer_prints_what_json_dumps_prints(tree):
    """The payload writer is byte for byte the stdlib's sorted, two-space
    indented, ASCII-escaped JSON, on every shape a payload can take."""
    assert cli._json_text(tree) == json.dumps(tree, sort_keys=True, indent=2)


class Level(enum.IntEnum):
    LOW = 1


class Text(str):
    pass


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": [0.5]}, ["a", ("b",)], {None: 1}, {"a": {2: 3}},
                                   Level.LOW, Text("a"), ["a", Text("b")], {Text("a"): 1}, {"a": [Level.LOW]}])
def test_json_writer_refuses_what_no_payload_holds(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_cli_json_does_not_call_json_dumps(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", forbidden)
    code, out, _ = run(capsys, "classify", "cos", "1/7", "--json")
    assert code == 0
    assert json.loads(out)["witness"]["modulus"] == 28


def test_cli_group(capsys):
    code, out, _ = run(capsys, "group", "5")
    assert code == 0
    assert "order 20" in out and "non-abelian" in out


def test_cli_group_refuses_orders_past_the_limit(capsys, monkeypatch):
    # 22 * phi(22) = 220 is within MAX_GROUP_ORDER = 480, 23 * phi(23) = 506 is not
    code, out, _ = run(capsys, "group", "22")
    assert code == 0
    assert "order 220" in out
    code, out, err = run(capsys, "group", "23")
    assert (code, out) == (2, "")
    assert err == "error: group order n*phi(n) = 506 at n = 23 is above the limit 480\n"
    code, out, err = run(capsys, "group", str(LARGE_N))  # refused without factoring
    assert (code, out) == (2, "")
    assert err == f"error: group order n*phi(n) >= n = {LARGE_N} is above the limit 480\n"

    def forbidden(n):
        raise AssertionError(f"group {n} built before the limit was checked")

    monkeypatch.setattr(cli, "meta_group_checks", forbidden)
    code, out, err = run(capsys, "verify", "group", "--n-max", "23")
    assert (code, out) == (2, "")
    assert err == "error: group order n*phi(n) = 506 at n = 23 is above the limit 480\n"


@pytest.mark.parametrize("argv, modulus", [
    (["gauss", "41001"], 41001),
    (["gauss", "1000000007"], 1000000007),
    (["verify", "gauss", "--m-max", "41001"], 41001),
])
def test_cli_gauss_refuses_moduli_past_the_witness_limit(argv, modulus):
    result = subprocess.run(
        [sys.executable, "-m", "trigrat", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: a witness at modulus {modulus} is above the limit {MAX_WITNESS_MODULUS}\n"


def test_cli_verify_gauss_refuses_before_any_sum(capsys, monkeypatch):
    def forbidden(m):
        raise AssertionError(f"g({m}) built before the limit was checked")

    monkeypatch.setattr(cli, "gauss_sum_case_check", forbidden)
    code, out, err = run(capsys, "verify", "gauss", "--m-max", str(MAX_WITNESS_MODULUS + 1))
    assert (code, out) == (2, "")
    assert err == f"error: a witness at modulus {MAX_WITNESS_MODULUS + 1} is above the limit {MAX_WITNESS_MODULUS}\n"


def test_cli_verify_remark(capsys):
    code, out, _ = run(capsys, "verify", "remark")
    assert code == 0
    assert "verified" in out


def test_cli_verify_gauss(capsys):
    code, out, _ = run(capsys, "verify", "gauss", "--m-max", "12")
    assert code == 0
    assert "all cases verified" in out


def test_cli_verify_group(capsys):
    code, out, _ = run(capsys, "verify", "group", "--n-max", "6")
    assert code == 0
    assert "verified" in out


def test_cli_verify_sweep(capsys):
    code, out, _ = run(capsys, "verify", "sweep", "--q-max", "4", "--n-max", "3")
    assert code == 0
    assert "0 violations" in out


@pytest.mark.parametrize("argv, error", [
    (["verify", "sweep", "--q-max", "3", "--n-max", "2", "--funcs", "cos,cos"],
     "funcs must not repeat a function, got cos,cos"),
    (["verify", "sweep", "--q-max", "0"], "q_max must be >= 1, got 0"),
    (["verify", "gauss", "--m-max", "0"], "m_max must be >= 1, got 0"),
    (["verify", "gauss", "--m-max", "-3"], "m_max must be >= 1, got -3"),
    (["verify", "group", "--n-max", "1"], "n_max must be >= 2, got 1"),
    (["verify", "group", "--n-max", "-2"], "n_max must be >= 2, got -2"),
])
def test_cli_verify_refuses_runs_that_check_nothing_or_count_twice(capsys, monkeypatch, argv, error):
    """A verify run with no case to check, or a function named twice,
    exits 2 before any sum, group or power is built."""
    def forbidden(*args):
        raise AssertionError("work started before the bounds were checked")

    for name in ("gauss_sum_case_check", "meta_group_checks", "_check_group_order", "verify_theorem_sweep"):
        monkeypatch.setattr(cli, name, forbidden)
    for flag in ([], ["--json"]):
        code, out, err = run(capsys, *argv, *flag)
        assert (code, out, err) == (2, "", f"error: {error}\n")


def test_cli_verify_sweep_refuses_exponents_past_the_limit(capsys):
    n = str(MAX_POWER_EXPONENT + 1)
    code, out, err = run(capsys, "verify", "sweep", "--q-max", "4", "--n-max", n)
    assert (code, out) == (2, "")
    assert err == f"error: n_max must be <= {MAX_POWER_EXPONENT}, got {n}\n"


@pytest.mark.parametrize("argv, error", [
    (["classify", "cos", "1/100000000000"], f"is above the limit {MAX_TRIG_MODULUS}"),
    (["classify", "tan", "1/10000019", "--json"], f"is above the limit {MAX_TRIG_MODULUS}"),
    (["eval", "cos", "1/1000000007", "--pow", "2"], f"is above the limit {MAX_POLYGON_SPREAD}"),
    (["verify", "sweep", "--q-max", str(MAX_TRIG_MODULUS // 4 + 1)], "q_max must be <="),
])
def test_cli_refuses_trig_inputs_past_the_limits(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and error in err


@st.composite
def trig_argv(draw):
    """classify or eval of cos, sin or tan at p/q, --pow in [-2, 1002] or
    none, --json or not; q either at most 2000 or past the limits
    (M >= 2q > MAX_TRIG_MODULUS)."""
    q = draw(st.one_of(st.integers(1, 2000), st.integers(MAX_TRIG_MODULUS // 2 + 1, 10 ** 30)))
    p = draw(st.integers(-4 * q, 4 * q))
    assume(gcd(p, q) == 1)
    argv = [draw(st.sampled_from(["classify", "eval"])), draw(st.sampled_from(["cos", "sin", "tan"])), f"{p}/{q}"]
    if argv[0] == "eval" and draw(st.booleans()):
        argv += ["--pow", str(draw(st.integers(-2, 1002)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@given(trig_argv())
@settings(max_examples=30)
def test_trig_commands_answer_or_refuse_within_the_budget(argv):
    """Each run answers (exit 0) or refuses with a message (exit 2) within
    20 s, and never ends in a traceback.  A negative p/q reads as an option
    to argparse, which refuses it with its usage message."""
    result = subprocess.run([sys.executable, "-m", "trigrat", *argv], capture_output=True, text=True, timeout=20)
    assert result.returncode in (0, 2), (argv, result.stderr)
    assert "Traceback" not in result.stderr, argv
    assert (result.returncode == 2) == ("error: " in result.stderr), (argv, result.stderr)


# primes near 10^9: trial division of a product of two of them up to its
# square root would take minutes
LARGE_PRIMES = (1000000007, 1000000009, 999999937)


@st.composite
def radical_argv(draw):
    """root-member alpha n m or sqrt-embed alpha, --json or not, alpha =
    a/b (a, b <= 60) times one or two primes near 10^9, each to the first
    or second power; n in 1..12, m either at most 200 or past
    MAX_MEMBER_MODULUS."""
    alpha = Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 60)))
    for p in draw(st.lists(st.sampled_from(LARGE_PRIMES), min_size=1, max_size=2)):
        alpha *= Fraction(p) ** draw(st.sampled_from([1, 2, -1, -2]))
    if draw(st.booleans()):
        m = draw(st.one_of(st.integers(1, 200), st.integers(MAX_MEMBER_MODULUS + 1, 10 ** 12)))
        argv = ["root-member", str(alpha), str(draw(st.integers(1, 12))), str(m)]
    else:
        argv = ["sqrt-embed", str(alpha)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@given(radical_argv())
@settings(max_examples=30)
def test_radical_commands_answer_or_refuse_within_the_budget(argv):
    """Each run answers (exit 0) or refuses with a message (exit 2) within
    20 s, and never ends in a traceback; neither command factors alpha past
    a bound."""
    result = subprocess.run([sys.executable, "-m", "trigrat", *argv], capture_output=True, text=True, timeout=20)
    assert result.returncode in (0, 1, 2), (argv, result.stderr)
    assert "Traceback" not in result.stderr, argv
    assert (result.returncode == 2) == ("error: " in result.stderr), (argv, result.stderr)


# (10^9 + 7)(10^9 + 9) as an exponent, a modulus or an order: factoring it
# by trial division would take minutes
LARGE_N = LARGE_PRIMES[0] * LARGE_PRIMES[1]


@st.composite
def other_argv(draw):
    """eval --pow, irreducible with and without --oracle, gauss, group and
    verify sweep|gauss|group, each size small or LARGE_N, --json or not;
    alpha = a/b (a, b <= 60), possibly times a prime near 10^9."""
    def size(small):
        return str(draw(st.one_of(st.integers(-2, small), st.just(LARGE_N))))

    command = draw(st.sampled_from(["eval", "irreducible", "gauss", "group", "sweep", "verify gauss", "verify group"]))
    if command == "eval":
        argv = ["eval", draw(st.sampled_from(["cos", "sin", "tan"])), f"1/{draw(st.integers(1, 60))}", "--pow", size(60)]
    elif command == "irreducible":
        alpha = Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 60))) * draw(st.sampled_from((1,) + LARGE_PRIMES))
        argv = ["irreducible", str(alpha), size(12)] + draw(st.sampled_from([[], ["--oracle"]]))
    elif command == "gauss":
        argv = ["gauss", size(200)]
    elif command == "group":
        argv = ["group", size(12)]
    elif command == "sweep":
        argv = ["verify", "sweep", "--q-max", size(12), "--n-max", size(12)]
    elif command == "verify gauss":
        argv = ["verify", "gauss", "--m-max", size(30)]
    else:
        argv = ["verify", "group", "--n-max", size(12)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@given(other_argv())
@settings(max_examples=40)
def test_other_commands_answer_or_refuse_within_the_budget(argv):
    """Each run answers (exit 0 or 1) or refuses with a message (exit 2)
    within 20 s, and never ends in a traceback; no exponent, modulus or
    order is factored past a bound."""
    result = subprocess.run([sys.executable, "-m", "trigrat", *argv], capture_output=True, text=True, timeout=20)
    assert result.returncode in (0, 1, 2), (argv, result.stderr)
    assert "Traceback" not in result.stderr, argv
    assert (result.returncode == 2) == ("error: " in result.stderr), (argv, result.stderr)


def test_cli_prints_the_full_parsers_help_and_usage_errors(capsys, payload_digests):
    """Every help and usage-error line of the digest script's "usage
    errors and help" grid gives through ``run_cli`` the exit code, stdout
    and stderr that the full parser gives when it parses the line alone."""
    for argv in payload_digests.USAGE_ARGV:
        got = (run_cli(list(argv)), *capsys.readouterr())
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(list(argv))
        assert got == (int(exc.value.code or 0), *capsys.readouterr()), argv


def test_the_first_declined_line_builds_the_full_parser_once(monkeypatch, capsys):
    """A well-formed classify is read from its declaration and builds no
    ArgumentParser; the first line the reader declines builds the full
    parser, and a later declined line reuses it."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert run_cli(["classify", "cos", "1/3"]) == 0
    assert run_cli(["classify", "sin", "1/6", "--json"]) == 0
    assert built == []
    assert run_cli(["classify", "--js", "cos", "1/3"]) == 0
    assert built and built[0] == "trigrat"
    count = len(built)
    assert run_cli(["classify", "--js", "sin", "1/6"]) == 0
    assert len(built) == count


def _imports(argv):
    """The exit code of ``python -m trigrat argv`` and the modules it
    imports, as ``-X importtime`` lists them."""
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "trigrat", *argv],
                            capture_output=True, text=True, timeout=60)
    return result.returncode, {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}


@pytest.mark.parametrize("argv", [
    ["classify", "cos", "1/3", "--json"],
    ["root-member", "4/9", "2", "12", "--json"],
    ["verify", "sweep", "--q-max", "3", "--json"],
], ids=["classify", "root-member", "verify-sweep"])
def test_a_well_formed_line_never_imports_argparse(argv):
    """A fresh process that runs a well-formed line imports no argparse;
    one whose line the reader declines does."""
    code, modules = _imports(argv)
    assert code == 0 and "trigrat.cli" in modules
    assert "argparse" not in modules
    code, modules = _imports([argv[0], "--js", *argv[1:-1]])
    assert code == 0 and "argparse" in modules


def _option_strings():
    """Every option string of every command and verify target."""
    flags = {cli._JSON[0]}
    for command in cli.COMMANDS.values():
        for arguments in (command.arguments, *(a for _, a in (command.targets or {}).values())):
            flags.update(flag for flag, _ in arguments if flag.startswith("-"))
    return sorted(flags)


# what a line may hold: option strings, the forms the reader hands to
# argparse, and values
ODD_TOKENS = ["--js", "--po", "--or", "--q", "--n-m", "-h", "--help", "--", "-", "--pow=2", "--json=1", "-2", "-1/3"]
VALUES = st.one_of(
    st.sampled_from(["", "cos", "sin", "tan", "sweep", "gauss", "group", "remark", "x", "1x", "a b", "cos,tan"]),
    st.integers(-3, 40).map(str),
    st.fractions(min_value=-2, max_value=2, max_denominator=12).map(str),
)
TOKENS = st.one_of(st.sampled_from(_option_strings() + ODD_TOKENS), VALUES)


@st.composite
def command_lines(draw):
    """A command and the tokens after its name: either any tokens at all,
    or its positionals and options in any order, each option 0-2 times,
    --json before or after a verify target, and maybe one token
    inserted, replaced or deleted."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    command = cli.COMMANDS[name]
    if draw(st.booleans()):
        return name, draw(st.lists(TOKENS, max_size=8))
    arguments, head = command.arguments, []
    if command.targets:
        target = draw(st.sampled_from(sorted(command.targets)))
        arguments, head = command.targets[target][1], [target]

    def value(keywords):
        return draw(st.one_of(st.integers(0, 40).map(str), VALUES) if "type" in keywords else VALUES)

    chunks = [[value(keywords)] for flag, keywords in arguments if not flag.startswith("-")]
    for flag, keywords in (cli._JSON, *arguments):
        if flag.startswith("-"):
            for _ in range(draw(st.integers(0, 2))):
                chunks.append([flag] if keywords.get("action") else [flag, value(keywords)])
    tokens = [token for chunk in draw(st.permutations(chunks)) for token in chunk]
    edit = draw(st.sampled_from(["none", "none", "insert", "replace", "delete"]))
    if edit == "insert":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(TOKENS))
    elif edit != "none" and tokens:
        at = draw(st.integers(0, len(tokens) - 1))
        tokens[at:at + 1] = [draw(TOKENS)] if edit == "replace" else []
    if head and draw(st.integers(0, 3)) == 0:
        head = ["--json", *head]
    return name, head + tokens


def parsed(name, tokens):
    """The full parser's namespace for the line ``name tokens``, less the
    command, and what it leaves over; its usage errors are raised as
    AssertionError."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            args, extras = cli.build_parser().parse_known_args([name, *tokens])
    except SystemExit:
        raise AssertionError(f"argparse refuses {name} {tokens}: {err.getvalue()}") from None
    values = vars(args)
    assert values.pop("command") == name
    return values, extras


@given(command_lines())
@settings(max_examples=600)
def test_the_reader_gives_argparses_namespace_whenever_it_reads_a_line(line):
    name, tokens = line
    read = cli._read(cli.COMMANDS[name], tokens)
    if read is not None:
        assert parsed(name, tokens) == (vars(read), []), (name, tokens)


@pytest.mark.parametrize("argv", [
    ["eval", "--pow", "2", "cos", "1/3"],
    ["eval", "cos", "--pow", "2", "1/3"],
    ["eval", "cos", "1/3", "--pow", "2"],
    ["eval", "cos", "1/3", "--pow", "2", "--json", "--pow", "3"],
    ["root-member", "4/9", "--json", "2", "12"],
    ["irreducible", "--oracle", "4", "2", "--oracle"],
    ["sqrt-embed", ""],
    ["classify", "", ""],
    ["verify", "sweep", "--q-max", "3", "--json", "--q-max", "4"],
    ["verify", "remark"],
])
def test_the_reader_reads_options_anywhere_and_the_last_value(argv):
    """Options before, between and after positionals, a repeated --pow
    (the last one wins), a repeated --oracle and empty positionals are
    read, to argparse's namespace."""
    read = cli._read(cli.COMMANDS[argv[0]], argv[1:])
    assert read is not None
    assert parsed(argv[0], argv[1:]) == (vars(read), [])


@pytest.mark.parametrize("argv", [
    ["verify", "--json", "sweep"],
    ["verify", "sweep", "--q-max=3"],
    ["verify", "sweep", "--q", "3"],
    ["verify", "gauss", "--q-max", "3"],
    ["verify", "sweep", "--q-max"],
    ["verify", "sweep", "--funcs"],
    ["verify", "sweep", "--funcs", "--json"],
    ["verify"],
    ["eval", "cos", "1/3", "--pow", "-2"],
    ["eval", "cos", "1/3", "--pow", "x"],
    ["classify", "cos", "--", "-1/3"],
    ["classify", "cos", "-2"],
    ["classify", "cos", "1/3", "-h"],
    ["classify", "cos", "1/3", "-"],
    ["root-member", "4/9", "2"],
    ["root-member", "4/9", "2", "12", "5"],
    ["gauss", ""],
])
def test_the_reader_declines_what_argparse_must_read(argv):
    assert cli._read(cli.COMMANDS[argv[0]], argv[1:]) is None


def test_cli_help_lists_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    names = ["classify", "eval", "gauss", "sqrt-embed", "root-member", "irreducible", "group", "verify"]
    assert list(cli.COMMANDS) == names
    assert run_cli(["--help"]) == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(names) + "}" in out
    for command in cli.COMMANDS.values():
        assert command.help in out


def test_cli_verify_sweep_json(capsys):
    code, out, _ = run(capsys, "verify", "sweep", "--json", "--q-max", "3", "--n-max", "2")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == []
    assert data["totals"]["queries"] > 0


@pytest.mark.parametrize("argv, extras", [
    (["verify", "gauss", "--m-max", "3", "--funcs", "bogus"], "--funcs bogus"),
    (["verify", "remark", "--q-max", "0"], "--q-max 0"),
    (["verify", "group", "--n-max", "3", "--q-max", "5"], "--q-max 5"),
    (["verify", "sweep", "--m-max", "3"], "--m-max 3"),
    (["verify", "sweep", "--parallel"], "--parallel"),
], ids=["gauss-funcs", "remark-q-max", "group-q-max", "sweep-m-max", "sweep-parallel"])
def test_cli_verify_refuses_an_option_its_target_does_not_read(capsys, monkeypatch, argv, extras):
    """Each verify target takes only the options it reads: any other one,
    and --parallel, is an unrecognized argument, exit 2 with no handler
    called."""
    def forbidden(args):
        raise AssertionError("a handler ran on a refused line")

    monkeypatch.setitem(cli.COMMANDS, "verify", cli.COMMANDS["verify"]._replace(handler=forbidden))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"\ntrigrat: error: unrecognized arguments: {extras}\n")


@pytest.mark.parametrize("target", [
    ["sweep", "--q-max", "6", "--n-max", "3", "--funcs", "tan,cos"],
    ["gauss", "--m-max", "12"],
    ["group", "--n-max", "4"],
    ["remark"],
])
def test_cli_verify_takes_json_before_or_after_the_target(capsys, target):
    before = run(capsys, "verify", "--json", *target)
    assert before[0] == 0 and json.loads(before[1])
    assert run(capsys, "verify", *target, "--json") == before
    assert run(capsys, "verify", *target)[1] != before[1]


def test_cli_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "trigrat", "classify", "sin", "1/6"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "1/2" in result.stdout


def test_consecutive_cli_calls_do_not_share_flags(capsys):
    code, out, _ = run(capsys, "irreducible", "8", "6", "--oracle", "--json")
    assert code == 0 and "oracle_reducible" in json.loads(out)
    code, out, _ = run(capsys, "irreducible", "8", "6", "--json")
    assert code == 0 and "oracle_reducible" not in json.loads(out)

    code, out, _ = run(capsys, "verify", "sweep", "--json", "--q-max", "3", "--n-max", "2")
    assert code == 0 and "totals" in json.loads(out)
    code, out, _ = run(capsys, "verify", "sweep", "--q-max", "3", "--n-max", "2")
    assert code == 0 and out.startswith("sweep q <= 3, n <= 2:")


# sha256 of the --json output of each command, as the table-based
# arithmetic printed it
PAYLOAD_DIGESTS = [
    ("classify cos 1/3", "9194bdf014c10c12af573df675e011dc953f498a820096da59ec80c495acc437"),
    ("classify sin 1/4", "d7efd6566a598842e46f788ce18e0f80029698a8ab03b45ef3b0c8d7cffd6390"),
    ("classify tan 1/6", "4aa8c103f6a48d5802d3b8c99f176d3a43dfb01b2a97c6e88a5f9ecb230d4770"),
    ("classify cos 2/7", "04434a5eebbe7ef7c7fcff2d0b50013ca6bfa759c9a70ab09e06001258740fed"),
    ("classify tan 1/2", "899a85c97c0a4604fcd10b2a19a2c63ac910cfa5ec0cfa56f5d3f72a9b92ad36"),
    ("eval cos 2/3 --pow 3", "3867261fc5962f6180c76af1016a6cf7a9fe69260c8f808465dace0956cea7d2"),
    ("eval sin 1/4 --pow 2", "8ba22909e16a94db864eb7b50a5fad1bc142ea5155084df64e2bdf3c5b660a7d"),
    ("eval tan 5/12 --pow 2", "ee15a8e2b67e840871fae421a3114e441f4c92d14b799b064e5b559f76860db8"),
    ("verify sweep --q-max 12", "025caea64e5345f0423266febeec002229b2d9f74fef276c4214d34309b7c80e"),
    ("root-member 2 2 8", "04dfd098644f83a86371e5021a6fa4e2d6159640249692cf40efbdabe10dc3dc"),
    ("root-member 21 2 8400", "8c11bf20b552d99cfe348222416bf998ca196f838750cbd1f354ec2b661061c5"),
    ("sqrt-embed 15", "07de6c97c88face9035d68ce0ddad1e02de233774acd928c4c5fb221de24921b"),
    ("sqrt-embed 2310", "3082fbd59cae097e635f5770651c7d371493b791b569f27378951adc4bf0a282"),
    ("gauss 60", "01e40f36a8ddc7a50735f018456dc0360aec7f466b0669f24aae9b64a0c54ee7"),
    ("verify gauss --m-max 30", "5b7c87d73f1e3789f91400a7797a910708023fe3ba220e4c090033c20a8f06cd"),
    ("verify remark", "5bde941e80617baf8bc61be5a479bb561b8467ae5e4a7ef6fe7bd2ef6140e13b"),
    ("irreducible 8 6 --oracle", "baaa8cfac8621beb8342be73a5c53d210127a358d6ebbf8af77b061250e40175"),
]


def test_decision_paths_build_no_power_table(monkeypatch, capsys):
    """Every answer reduces modulo Phi_m directly: with the power table
    disabled the CLI still prints the payloads the table-based code did."""
    def forbidden(m):
        raise AssertionError(f"power table built for modulus {m}")

    monkeypatch.setattr("trigrat.cyclotomic._power_table", forbidden)
    for cached in (trig_elem, classify):
        cached.cache_clear()

    for command, digest in PAYLOAD_DIGESTS:
        code, out, _ = run(capsys, *command.split(), "--json")
        assert code == 0, command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command

    # sqrt(2) = z8 - z8^3 lands on z^12500 - z^37500, below phi(100000) = 40000
    code, out, _ = run(capsys, "root-member", "2", "2", "100000", "--json")
    assert code == 0
    coeffs = ["0"] * 40000
    coeffs[12500], coeffs[37500] = "1", "-1"
    assert json.loads(out) == {
        "alpha": "2",
        "n": 2,
        "modulus": 100000,
        "answer": "YES",
        "justification": "galois_invariance",
        "witness": {"modulus": 100000, "coeffs": coeffs},
    }


# classify_eval_grid(12) and verify sweep q<=12 n<=8 of the digest script,
# as printed by the code that expanded every power densely in the power basis
GRID_12_DIGEST = "9fee70126c649227baecd1844c6848c0767d43aaf0c7c29c9db595145f13749c"
SWEEP_12_8_DIGEST = "025caea64e5345f0423266febeec002229b2d9f74fef276c4214d34309b7c80e"


# verify sweep --q-max 48 --n-max 12 --json, in each order of --funcs: the
# first function's surveys lay out the powers the others reuse, and the
# payload is the same (scripts/payload_digests.py prints the tan-first one)
SWEEP_48_12_DIGEST = "1965a4216f5d774c970a8131682714e66e62fbfd764a2e1bf227a60bfdb26326"


@pytest.mark.parametrize("funcs", ["tan,sin,cos", "cos,sin,tan", "sin,tan,cos"])
def test_sweep_payload_is_the_same_in_each_function_order(payload_digests, funcs):
    assert payload_digests.sweep_digest(48, 12, funcs) == SWEEP_48_12_DIGEST


def test_text_classify_builds_no_field_element(monkeypatch, capsys):
    """Text-mode classify prints the verdict alone: with ``root_combination``
    refused and the trig caches empty, it answers at the cold-classify
    angles, at cos 1/15015 and at tan 1/10007, whose witnesses take
    seconds, while each --json line still builds its witness."""
    def forbidden(*args, **kwargs):
        raise AssertionError("field element built")

    monkeypatch.setattr("trigrat.trig.root_combination", forbidden)
    monkeypatch.setattr("trigrat.cyclotomic.root_combination", forbidden)
    trig_elem.cache_clear()
    classify.cache_clear()
    lines = [(func, f"{p}/{q}") for q in range(100, 200) for p in (1, 7, 2 * q - 1) if gcd(p, q) == 1
             for func in ("cos", "sin", "tan")]
    for func, theta in lines + [("cos", "1/15015"), ("tan", "1/10007")]:
        code, out, err = run(capsys, "classify", func, theta)
        assert (code, err) == (0, ""), (func, theta)
        assert out.startswith(f"{func}(pi*{theta})"), (func, theta)
        with pytest.raises(AssertionError, match="field element built"):
            run_cli(["classify", func, theta, "--json"])


def test_decision_paths_build_no_dense_power(monkeypatch, payload_digests):
    """classify, eval and the sweep write every power down by the binomial
    theorem: with field products and powers disabled they still print the
    payloads of the dense code."""
    def forbidden(*args, **kwargs):
        raise AssertionError("dense power-basis product on a decision path")

    for name in ("__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(CycElem, name, forbidden)
    trig_elem.cache_clear()
    classify.cache_clear()

    assert payload_digests.commands_digest(payload_digests.classify_eval_grid(12)) == GRID_12_DIGEST
    assert payload_digests.sweep_digest(12, 8) == SWEEP_12_8_DIGEST
