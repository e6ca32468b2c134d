import argparse
import hashlib
import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import reference_sweep
from trigrat import cli, kummer, sweep
from trigrat.cli import run_cli
from trigrat.cyclotomic import CycElem
from trigrat.kummer import MAX_MEMBER_MODULUS, MAX_WITNESS_MODULUS
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
    with pytest.raises(ValueError):
        SweepConfig(q_max=1, n_max=MAX_POWER_EXPONENT + 1)
    # every q <= MAX_TRIG_MODULUS // 4 has M = lcm(2q, 4) <= 4q within the
    # limit; the next q is odd, with M = 4q above it
    SweepConfig(q_max=MAX_TRIG_MODULUS // 4, n_max=1)
    with pytest.raises(ValueError, match=f"q_max must be <= {MAX_TRIG_MODULUS // 4}"):
        SweepConfig(q_max=MAX_TRIG_MODULUS // 4 + 1, n_max=1)


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
    """One survey per Galois orbit prints the report of the brute sweep
    over every reduced angle, byte for byte."""
    config = SweepConfig(q_max=48, n_max=8, funcs=funcs)
    assert report_text(verify_theorem_sweep(config)) == report_text(reference_sweep(config))


def test_misclassified_representatives_survey_their_orbits(monkeypatch):
    """A representative with a violation makes the sweep survey every other
    member of its orbit: with cos at 1/5 (the representative of the odd p
    over 5) and 3/5 (a member) planted as SQUARE_RATIONAL, both sweeps
    report the same violations, at both angles, and the same case counts."""
    planted = {Angle(1, 5), Angle(3, 5)}
    decide = sweep._classify_by_powers

    def faulty(func, angle, values):
        if func is COS and angle in planted:
            return Classification(func, angle, Case.SQUARE_RATIONAL, 2, Fraction(1, 2), None)
        return decide(func, angle, values)

    monkeypatch.setattr(sweep, "_classify_by_powers", faulty)
    config = SweepConfig(q_max=12, n_max=8)
    orbit, brute = verify_theorem_sweep(config), reference_sweep(config)
    assert {v.angle for v in orbit.violations} == planted
    assert orbit.violations == brute.violations
    assert orbit.case_counts == brute.case_counts
    assert report_text(orbit) == report_text(brute)


def test_witness_and_power_decisions_agree():
    """``classify`` decides n = 1 from the coordinates of its witness, the
    sweep from its own powers at n = 1 and 2 alone: on every reduced angle
    with q <= 200 and each function they give the same case, least
    exponent and value."""
    pairs = 0
    for angle in reduced_angles(200):
        powers = sweep._powers((COS, SIN, TAN), angle, 2)
        for func in (COS, SIN, TAN):
            by_witness, by_powers = classify(func, angle), sweep._classify_by_powers(func, angle, powers.get(func))
            assert (by_powers.case, by_powers.minimal_n, by_powers.value) == (
                by_witness.case, by_witness.minimal_n, by_witness.value), (func, angle)
            pairs += 1
    assert pairs == 73392


def test_sweep_builds_no_witness(monkeypatch, capsys):
    """The sweep decides every case from its powers: with field elements
    and Phi_M disabled, and the trig caches empty, it prints the same
    payload."""
    def forbidden(*args, **kwargs):
        raise AssertionError("field element or Phi_M built in the sweep")

    monkeypatch.setattr(CycElem, "_store", forbidden)
    monkeypatch.setattr("trigrat.cyclotomic._cyclotomic_int_coeffs", forbidden)
    trig_elem.cache_clear()
    classify.cache_clear()
    code, out, _ = run(capsys, "verify", "sweep", "--q-max", "48", "--n-max", "12", "--funcs", "tan,sin,cos", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_48_12_DIGEST


def test_sweep_surveys_one_representative_per_orbit(monkeypatch):
    """One survey per (q, orbit), of its representative for every
    function, plus one of each other member of the orbits with a rational
    power, for the functions that have one: by the paper those are the
    orbits at q in {1, 2, 3, 4, 6}, for all three functions.  The orbits of
    q are the odd p and, for odd q, the even p coprime to q in [0, 2q)."""
    calls = []
    powers = sweep._powers

    def counted(funcs, angle, n_max):
        calls.append(len(funcs))
        return powers(funcs, angle, n_max)

    monkeypatch.setattr(sweep, "_powers", counted)
    report = verify_theorem_sweep(SweepConfig(q_max=32, n_max=8))
    assert report.clean

    def orbits(q):
        reduced = [p for p in range(2 * q) if gcd(p, q) == 1]
        return [o for o in ([p for p in reduced if p % 2], [p for p in reduced if p % 2 == 0]) if o]

    n_orbits = sum(len(orbits(q)) for q in range(1, 33))
    other_members = sum(len(o) - 1 for q in (1, 2, 3, 4, 6) for o in orbits(q))
    assert (n_orbits, other_members) == (48, 9)
    assert calls == [3] * (n_orbits + other_members)


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
])
def test_cli_oracle_refuses_alpha_outside_the_float_range(argv):
    result = subprocess.run(
        [sys.executable, "-m", "trigrat", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: alpha is outside the float range the subset scan works in\n"


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


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": [0.5]}, ["a", ("b",)], {None: 1}, {"a": {2: 3}}])
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


def _usage_argv():
    """The help and usage-error command lines of the digest script's
    "usage errors and help" grid."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "payload_digests.py"
    spec = importlib.util.spec_from_file_location("payload_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.USAGE_ARGV


def test_cli_prints_the_full_parsers_help_and_usage_errors(capsys):
    """Every help and usage-error line gives through ``run_cli`` the exit
    code, stdout and stderr of the full parser, although ``run_cli`` parses
    a line that names a command with that command's parser alone."""
    for argv in _usage_argv():
        got = (run_cli(list(argv)), *capsys.readouterr())
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(list(argv))
        assert got == (int(exc.value.code or 0), *capsys.readouterr()), argv


def test_a_command_builds_only_its_own_parser(monkeypatch, capsys):
    """The first classify of a process constructs one ArgumentParser, its
    own, not the full parser with all eight subparsers."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._command_parser.cache_clear()
    cli.build_parser.cache_clear()
    assert run_cli(["classify", "cos", "1/3"]) == 0
    assert run_cli(["classify", "sin", "1/6"]) == 0
    assert built == ["trigrat classify"]


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


def test_cli_verify_sweep_parallel_flag_changes_nothing(capsys):
    """--parallel is accepted and ignored: the sweep runs in one process."""
    argv = ("verify", "sweep", "--q-max", "12", "--n-max", "3")
    assert run(capsys, *argv, "--parallel") == run(capsys, *argv)


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


def grid_digest(capsys, q_max):
    """sha256 over `classify --json` and `eval --pow 1..4 --json` for cos,
    sin and tan at every reduced angle with q <= q_max: each command line,
    its exit code, then its stdout and stderr."""
    digest = hashlib.sha256()
    for angle in reduced_angles(q_max):
        for func in ("cos", "sin", "tan"):
            commands = [["classify", func, str(angle)]]
            commands += [["eval", func, str(angle), "--pow", str(n)] for n in range(1, 5)]
            for argv in commands:
                argv.append("--json")
                code, out, err = run(capsys, *argv)
                digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}".encode())
    return digest.hexdigest()


def sweep_digest(capsys, q_max, n_max):
    code, out, _ = run(capsys, "verify", "sweep", "--q-max", str(q_max), "--n-max", str(n_max), "--json")
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


# the same digests as printed by the code that expanded every power densely
# in the power basis
GRID_12_DIGEST = "9fee70126c649227baecd1844c6848c0767d43aaf0c7c29c9db595145f13749c"
GRID_30_DIGEST = "0a51256d41cd0df42e593e0c6d1c8f300428dff3d42d32b6d30d4053e1a69908"
SWEEP_12_8_DIGEST = "025caea64e5345f0423266febeec002229b2d9f74fef276c4214d34309b7c80e"
SWEEP_32_8_DIGEST = "0b4454e4edee6b5c78e0ad96b78ed21a8c4769af13c2a151426bf35407561da2"


# verify sweep --q-max 48 --n-max 12 --json, in each order of --funcs: the
# first function's surveys lay out the powers the others reuse, and the
# payload is the same (scripts/payload_digests.py prints the tan-first one)
SWEEP_48_12_DIGEST = "1965a4216f5d774c970a8131682714e66e62fbfd764a2e1bf227a60bfdb26326"


@pytest.mark.parametrize("funcs", ["tan,sin,cos", "cos,sin,tan", "sin,tan,cos"])
def test_sweep_payload_is_the_same_in_each_function_order(capsys, funcs):
    code, out, _ = run(capsys, "verify", "sweep", "--q-max", "48", "--n-max", "12", "--funcs", funcs, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_48_12_DIGEST


def test_payloads_match_dense_power_digests(capsys):
    assert sweep_digest(capsys, 32, 8) == SWEEP_32_8_DIGEST
    assert grid_digest(capsys, 30) == GRID_30_DIGEST


# eval --pow N --json for cos, sin and tan at 1/q, q in {3, 4, 5, 6, 7, 12},
# N in {31, 64, 257, 1000}, as printed when powers came from
# square-and-multiply
HIGH_POWER_DIGEST = "1c9b533cf4f9f52e98eba6e3b14bb4ee0a70597a94b3a98177db5ef7029e1ba8"


def test_high_power_payloads_match_digest(capsys):
    digest = hashlib.sha256()
    for q in (3, 4, 5, 6, 7, 12):
        for func in ("cos", "sin", "tan"):
            for n in (31, 64, 257, 1000):
                argv = ["eval", func, f"1/{q}", "--pow", str(n), "--json"]
                code, out, err = run(capsys, *argv)
                digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}".encode())
    assert digest.hexdigest() == HIGH_POWER_DIGEST


# classify --json for cos, sin and tan at p/q, p in {1, 7, 2q - 1} coprime
# to q, 100 <= q < 200 (a cold modulus lcm(2q, 4) per q), as printed with
# Phi_m built from the dense Moebius product and each witness coordinate
# written through a Fraction
COLD_CLASSIFY_DIGEST = "d11d011d5f5978321889d240c5f9a21d4d621687a1b0f944b622c1087fcf8c89"


def test_cold_moduli_payloads_match_digest(capsys):
    digest = hashlib.sha256()
    for q in range(100, 200):
        for p in (1, 7, 2 * q - 1):
            if gcd(p, q) == 1:
                for func in ("cos", "sin", "tan"):
                    argv = ["classify", func, f"{p}/{q}", "--json"]
                    code, out, err = run(capsys, *argv)
                    digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}".encode())
    assert digest.hexdigest() == COLD_CLASSIFY_DIGEST


def test_decision_paths_build_no_dense_power(monkeypatch, capsys):
    """classify, eval and the sweep write every power down by the binomial
    theorem: with field products and powers disabled they still print the
    payloads of the dense code."""
    def forbidden(*args, **kwargs):
        raise AssertionError("dense power-basis product on a decision path")

    for name in ("__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(CycElem, name, forbidden)
    trig_elem.cache_clear()
    classify.cache_clear()

    assert grid_digest(capsys, 12) == GRID_12_DIGEST
    assert sweep_digest(capsys, 12, 8) == SWEEP_12_8_DIGEST
