"""Tests of the benchmark's own oracles, inputs and tracer.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import trigrat.cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from trigrat.kummer import nth_root_in_cyclotomic  # noqa: E402


def _cli(argv: list[str]) -> tuple[int, str]:
    """One CLI call through the module attribute, which the tracer rebinds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = trigrat.cli.run_cli(argv)
    return code, out.getvalue()


def test_closed_form_hits_match_the_sweep_at_q_24():
    hits = oracles.expected_hits(24, 8)
    assert len(hits) == 272
    code, stdout = _cli(["verify", "sweep", "--q-max", "24", "--n-max", "8", "--json"])
    assert code == 0
    payload = json.loads(stdout)
    assert {(h["func"], h["theta"], h["n"], h["value"]) for h in payload["hits"]} == hits
    assert payload["totals"]["queries"] == oracles.expected_queries(24, 8)
    assert oracles.check_sweep(payload, 24, 8) is None


def test_closed_form_hit_count_is_stable_past_q_6():
    assert {len(oracles.expected_hits(q, 8)) for q in (6, 12, 24, 40)} == {272}


def test_conductor_rule_matches_nth_root_in_cyclotomic():
    alphas = sorted({Fraction(a, b) for a in range(1, 7) for b in range(1, 7)}
                    | {Fraction(4), Fraction(9, 4), Fraction(8), Fraction(1, 64)})
    for alpha in alphas:
        for n in (1, 2, 3, 4, 6):
            for m in range(1, 25):
                verdict = nth_root_in_cyclotomic(alpha, n, m)
                assert verdict.member == oracles.root_member_expected(alpha, n, m), (alpha, n, m)


def test_radical_criterion_and_roots():
    assert oracles.int_root(1009 ** 4, 4) == 1009
    assert oracles.int_root(1009 ** 4 + 1, 4) is None
    assert oracles.radical_irreducible(Fraction(2), 4)
    assert not oracles.radical_irreducible(Fraction(1, 1009 ** 4), 2)
    assert not oracles.radical_irreducible(Fraction(8), 6)
    assert oracles.squarefree_part(Fraction(12, 5)) == 15
    assert [oracles.conductor(d) for d in (1, 2, 3, 5, 15)] == [1, 8, 12, 5, 60]


@pytest.mark.parametrize("argv", [
    ["classify", "tan", "3/7", "--json"],
    ["root-member", "5", "2", "20", "--json"],
    ["root-member", "2", "2", "20", "--json"],
    ["irreducible", "4/9", "2", "--oracle", "--json"],
    ["sqrt-embed", "12/5", "--json"],
])
def test_checks_reject_a_corrupted_answer(argv):
    kind = argv[0]
    call = {"kind": kind}
    if kind == "classify":
        call.update(func="tan", p=3, q=7)
    else:
        call["alpha"] = argv[1]
        if kind != "sqrt-embed":
            call["n"] = int(argv[2])
        if kind == "root-member":
            call["m"] = int(argv[3])
    code, stdout = _cli(argv)
    assert oracles.check_call(call, code, stdout) is None
    payload = json.loads(stdout)
    flip = {"classify": ("case", "square_rational"),
            "root-member": ("answer", "NO" if payload.get("answer") == "YES" else "YES"),
            "irreducible": ("irreducible", not payload.get("irreducible")),
            "sqrt-embed": ("modulus", 2 * payload.get("modulus", 1))}[kind]
    assert oracles.check_call(call, 1, stdout) == ("exit code 1", False)
    payload[flip[0]] = flip[1]
    for code in (0, 1):
        reason, wrong = oracles.check_call(call, code, json.dumps(payload))
        assert wrong, reason


def _irreducible_record(code: int, stdout: str) -> dict:
    call = {"kind": "irreducible", "argv": [], "alpha": "1/1036488922561", "n": 2}
    return {"call": call, "code": code, "stdout": stdout, "error": None,
            "seconds": 0.01, "ran_s": 0.01, "calibrated_s": 0.01}


def test_a_wrong_verdict_with_exit_1_makes_correct_false():
    # 1036488922561 = 1009^4: every proper factor's denominator is past the
    # subset oracle's reconstruction cap, so the oracle misses the factors,
    # disagrees with the right verdict, and the CLI exits 1
    code, stdout = _cli(["irreducible", "1/1036488922561", "2", "--oracle", "--json"])
    assert code == 1
    payload = json.loads(stdout)
    assert payload["irreducible"] is False and payload["oracle_reducible"] is False

    false_alarm = run.Tally()
    false_alarm.add([], {"records": [_irreducible_record(code, stdout)]})
    assert (false_alarm.failed, false_alarm.wrong) == (1, 0)

    # the regression the check exists for: a wrong verdict that the subset
    # oracle contradicts, so the CLI exits 1
    payload["irreducible"], payload["oracle_reducible"] = True, True
    flipped = run.Tally()
    flipped.add([], {"records": [_irreducible_record(1, json.dumps(payload))]})
    assert (flipped.failed, flipped.wrong) == (1, 1)


def test_inputs_are_seeded():
    for workload in workloads.PASSES:
        assert workloads.make_pass(workload, 7, 0) == workloads.make_pass(workload, 7, 0)
    assert workloads.make_pass("kummer", 7, 0) != workloads.make_pass("kummer", 8, 0)
    assert workloads.make_pass("classify_cold", 7, 0) != workloads.make_pass("classify_cold", 7, 1)


def test_classify_cold_never_repeats_a_modulus_in_a_batch():
    for batch in workloads.make_pass("classify_cold", 3, 0):
        moduli = [math.lcm(2 * call["q"], 4) for call in batch]
        assert len(moduli) == len(set(moduli)) >= 25
        assert {call["func"] for call in batch} == set(oracles.FUNCS)


def test_kummer_keeps_the_oracle_false_alarm_in_every_block():
    for block in workloads.make_pass("kummer", 5, 0):
        kinds = [call["kind"] for call in block]
        assert (kinds.count("root-member"), kinds.count("irreducible"), kinds.count("sqrt-embed")) == (36, 15, 9)
        assert any(call["kind"] == "irreducible" and call["n"] == 2
                   and oracles.rational_root(Fraction(call["alpha"]), 4) is not None
                   and Fraction(call["alpha"]).denominator > 10 ** 12 for call in block)


def test_traced_and_untraced_outputs_are_identical():
    calls = [
        ["verify", "sweep", "--q-max", "8", "--n-max", "4", "--json"],
        ["classify", "sin", "5/11", "--json"],
        ["classify", "tan", "1/2", "--json"],
        ["root-member", "3", "2", "13", "--json"],
        ["root-member", "5", "4", "20", "--json"],
        ["irreducible", "16", "4", "--oracle", "--json"],
        ["sqrt-embed", "7/3", "--json"],
        ["classify", "cot", "1/3"],
    ]
    plain = [_cli(argv) for argv in calls]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [_cli(argv) for argv in calls]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert [_cli(argv) for argv in calls] == plain

    summary = tracer.summary()
    assert summary["calls"]["cli.run_cli"] == len(calls)
    assert summary["calls"]["kummer.nth_root_in_cyclotomic"] == 2
    assert summary["layer_errors"]["trig"] >= 1  # the tangent pole is raised inside trig
    roots = sum(end - start for _, parent, name, start, end in tracer.spans if parent < 0)
    assert math.isclose(sum(summary["layer_self_s"].values()), roots, rel_tol=1e-9)
