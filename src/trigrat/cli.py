"""Command-line front end.

One subcommand per question the library answers, plus ``verify`` for the
batch checks.  Exit codes: 0 for success (including a clean verify run),
1 when a verify run finds violations, 2 for usage errors or malformed
values.  ``--json`` switches any subcommand to machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from .kummer import (
    binomial_irreducible,
    gauss_sum,
    gauss_sum_case_check,
    meta_group_checks,
    nth_root_in_cyclotomic,
    sqrt_in_cyclotomic,
    subset_factorizations,
    verify_remark_factorization,
)
from .numtheory import euler_phi, format_rational, parse_rational
from .sweep import SweepConfig, verify_theorem_sweep
from .trig import Angle, Case, TrigFunc, UndefinedTrigValue, classify, power_rational


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(human)


def _cmd_classify(args) -> int:
    func = TrigFunc.parse(args.func)
    angle = Angle.parse(args.theta)
    result = classify(func, angle)
    if result.case is Case.UNDEFINED:
        human = f"{func}(pi*{angle}) is undefined (pole)"
    elif result.case is Case.NEVER:
        human = f"{func}(pi*{angle})^n is irrational for every n >= 1"
    else:
        human = (
            f"{func}(pi*{angle})^{result.minimal_n} = {format_rational(result.value)}"
            f" is the least rational power ({result.case})"
        )
    _emit(args, result.to_json(), human)
    return 0


def _cmd_eval(args) -> int:
    func = TrigFunc.parse(args.func)
    angle = Angle.parse(args.theta)
    try:
        value = power_rational(func, angle, args.n)
    except UndefinedTrigValue:
        _emit(args, {"func": str(func), "theta": str(angle), "n": args.n, "value": None,
                     "status": "undefined"},
              f"{func}(pi*{angle}) is undefined (pole)")
        return 0
    if value is None:
        _emit(args, {"func": str(func), "theta": str(angle), "n": args.n, "value": None,
                     "status": "irrational"},
              f"{func}(pi*{angle})^{args.n} is irrational")
    else:
        _emit(args, {"func": str(func), "theta": str(angle), "n": args.n,
                     "value": format_rational(value), "status": "rational"},
              f"{func}(pi*{angle})^{args.n} = {format_rational(value)}")
    return 0


def _cmd_gauss(args) -> int:
    g = gauss_sum(args.m)
    ok = gauss_sum_case_check(args.m)
    payload = {"m": args.m, "sum": g.to_json(), "case_check": ok}
    _emit(args, payload, f"g({args.m}) = {g}  [case check: {'ok' if ok else 'FAILED'}]")
    return 0 if ok else 1


def _cmd_sqrt_embed(args) -> int:
    alpha = parse_rational(args.alpha)
    modulus, witness = sqrt_in_cyclotomic(alpha)
    payload = {"alpha": format_rational(alpha), "modulus": modulus, "witness": witness.to_json()}
    _emit(args, payload, f"sqrt({format_rational(alpha)}) = {witness}  in Q(zeta_{modulus})")
    return 0


def _cmd_root_member(args) -> int:
    alpha = parse_rational(args.alpha)
    verdict = nth_root_in_cyclotomic(alpha, args.n, args.m)
    human = (
        f"{format_rational(alpha)}^(1/{args.n}) in Q(zeta_{args.m}): {verdict.answer}"
        f"  [{verdict.justification}]"
    )
    if verdict.witness is not None:
        human += f"  witness = {verdict.witness}"
    _emit(args, verdict.to_json(), human)
    return 0


def _cmd_irreducible(args) -> int:
    alpha = parse_rational(args.alpha)
    verdict = binomial_irreducible(alpha, args.n)
    payload = {"alpha": format_rational(alpha), "n": args.n, "irreducible": verdict}
    lines = [f"x^{args.n} - {format_rational(alpha)} is "
             + ("irreducible over Q" if verdict else "reducible over Q")]
    if args.oracle:
        factorizations = subset_factorizations(alpha, args.n)
        reducible = bool(factorizations)
        payload["oracle_reducible"] = reducible
        payload["factors"] = [str(f.factor) for f in factorizations]
        agrees = reducible != verdict
        lines.append(f"subset oracle agrees: {agrees}")
        for f in factorizations:
            lines.append(f"  factor {f.factor}  (cofactor {f.cofactor})")
        if not agrees:
            _emit(args, payload, "\n".join(lines))
            return 1
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_group(args) -> int:
    report = meta_group_checks(args.n)
    payload = {
        "n": report.n,
        "order": report.order,
        "abelian": report.abelian,
        "relation_holds": report.relation_holds,
    }
    _emit(args, payload,
          f"group for n={report.n}: order {report.order}, "
          f"{'abelian' if report.abelian else 'non-abelian'}, "
          f"relation {'holds' if report.relation_holds else 'FAILS'}")
    return 0 if report.relation_holds else 1


def _parse_funcs(text: str) -> tuple[TrigFunc, ...]:
    funcs = tuple(TrigFunc.parse(part) for part in text.split(",") if part.strip())
    if not funcs:
        raise ValueError("funcs must name at least one of cos, sin, tan")
    return funcs


def _cmd_verify(args) -> int:
    if args.target == "sweep":
        config = SweepConfig(
            q_max=args.q_max,
            n_max=args.n_max,
            funcs=_parse_funcs(args.funcs),
            parallel=(os.cpu_count() or 1) if args.parallel else 0,
        )
        report = verify_theorem_sweep(config)
        if args.json:
            print(json.dumps(report.to_json(), sort_keys=True, indent=2))
        else:
            print(f"sweep q <= {config.q_max}, n <= {config.n_max}: "
                  f"{report.queries} queries, {len(report.hits)} rational powers, "
                  f"{len(report.violations)} violations")
            for v in report.violations:
                print(f"  VIOLATION {v.func}(pi*{v.angle}) n={v.n}: {v.reason}")
        return 0 if report.clean else 1

    if args.target == "gauss":
        failures = [m for m in range(1, args.m_max + 1) if not gauss_sum_case_check(m)]
        payload = {"m_max": args.m_max, "failures": failures}
        _emit(args, payload,
              f"gauss sums m <= {args.m_max}: "
              + ("all cases verified" if not failures else f"FAILED at {failures}"))
        return 0 if not failures else 1

    if args.target == "group":
        failures = []
        for n in range(2, args.n_max + 1):
            report = meta_group_checks(n)
            expected_abelian = n == 2
            if (report.order != n * euler_phi(n)
                    or report.abelian != expected_abelian
                    or not report.relation_holds):
                failures.append(n)
        payload = {"n_max": args.n_max, "failures": failures}
        _emit(args, payload,
              f"groups n <= {args.n_max}: "
              + ("order, commutativity and relation verified" if not failures
                 else f"FAILED at {failures}"))
        return 0 if not failures else 1

    # remark
    ok = verify_remark_factorization()
    _emit(args, {"verified": ok},
          "octic factorization over Q(zeta_8): " + ("verified" if ok else "FAILED"))
    return 0 if ok else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls
    (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="trigrat",
        description="Exact rationality of powers of cos, sin and tan at rational multiples of pi.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="least exponent making func(pi*theta)^n rational")
    p.add_argument("func", help="cos, sin or tan")
    p.add_argument("theta", help="rational angle p/q (in units of pi)")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("eval", parents=[common], help="exact value of func(pi*theta)^n when rational")
    p.add_argument("func")
    p.add_argument("theta")
    p.add_argument("--pow", dest="n", type=int, default=1, metavar="N",
                   help="exponent (default 1)")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("gauss", parents=[common], help="quadratic Gauss sum for one modulus, with case check")
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_gauss)

    p = sub.add_parser("sqrt-embed", parents=[common], help="cyclotomic witness for sqrt(alpha)")
    p.add_argument("alpha")
    p.set_defaults(handler=_cmd_sqrt_embed)

    p = sub.add_parser("root-member", parents=[common], help="is alpha^(1/n) an element of Q(zeta_m)?")
    p.add_argument("alpha")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_root_member)

    p = sub.add_parser("irreducible", parents=[common], help="is x^n - alpha irreducible over Q?")
    p.add_argument("alpha")
    p.add_argument("n", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with the exhaustive subset factor scan")
    p.set_defaults(handler=_cmd_irreducible)

    p = sub.add_parser("group", parents=[common], help="axioms and relation for the root-permutation group")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_group)

    p = sub.add_parser("verify", parents=[common], help="batch verification runs")
    p.add_argument("target", choices=["sweep", "gauss", "group", "remark"])
    p.add_argument("--q-max", type=int, default=24, help="sweep: largest denominator")
    p.add_argument("--n-max", type=int, default=8, help="sweep/group: largest exponent or n")
    p.add_argument("--m-max", type=int, default=60, help="gauss: largest modulus")
    p.add_argument("--funcs", default="cos,sin,tan", help="sweep: comma-separated functions")
    p.add_argument("--parallel", action="store_true", help="sweep: use a process pool")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
