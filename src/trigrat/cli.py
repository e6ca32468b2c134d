"""Command-line front end.

One subcommand per question the library answers, plus ``verify`` for the
batch checks.  Exit codes: 0 for success (including a clean verify run),
1 when a verify run finds violations, 2 for usage errors or malformed
values.  ``--json`` switches any subcommand to machine-readable output.

Each command has one entry in ``COMMANDS``: its help text, a function that
declares its arguments, and its handler.  ``run_cli`` parses a command
line with the parser of its command alone, built on that command's first
use and kept for later calls, so a process builds only the parsers of the
commands it runs.  The full parser (``build_parser``) is built from the
same table, and only for ``trigrat -h``, a missing or unknown command, or
an argument left over; every output and exit code is the one the full
parser gives.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from .kummer import (
    MAX_WITNESS_MODULUS,
    _check_group_order,
    _check_modulus,
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


def _json_text(value, newline: str = "\n") -> str:
    """The text of ``json.dumps(value, sort_keys=True, indent=2)``, for the
    types a payload holds: dicts with str keys, lists, str, int, bool and
    None.  Anything else raises ``TypeError``.  Strings go through the
    escaper ``json.dumps`` uses, and a list of strings is joined at once.
    ``newline`` is the line break and indent of the value's own depth."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    sep = "," + inner
    if isinstance(value, list):
        if not value:
            return "[]"
        try:
            body = sep.join(map(encode_basestring_ascii, value))
        except TypeError:
            body = sep.join([_json_text(item, inner) for item in value])
        return f"[{inner}{body}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            raise TypeError("a payload's keys are str")
        body = sep.join([f"{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}"
                         for key in sorted(value)])
        return f"{{{inner}{body}{newline}}}"
    raise TypeError(f"a payload holds no {type(value).__name__}")


def _emit(args, payload: dict, human) -> None:
    """Print the payload under --json, else the text: ``human`` is the text,
    or a function that builds it, called only when the text is printed."""
    if args.json:
        print(_json_text(payload))
    else:
        print(human() if callable(human) else human)


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
        value, status, human = None, "undefined", f"{func}(pi*{angle}) is undefined (pole)"
    else:
        value = None if value is None else format_rational(value)
        status = "irrational" if value is None else "rational"
        human = f"{func}(pi*{angle})^{args.n} " + ("is irrational" if value is None else f"= {value}")
    payload = {"func": str(func), "theta": str(angle), "n": args.n, "value": value, "status": status}
    _emit(args, payload, human)
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
    _emit(args, payload, lambda: f"sqrt({format_rational(alpha)}) = {witness}  in Q(zeta_{modulus})")
    return 0


def _cmd_root_member(args) -> int:
    alpha = parse_rational(args.alpha)
    verdict = nth_root_in_cyclotomic(alpha, args.n, args.m)

    def human():
        text = (
            f"{format_rational(alpha)}^(1/{args.n}) in Q(zeta_{args.m}): {verdict.answer}"
            f"  [{verdict.justification}]"
        )
        if verdict.witness is not None:
            text += f"  witness = {verdict.witness}"
        return text

    _emit(args, verdict.to_json(), human)
    return 0


def _cmd_irreducible(args) -> int:
    alpha = parse_rational(args.alpha)
    verdict = binomial_irreducible(alpha, args.n)
    payload = {"alpha": format_rational(alpha), "n": args.n, "irreducible": verdict}
    agrees, factorizations = True, []
    if args.oracle:
        factorizations = subset_factorizations(alpha, args.n)
        reducible = bool(factorizations)
        payload["oracle_reducible"] = reducible
        payload["factors"] = [str(f.factor) for f in factorizations]
        agrees = reducible != verdict

    def human():
        lines = [f"x^{args.n} - {format_rational(alpha)} is "
                 + ("irreducible over Q" if verdict else "reducible over Q")]
        if args.oracle:
            lines.append(f"subset oracle agrees: {agrees}")
            lines += [f"  factor {f.factor}  (cofactor {f.cofactor})" for f in factorizations]
        return "\n".join(lines)

    _emit(args, payload, human)
    return 0 if agrees else 1


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
        )
        report = verify_theorem_sweep(config)

        def human():
            return "\n".join([
                f"sweep q <= {config.q_max}, n <= {config.n_max}: "
                f"{report.queries} queries, {len(report.hits)} rational powers, "
                f"{len(report.violations)} violations",
                *(f"  VIOLATION {v.func}(pi*{v.angle}) n={v.n}: {v.reason}" for v in report.violations),
            ])

        _emit(args, report.to_json(), human)
        return 0 if report.clean else 1

    if args.target == "gauss":
        _check_modulus(args.m_max, MAX_WITNESS_MODULUS)  # refuse before any sum is built
        failures = [m for m in range(1, args.m_max + 1) if not gauss_sum_case_check(m)]
        payload = {"m_max": args.m_max, "failures": failures}
        _emit(args, payload,
              f"gauss sums m <= {args.m_max}: "
              + ("all cases verified" if not failures else f"FAILED at {failures}"))
        return 0 if not failures else 1

    if args.target == "group":
        for n in range(2, args.n_max + 1):  # refuse before any group is built
            _check_group_order(n)
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


def _classify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("func", help="cos, sin or tan")
    # a leading '-' reads as an option, so a negative angle follows '--'
    p.add_argument("theta", help="rational angle p/q (in units of pi); put a negative angle"
                                 " after --, as in: classify cos -- -1/3")


def _eval_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("func")
    p.add_argument("theta", help="rational angle p/q (in units of pi); put a negative angle"
                                 " after -- and the options before it, as in: eval cos --pow 2 -- -1/3")
    p.add_argument("--pow", dest="n", type=int, default=1, metavar="N",
                   help="exponent (default 1)")


def _root_member_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("alpha")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)


def _irreducible_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("alpha")
    p.add_argument("n", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with the exhaustive subset factor scan")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("target", choices=["sweep", "gauss", "group", "remark"])
    p.add_argument("--q-max", type=int, default=24, help="sweep: largest denominator")
    p.add_argument("--n-max", type=int, default=8, help="sweep/group: largest exponent or n")
    p.add_argument("--m-max", type=int, default=60, help="gauss: largest modulus")
    p.add_argument("--funcs", default="cos,sin,tan", help="sweep: comma-separated functions")
    p.add_argument("--parallel", action="store_true", help="sweep: ignored, the sweep runs in one process")


class _Command(NamedTuple):
    help: str
    arguments: Callable[[argparse.ArgumentParser], object]  # declares all but --json
    handler: Callable[[argparse.Namespace], int]


# in the order ``trigrat -h`` lists them
COMMANDS = {
    "classify": _Command("least exponent making func(pi*theta)^n rational", _classify_arguments, _cmd_classify),
    "eval": _Command("exact value of func(pi*theta)^n when rational", _eval_arguments, _cmd_eval),
    "gauss": _Command("quadratic Gauss sum for one modulus, with case check",
                      lambda p: p.add_argument("m", type=int), _cmd_gauss),
    "sqrt-embed": _Command("cyclotomic witness for sqrt(alpha)", lambda p: p.add_argument("alpha"), _cmd_sqrt_embed),
    "root-member": _Command("is alpha^(1/n) an element of Q(zeta_m)?", _root_member_arguments, _cmd_root_member),
    "irreducible": _Command("is x^n - alpha irreducible over Q?", _irreducible_arguments, _cmd_irreducible),
    "group": _Command("axioms and relation for the root-permutation group",
                      lambda p: p.add_argument("n", type=int), _cmd_group),
    "verify": _Command("batch verification runs", _verify_arguments, _cmd_verify),
}


def _declare(parser: argparse.ArgumentParser, command: _Command) -> argparse.ArgumentParser:
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    command.arguments(parser)
    return parser


@lru_cache(maxsize=None)
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command alone, built on its first use and shared by
    later calls; its prog, usage, help and errors are those of the
    command's subparser in :func:`build_parser`."""
    return _declare(argparse.ArgumentParser(prog=f"trigrat {name}"), COMMANDS[name])


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The full parser, every command a subparser, built on first use.
    ``run_cli`` needs it only for ``trigrat -h``, a missing or unknown
    command, and the top-level "unrecognized arguments" error."""
    parser = argparse.ArgumentParser(
        prog="trigrat",
        description="Exact rationality of powers of cos, sin and tan at rational multiples of pi.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _declare(sub.add_parser(name, help=command.help), command)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    """Run one command line; return its exit code.

    A line that starts with a command name is parsed by that command's
    own parser, which gives the same arguments, help and errors as the
    full parser, whose top level takes the name and hands the rest to the
    command's subparser.  Only an argument left over is reported from the
    top level, so the full parser prints that error, and every line that
    does not start with a command."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in COMMANDS:
            name = argv[0]
            args, extras = _command_parser(name).parse_known_args(argv[1:])
            if extras:
                build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
        else:
            args = build_parser().parse_args(argv)
            name = args.command
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[name].handler(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
