"""Command-line front end.

One subcommand per question the library answers, plus ``verify`` for the
batch checks.  Exit codes: 0 for success (including a clean verify run),
1 when a verify run finds violations, 2 for usage errors or malformed
values.  ``--json`` switches any subcommand to machine-readable output.
Each ``verify`` target has its own parser and takes only the options it
reads, so an option another target reads is a usage error.

Each command has one entry in ``COMMANDS``: its help text, the declaration
of its arguments (of each verify target's, for ``verify``), and its
handler.  That one declaration feeds both ``_read``, which reads a
well-formed line straight from it, and the argparse parser
(``build_parser``), which reads every line the reader declines and so
gives help and usage errors.  A process that runs only well-formed lines
builds no parser and never imports argparse.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

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

if TYPE_CHECKING:
    import argparse


def _json_text(value, newline: str = "\n") -> str:
    """The text of ``json.dumps(value, sort_keys=True, indent=2)``, for the
    types a payload holds: dicts with str keys, lists, str, int, bool and
    None.  Each value is dispatched on its exact type, so a subclass of
    one of these (an ``enum.IntEnum`` member, a str subclass), which no
    payload holds, raises ``TypeError`` as anything else does.  Strings go
    through the escaper ``json.dumps`` uses, and a list of strings is joined
    at once: quoted as it is when it is all printable ASCII but quotes and
    backslashes, which the escaper leaves unchanged.  ``newline`` is the
    line break and indent of the value's own depth."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = newline + "  "
    sep = "," + inner
    if kind is list:
        if not value:
            return "[]"
        if list(map(type, value)).count(str) < len(value):
            body = sep.join([_json_text(item, inner) for item in value])
        else:
            text = "".join(value)
            if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
                body = '"' + f'"{sep}"'.join(value) + '"'  # nothing the escaper would change
            else:
                body = sep.join(map(encode_basestring_ascii, value))
        return f"[{inner}{body}{newline}]"
    if kind is dict:
        if not value:
            return "{}"
        if list(map(type, value)).count(str) < len(value):
            raise TypeError("a payload's keys are str")
        body = sep.join([f"{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}"
                         for key in sorted(value)])
        return f"{{{inner}{body}{newline}}}"
    raise TypeError(f"a payload holds no {kind.__name__}")


def _emit(args, payload, human) -> None:
    """Print the payload under --json, else the text ``human``: each is a
    value, or a function that builds it, called only when it is printed."""
    if args.json:
        print(_json_text(payload() if callable(payload) else payload))
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
    _emit(args, result.to_json, human)
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
        base = format_rational(alpha) if alpha.denominator == 1 else f"({format_rational(alpha)})"
        text = (
            f"{base}^(1/{args.n}) in Q(zeta_{args.m}): {verdict.answer}"
            f"  [{verdict.justification}]"
        )
        if verdict.witness is not None:
            text += f"  witness = {verdict.witness}"
        return text

    _emit(args, verdict.to_json, human)
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

        _emit(args, report.to_json, human)
        return 0 if report.clean else 1

    if args.target == "gauss":
        if args.m_max < 1:  # a run that checks nothing, as the sweep's q_max < 1
            raise ValueError(f"m_max must be >= 1, got {args.m_max}")
        _check_modulus(args.m_max, MAX_WITNESS_MODULUS)  # refuse before any sum is built
        failures = [m for m in range(1, args.m_max + 1) if not gauss_sum_case_check(m)]
        payload = {"m_max": args.m_max, "failures": failures}
        _emit(args, payload,
              f"gauss sums m <= {args.m_max}: "
              + ("all cases verified" if not failures else f"FAILED at {failures}"))
        return 0 if not failures else 1

    if args.target == "group":
        if args.n_max < 2:  # a run that checks nothing
            raise ValueError(f"n_max must be >= 2, got {args.n_max}")
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


def _arg(flag: str, **keywords) -> tuple[str, dict]:
    """One argument: the flag and keywords of its ``add_argument`` call."""
    return flag, keywords


_JSON = _arg("--json", action="store_true", help="machine-readable output")  # taken by every command and target


class _Command(NamedTuple):
    help: str
    arguments: tuple[tuple[str, dict], ...]  # all but --json, declared once for argparse and the reader
    handler: Callable[[argparse.Namespace | SimpleNamespace], int]
    targets: dict[str, tuple[str, tuple[tuple[str, dict], ...]]] | None = None  # verify: name -> (help, arguments)


# in the order ``trigrat -h`` lists them
COMMANDS = {
    "classify": _Command("least exponent making func(pi*theta)^n rational", (
        _arg("func", help="cos, sin or tan"),
        # a leading '-' reads as an option, so a negative angle follows '--'
        _arg("theta", help="rational angle p/q (in units of pi); put a negative angle"
                           " after --, as in: classify cos -- -1/3"),
    ), _cmd_classify),
    "eval": _Command("exact value of func(pi*theta)^n when rational", (
        _arg("func"),
        _arg("theta", help="rational angle p/q (in units of pi); put a negative angle"
                           " after -- and the options before it, as in: eval cos --pow 2 -- -1/3"),
        _arg("--pow", dest="n", type=int, default=1, metavar="N", help="exponent (default 1)"),
    ), _cmd_eval),
    "gauss": _Command("quadratic Gauss sum for one modulus, with case check", (_arg("m", type=int),), _cmd_gauss),
    "sqrt-embed": _Command("cyclotomic witness for sqrt(alpha)", (_arg("alpha"),), _cmd_sqrt_embed),
    "root-member": _Command("is alpha^(1/n) an element of Q(zeta_m)?", (
        _arg("alpha"), _arg("n", type=int), _arg("m", type=int),
    ), _cmd_root_member),
    "irreducible": _Command("is x^n - alpha irreducible over Q?", (
        _arg("alpha"),
        _arg("n", type=int),
        _arg("--oracle", action="store_true", help="cross-check with the exhaustive subset factor scan"),
    ), _cmd_irreducible),
    "group": _Command("axioms and relation for the root-permutation group", (_arg("n", type=int),), _cmd_group),
    "verify": _Command("batch verification runs", (), _cmd_verify, {
        "sweep": ("the theorem at every reduced angle and exponent", (
            _arg("--q-max", type=int, default=24, help="largest denominator"),
            _arg("--n-max", type=int, default=8, help="largest exponent"),
            _arg("--funcs", default="cos,sin,tan", help="comma-separated functions"),
        )),
        "gauss": ("the Gauss sum case check at every modulus", (
            _arg("--m-max", type=int, default=60, help="largest modulus"),
        )),
        "group": ("the root-permutation group at every n", (_arg("--n-max", type=int, default=8, help="largest n"),)),
        "remark": ("the octic factorization over Q(zeta_8)", ()),
    }),
}


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``argparse`` parser, every command a subparser and each verify
    target a subparser of ``verify``, built on first use."""
    import argparse

    indent = " " * len("usage: trigrat ")
    parser = argparse.ArgumentParser(
        prog="trigrat",
        # one layout on every Python: 3.13's argparse moved the "..." up
        usage=f"%(prog)s [-h]\n{indent}{{{','.join(COMMANDS)}}}\n{indent}...",
        description="Exact rationality of powers of cos, sin and tan at rational multiples of pi.",
    )
    commands = parser.add_subparsers(dest="command", required=True, prog="trigrat")
    for name, command in COMMANDS.items():
        sub = commands.add_parser(name, help=command.help)
        for flag, keywords in (_JSON, *command.arguments):
            sub.add_argument(flag, **keywords)
        if command.targets:
            targets = sub.add_subparsers(dest="target", required=True)
            for target_name, (help, arguments) in command.targets.items():
                target = targets.add_parser(target_name, help=help)
                for flag, keywords in arguments:
                    target.add_argument(flag, **keywords)
                # unless given here, keep a --json given before the target
                target.add_argument(_JSON[0], **_JSON[1], default=argparse.SUPPRESS)
    return parser


def _read(command: _Command, tokens: list[str]) -> SimpleNamespace | None:
    """The arguments of a well-formed line of ``command`` (the tokens after
    its name), read straight from its declaration; they equal what the
    command's subparser in ``build_parser`` gives.  None declines the line,
    for the parser to read: a token that starts with '-' and is not one of the
    command's option strings (help, an abbreviation, --opt=value, '--', a
    negative number), an option with no value or a value that starts with
    '-', a missing or extra positional, or a value its type refuses.  A
    verify line must name its target first.  Only what the commands declare
    is read: positionals of one value, and options stored or set True."""
    values = {}
    arguments = command.arguments
    if command.targets:
        if not tokens or tokens[0] not in command.targets:
            return None
        values["target"] = tokens[0]
        arguments = command.targets[tokens[0]][1]
        tokens = tokens[1:]
    options, positionals = {}, []
    for flag, keywords in (_JSON, *arguments):
        if flag.startswith("-"):
            dest = keywords.get("dest", flag.lstrip("-").replace("-", "_"))
            options[flag] = dest, keywords
            values[dest] = keywords.get("default", False if keywords.get("action") == "store_true" else None)
        else:
            positionals.append((flag, keywords))
    positionals.reverse()
    tokens = iter(tokens)
    for token in tokens:
        if token.startswith("-"):
            if token not in options:
                return None
            dest, keywords = options[token]
            if keywords.get("action") == "store_true":
                values[dest] = True
                continue
            token = next(tokens, "-")  # no value reads as one that starts with '-'
            if token.startswith("-"):
                return None
        elif positionals:
            dest, keywords = positionals.pop()
        else:
            return None
        convert = keywords.get("type")
        if convert is not None:
            try:
                token = convert(token)
            except (TypeError, ValueError):
                return None
        values[dest] = token
    return None if positionals else SimpleNamespace(**values)


def run_cli(argv: list[str] | None = None) -> int:
    """Run one command line; return its exit code.

    A line that starts with a command name is read from that command's
    declaration (``_read``) when it is well formed.  Every other line is
    parsed by ``build_parser``, which prints help and usage errors."""
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv and argv[0] in COMMANDS else None
    args = None if name is None else _read(COMMANDS[name], argv[1:])
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        name = args.command
    try:
        return COMMANDS[name].handler(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
