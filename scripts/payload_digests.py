#!/usr/bin/env python3
"""Print one sha256 per standard grid of CLI payloads.

Each grid runs its commands through ``trigrat.cli.run_cli`` in this one
process.  Two trees whose printed digests agree print the same verdicts,
witnesses, JSON payloads and exit codes on every command of every grid.
Run it from a checkout with

    PYTHONPATH=src python3 scripts/payload_digests.py [SUBSTRING ...]

With no arguments it prints every grid; with arguments, only the grids
whose names contain one of them (``oracle`` picks the three subset-oracle grids).

A grid's digest is taken over each command line, its exit code, then its
stdout and stderr, in order; each sweep grid is one command, and its
digest is that of its stdout alone.

``tests/test_payload_digests.py`` pins the digest of every grid named in
GRIDS, and fails on a grid with no pin or a pin with no grid.  A change
that alters a grid's bytes on purpose updates its pin there and gives
the reason in CHANGES.md.
"""

import hashlib
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from unittest.mock import patch

from trigrat.cli import run_cli
from trigrat.sweep import reduced_angles

FUNCS = ("cos", "sin", "tan")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def commands_digest(commands):
    digest = hashlib.sha256()
    for argv in commands:
        code, out, err = run(argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}{err}".encode())
    return digest.hexdigest()


def coprime_fractions(bound):
    return [f"{a}/{b}" for b in range(1, bound + 1) for a in range(1, bound + 1) if gcd(a, b) == 1]


def classify_eval_grid(q_max):
    """classify and eval --pow 1..4 for cos, sin, tan at every reduced
    angle with q <= q_max."""
    for angle in reduced_angles(q_max):
        for func in FUNCS:
            yield ["classify", func, str(angle), "--json"]
            for n in range(1, 5):
                yield ["eval", func, str(angle), "--pow", str(n), "--json"]


def high_power_grid():
    """eval --pow N for cos, sin, tan at 1/q, N in {31, 64, 257, 1000} up to
    the exponent limit, q in {3, 4, 5, 6, 7, 12, 60, 97}."""
    for q in (3, 4, 5, 6, 7, 12, 60, 97):
        for func in FUNCS:
            for n in (31, 64, 257, 1000):
                yield ["eval", func, f"1/{q}", "--pow", str(n), "--json"]


def three_odd_primes_grid():
    """eval --pow 1, 2, 3, 12 for cos, sin, tan at p/q with p in {1, 2q - 1},
    q in {105, 385, 1155}: moduli M = 420, 1540, 4620 with three odd
    primes."""
    for q in (105, 385, 1155):
        for p in (1, 2 * q - 1):
            for func in FUNCS:
                for n in (1, 2, 3, 12):
                    yield ["eval", func, f"{p}/{q}", "--pow", str(n), "--json"]


def odd_primes_witness_grid():
    """Witnesses at moduli with three and four odd primes: classify --json
    for cos, sin, tan at p/q with p in {1, 2q - 1}, q in {105, 385, 1155,
    4199}; root-member 3 2 m at m in {420, 1540, 4620, 9240} and
    root-member 5 2 m at m in {2310, 4620}; gauss at 1155 and 4620;
    sqrt-embed at 1155 and 2310."""
    for q in (105, 385, 1155, 4199):
        for p in (1, 2 * q - 1):
            for func in FUNCS:
                yield ["classify", func, f"{p}/{q}", "--json"]
    for alpha, moduli in (("3", (420, 1540, 4620, 9240)), ("5", (2310, 4620))):
        for m in moduli:
            yield ["root-member", alpha, "2", str(m), "--json"]
    for command, moduli in (("gauss", (1155, 4620)), ("sqrt-embed", (1155, 2310))):
        for m in moduli:
            yield [command, str(m), "--json"]


def cold_classify_grid(*options):
    """classify, with ``options``, for cos, sin, tan at p/q with p in
    {1, 7, 2q - 1} coprime to q, for 100 <= q < 200: one modulus
    lcm(2q, 4) per q."""
    for q in range(100, 200):
        for p in (1, 7, 2 * q - 1):
            if gcd(p, q) == 1:
                for func in FUNCS:
                    yield ["classify", func, f"{p}/{q}", *options]


def text_classify_grid():
    """classify as text, with no --json: the cold-classify angles, cos and
    sin at 1/15015 and tan at 1/1000003, whose witnesses take seconds to
    build, then the refusals of M above the modulus limit at 1/2097151 and
    at 100140047/100160063, whose spread (10007 * 10009) is above its own
    limit too, so the modulus must be refused first."""
    yield from cold_classify_grid()
    for func, theta in (("cos", "1/15015"), ("sin", "1/15015"), ("tan", "1/1000003"),
                        ("cos", "1/2097151"), ("cos", "100140047/100160063")):
        yield ["classify", func, theta]


def oracle_grid(n_max=12):
    """irreducible --oracle at n = 2..n_max for coprime a/b with a, b <= 12,
    and at the (n, k) of the kummer benchmark's perfect powers (a/b)^k
    with n <= n_max, a <= 9 prime to b, b in 1001..1010; the tests pin the
    part at n_max = 8 too."""
    for alpha in coprime_fractions(12):
        for n in range(2, n_max + 1):
            yield ["irreducible", alpha, str(n), "--oracle", "--json"]
    for n, k in ((2, 4), (3, 6), (4, 2), (6, 3), (2, 2)):
        for b in range(1001, 1011):
            for a in range(1, 10):
                if n <= n_max and gcd(a, b) == 1:
                    yield ["irreducible", str(Fraction(a, b) ** k), str(n), "--oracle", "--json"]


def large_alpha_oracle_grid():
    """irreducible 10^e n --oracle at e = 1, 8, ..., 295 and n = 2..12, where
    the roots are too large for floats to carry most factors' coefficients;
    the subset oracle rebuilds them from the unit products and finishes
    in integers."""
    for e in range(1, 296, 7):
        for n in range(2, 13):
            yield ["irreducible", str(10 ** e), str(n), "--oracle", "--json"]


def oracle_past_floats_grid():
    """irreducible --oracle at 10^400 and 1/10^400, outside the float range,
    which the subset oracle never turns into a float, at n = 2 and 12, and
    at the square of (3^1047 + 2)/(7^591 + 4), 1000 digits over 1000, at
    n = 2 and 12; each as text and under --json."""
    square = str(Fraction(3 ** 1047 + 2, 7 ** 591 + 4) ** 2)
    for alpha in ("1" + "0" * 400, "1/1" + "0" * 400, square):
        for n in ("2", "12"):
            yield ["irreducible", alpha, n, "--oracle"]
            yield ["irreducible", alpha, n, "--oracle", "--json"]


COMMANDS = ("classify", "eval", "gauss", "sqrt-embed", "root-member", "irreducible", "group", "verify")

# help, and command lines that argparse refuses: no command or an unknown
# one, options before the command, missing, extra and malformed arguments,
# and a verify option that its target does not read
USAGE_ARGV = [
    [], ["-h"], ["--help"], ["--json"], ["bogus"], ["clas", "cos", "1/3"],
    ["--json", "classify", "cos", "1/3"], ["--", "classify", "cos", "1/3"],
    *([name, "-h"] for name in COMMANDS), ["verify", "sweep", "--help"],
    *(["verify", target, "-h"] for target in ("gauss", "group", "remark")),
    ["classify"], ["classify", "cos"], ["classify", "cos", "-1/3"], ["classify", "cos", "1/3", "extra"],
    ["classify", "cos", "1/3", "--bogus"], ["classify", "--bogus", "cos", "1/3"],
    ["classify", "cos", "1/3", "-x", "y", "--json"],
    ["eval", "cos", "1/3", "--pow", "x"], ["eval", "cos", "1/3", "--pow"], ["eval", "cos", "-1/3", "--pow", "2"],
    ["gauss"], ["gauss", "x"], ["gauss", "12", "13"], ["sqrt-embed"], ["sqrt-embed", "2", "3"],
    ["root-member", "2", "2"], ["root-member", "2", "x", "12"], ["root-member", "2", "2", "12", "1"],
    ["irreducible", "2"], ["irreducible", "2", "3", "--oracle", "--bogus"], ["irreducible", "2", "3", "--oracle=1"],
    ["group"], ["group", "3", "--json", "4"],
    ["verify"], ["verify", "bogus"], ["verify", "sweep", "--q-max"], ["verify", "sweep", "--q-max", "x"],
    ["verify", "sweep", "extra"], ["verify", "remark", "--funcs"], ["verify", "--q-max", "4", "sweep", "--bogus"],
    ["verify", "gauss", "--m-max", "3", "--funcs", "bogus"], ["verify", "remark", "--q-max", "0"],
    ["verify", "group", "--n-max", "3", "--q-max", "5"], ["verify", "sweep", "--m-max", "3"],
    ["verify", "sweep", "--parallel"],
]


def group_verify_grid():
    """group N for N = 2..12, verify gauss --m-max 40, verify group
    --n-max 8 and verify remark, each as text and under --json: the
    payloads of booleans, empty lists and flat dicts."""
    lines = [["group", str(n)] for n in range(2, 13)]
    lines += [["verify", "gauss", "--m-max", "40"], ["verify", "group", "--n-max", "8"], ["verify", "remark"]]
    for argv in lines:
        yield argv
        yield argv + ["--json"]


def sweep_subsets_grid():
    """verify sweep --q-max 24 --n-max 8 with --funcs sin, tan,cos and
    cos,tan,sin, then the verify runs that are refused because they would
    check nothing or count a check twice: --funcs cos,cos, gauss --m-max
    0 and -3, group --n-max 1 and -2; each as text and under --json."""
    lines = [["verify", "sweep", "--q-max", "24", "--n-max", "8", "--funcs", funcs]
             for funcs in ("sin", "tan,cos", "cos,tan,sin")]
    lines += [["verify", "sweep", "--q-max", "3", "--n-max", "2", "--funcs", "cos,cos"],
              ["verify", "gauss", "--m-max", "0"], ["verify", "gauss", "--m-max", "-3"],
              ["verify", "group", "--n-max", "1"], ["verify", "group", "--n-max", "-2"]]
    for argv in lines:
        yield argv
        yield argv + ["--json"]


def sweep_boundaries_grid():
    """verify sweep --json with --funcs cos, sin, tan and sin,cos at q_max
    in {1, 2, 3, 5, 6, 7, 13, 26} and n_max in {1, 2, 3}: bounds on either
    side of q = 2h for odd h, where h is read off the survey at 2h rather
    than surveyed, and one-function sweeps whose partner the survey at 2h
    reads without booking it."""
    for funcs in ("cos", "sin", "tan", "sin,cos"):
        for q_max in (1, 2, 3, 5, 6, 7, 13, 26):
            for n_max in (1, 2, 3):
                yield ["verify", "sweep", "--q-max", str(q_max), "--n-max", str(n_max), "--funcs", funcs, "--json"]


# command lines that the CLI reads from each command's declaration, and
# the ones it must hand to argparse: abbreviations, --opt=value, '--'
# before a negative angle, a negative number, a missing or extra
# positional, a bad int, an empty value, another command's or target's
# option, repeated options, and --json before the verify target
ARGV_SHAPES = [
    ["eval", "--pow", "2", "cos", "1/3"], ["eval", "cos", "--pow", "2", "1/3"], ["eval", "cos", "1/3", "--pow", "2"],
    ["eval", "cos", "1/3", "--pow", "2", "--pow", "3"], ["eval", "cos", "1/3", "--po", "2"],
    ["eval", "cos", "1/3", "--pow=2"], ["eval", "cos", "1/3", "--pow", "-2"], ["eval", "cos", "1/3", "--pow", ""],
    ["eval", "sin", "--pow", "3", "--", "-1/6"], ["eval", "cos", "1/3", "--pow", "x"],
    ["classify", "cos", "-2"], ["classify", "cos", "--", "-1/3"], ["classify", "--", "cos", "1/3"],
    ["classify", "cos", "1/3", "--js"], ["classify", "cos", "1/3", "--pow", "2"], ["classify", "", "1/3"],
    ["classify", "cos", "1/3", "-"],
    ["root-member", "--json", "4/9", "2", "12"], ["root-member", "4/9", "--json", "2", "12"],
    ["root-member", "4/9", "2"], ["root-member", "4/9", "2", "12", "5"], ["root-member", "4/9", "2", "1x"],
    ["irreducible", "4", "2", "--oracle", "--oracle"], ["irreducible", "--oracle", "4", "2"],
    ["irreducible", "4", "2", "--or"], ["irreducible", "4", "2", "--oracle=1"],
    ["irreducible", "2", "3", "--q-max", "3"],
    ["sqrt-embed", ""], ["sqrt-embed", "-4"], ["gauss", "1x"], ["gauss", "-5"], ["group", ""], ["group", "3", "--json"],
    ["verify", "sweep", "--q-max", "3", "--q-max", "4", "--n-max", "2"], ["verify", "sweep", "--q", "3", "--n", "2"],
    ["verify", "sweep", "--q-max=3", "--n-max=2"], ["verify", "sweep", "--funcs", "", "--q-max", "3"],
    ["verify", "sweep", "--funcs", "-cos"], ["verify", "gauss", "--m-max", "-3"], ["verify", "gauss", "--q-max", "3"],
    ["verify", "sweep", "--m-max", "3"], ["verify", "group", "--n-max"], ["verify", "remark", "--json", "--json"],
    ["verify", "--json", "sweep", "--q-max", "3", "--n-max", "2"], ["verify", "--json", "gauss", "--m-max", "5"],
    ["verify", "--js", "remark"], ["verify", "--", "remark"], ["verify", "remark", "extra"],
]


def argv_shapes():
    """ARGV_SHAPES, each as text and under --json."""
    for argv in ARGV_SHAPES:
        yield argv
        yield argv + ["--json"]


def usage_digest(lines=USAGE_ARGV):
    """The digest of the command lines ``lines``, by default USAGE_ARGV,
    with argparse's wrapping fixed at 80 columns rather than the
    terminal's width."""
    with patch.dict(os.environ, {"COLUMNS": "80"}):
        return commands_digest(lines)


def sweep_digest(q_max, n_max, funcs="cos,sin,tan"):
    code, out, err = run(["verify", "sweep", "--q-max", str(q_max), "--n-max", str(n_max),
                          "--funcs", funcs, "--json"])
    if code != 0:
        raise SystemExit(f"verify sweep exited {code}: {err}")
    return hashlib.sha256(out.encode()).hexdigest()


GRIDS = {
    "classify+eval q<=60": lambda: commands_digest(classify_eval_grid(60)),
    "verify sweep q<=32 n<=8": lambda: sweep_digest(32, 8),
    "verify sweep q<=96 n<=8": lambda: sweep_digest(96, 8),
    "verify sweep q<=48 n<=12 --funcs tan,sin,cos": lambda: sweep_digest(48, 12, "tan,sin,cos"),
    "classify 100<=q<200": lambda: commands_digest(cold_classify_grid("--json")),
    "root-member a/b<=12 n in 1,2,4,6 m<=60": lambda: commands_digest(
        ["root-member", alpha, str(n), str(m), "--json"]
        for alpha in coprime_fractions(12)
        for n in (1, 2, 4, 6)
        for m in range(1, 61)
    ),
    "sqrt-embed a/b<=30": lambda: commands_digest(["sqrt-embed", alpha, "--json"] for alpha in coprime_fractions(30)),
    "gauss m<=120": lambda: commands_digest(["gauss", str(m), "--json"] for m in range(1, 121)),
    "eval --pow 31,64,257,1000 at 1/q, eight q <= 97": lambda: commands_digest(high_power_grid()),
    "eval --pow 1,2,3,12 at p/q, q in 105,385,1155": lambda: commands_digest(three_odd_primes_grid()),
    "irreducible --oracle a/b<=12 n<=12, perfect powers": lambda: commands_digest(oracle_grid()),
    "irreducible --oracle 10^e, e = 1, 8, ..., 295, n<=12": lambda: commands_digest(large_alpha_oracle_grid()),
    "verify sweep q<=1000 n<=12": lambda: sweep_digest(1000, 12),
    "verify sweep q<=12 n<=1000": lambda: sweep_digest(12, 1000),
    "usage errors and help": usage_digest,
    "group 2..12, verify gauss|group|remark, text and --json": lambda: commands_digest(group_verify_grid()),
    "verify sweep q<=24 n<=8 --funcs subsets, verify refusals, text and --json":
        lambda: commands_digest(sweep_subsets_grid()),
    "irreducible --oracle outside the float range and at 1000 digits, text and --json":
        lambda: commands_digest(oracle_past_floats_grid()),
    "classify as text: 100<=q<200, slow witnesses, modulus refusals": lambda: commands_digest(text_classify_grid()),
    "argv shapes, text and --json": lambda: usage_digest(argv_shapes()),
    "witnesses at three and four odd primes: classify, root-member, gauss, sqrt-embed":
        lambda: commands_digest(odd_primes_witness_grid()),
    "verify sweep --json, --funcs cos|sin|tan|sin,cos, q<=1,2,3,5,6,7,13,26, n<=1,2,3":
        lambda: commands_digest(sweep_boundaries_grid()),
}


def main(patterns: list[str]) -> int:
    for name, digest in GRIDS.items():
        if not patterns or any(pattern in name for pattern in patterns):
            print(f"{digest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
