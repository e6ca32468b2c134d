#!/usr/bin/env python3
"""Print one sha256 per standard grid of CLI payloads.

Each grid runs its commands through ``trigrat.cli.run_cli`` in this one
process.  Two trees whose printed digests agree print the same verdicts,
witnesses, JSON payloads and exit codes on every command of every grid.
Run it from a checkout with

    PYTHONPATH=src python3 scripts/payload_digests.py [SUBSTRING ...]

With no arguments it prints every grid; with arguments, only the grids
whose names contain one of them (``oracle`` picks the two subset-oracle grids).

A grid's digest is taken over each command line, its exit code, then its
stdout and stderr, in order; each sweep grid is one command, and its
digest is that of its stdout alone.  These are the formats of the digest tests in
``tests/``, so the digests of the grids they share are the ones pinned
there.
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
    the exponent limit, q in {3, 4, 5, 6, 7, 12, 60, 97}; the tests pin the
    part at q <= 12."""
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


def cold_classify_grid(q_low=100, q_high=200):
    """classify for cos, sin, tan at p/q with p in {1, 7, 2q - 1} coprime
    to q, for q_low <= q < q_high: one modulus lcm(2q, 4) per q."""
    for q in range(q_low, q_high):
        for p in (1, 7, 2 * q - 1):
            if gcd(p, q) == 1:
                for func in FUNCS:
                    yield ["classify", func, f"{p}/{q}", "--json"]


def oracle_grid(n_max=12):
    """irreducible --oracle at n = 2..n_max for coprime a/b with a, b <= 12,
    and at the (n, k) of the kummer benchmark's perfect powers (a/b)^k
    with n <= n_max, a <= 9 prime to b, b in 1001..1010; the tests pin the
    part at n_max = 8."""
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
    the float roots are large enough that rounding decides which factors
    the subset oracle finds."""
    for e in range(1, 296, 7):
        for n in range(2, 13):
            yield ["irreducible", str(10 ** e), str(n), "--oracle", "--json"]


COMMANDS = ("classify", "eval", "gauss", "sqrt-embed", "root-member", "irreducible", "group", "verify")

# help, and command lines that argparse refuses: no command or an unknown
# one, options before the command, missing, extra and malformed arguments
USAGE_ARGV = [
    [], ["-h"], ["--help"], ["--json"], ["bogus"], ["clas", "cos", "1/3"],
    ["--json", "classify", "cos", "1/3"], ["--", "classify", "cos", "1/3"],
    *([name, "-h"] for name in COMMANDS), ["verify", "sweep", "--help"],
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


def usage_digest():
    """The digest of USAGE_ARGV, with argparse's wrapping fixed at 80
    columns rather than the terminal's width."""
    with patch.dict(os.environ, {"COLUMNS": "80"}):
        return commands_digest(USAGE_ARGV)


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
    "classify 100<=q<200": lambda: commands_digest(cold_classify_grid()),
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
}


def main(patterns: list[str]) -> int:
    for name, digest in GRIDS.items():
        if not patterns or any(pattern in name for pattern in patterns):
            print(f"{digest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
