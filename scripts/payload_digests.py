#!/usr/bin/env python3
"""Print one sha256 per standard grid of CLI payloads.

Each grid runs its commands through ``trigrat.cli.run_cli`` in this one
process.  Two trees whose printed digests agree print the same verdicts,
witnesses, JSON payloads and exit codes on every command of every grid.
Run it from a checkout with

    PYTHONPATH=src python3 scripts/payload_digests.py

A grid's digest is taken over each command line, its exit code, then its
stdout and stderr, in order; the sweep grid is one command, and its digest
is that of its stdout alone.  These are the formats of the digest tests in
``tests/``, so the digests of the grids they share are the ones pinned
there.
"""

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

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


def cold_classify_grid(q_low=100, q_high=200):
    """classify for cos, sin, tan at p/q with p in {1, 7, 2q - 1} coprime
    to q, for q_low <= q < q_high: one modulus lcm(2q, 4) per q."""
    for q in range(q_low, q_high):
        for p in (1, 7, 2 * q - 1):
            if gcd(p, q) == 1:
                for func in FUNCS:
                    yield ["classify", func, f"{p}/{q}", "--json"]


def sweep_digest(q_max, n_max):
    code, out, err = run(["verify", "sweep", "--q-max", str(q_max), "--n-max", str(n_max), "--json"])
    if code != 0:
        raise SystemExit(f"verify sweep exited {code}: {err}")
    return hashlib.sha256(out.encode()).hexdigest()


GRIDS = {
    "classify+eval q<=60": lambda: commands_digest(classify_eval_grid(60)),
    "verify sweep q<=32 n<=8": lambda: sweep_digest(32, 8),
    "verify sweep q<=96 n<=8": lambda: sweep_digest(96, 8),
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
}


def main() -> int:
    for name, digest in GRIDS.items():
        print(f"{digest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
