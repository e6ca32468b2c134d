#!/usr/bin/env python3
"""Time trigrat's cold start: fresh processes of a bare interpreter, of
``import trigrat.cli``, of one ``classify``, ``root-member`` and
``verify sweep`` each, and of one ``classify`` line that the CLI's reader
declines (``--js``), so that argparse parses it.

    python3 scripts/cold_start.py [--runs N] [--root CHECKOUT]

Each of the six commands runs N times (default 21) in a fresh process,
interleaved, under two settings:

* ``bytecode``: the package is compiled by one untimed run, then read
  from its ``__pycache__``;
* ``no bytecode``: ``PYTHONDONTWRITEBYTECODE=1`` and nothing to read, so
  the package is compiled on every start, as the benchmark's children do
  when their checkout holds no ``__pycache__``.

trigrat is imported from a fresh temporary copy of CHECKOUT/src/trigrat
per setting, so bytecode left in the checkout cannot skew either one.  An
empty ``-X pycache_prefix`` would hide it as well, but it moves the
standard library's bytecode too: without bytecode every process would
then also compile argparse, fractions, json and the rest (an import of
those took 146 ms that way against 29 ms, 2-core Xeon, Python 3.11).

Prints the median and quartiles of each command's wall time in ms, and
trigrat's share of a fresh process: the median over the N rounds of the
command's time less the bare interpreter's in the same round, in ms and
as a ratio to the bare interpreter's time in that round.  A shared
machine's speed drifts between runs; the ratio compares across them.
Standard library only; exits 1 when a command fails or imports trigrat
from anywhere but the copy.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = {
    "python -c pass": ["-c", "pass"],
    "import trigrat.cli": ["-c", "import trigrat.cli"],
    "classify cos 1/3 --json": ["-m", "trigrat", "classify", "cos", "1/3", "--json"],
    "root-member 4/9 2 12 --json": ["-m", "trigrat", "root-member", "4/9", "2", "12", "--json"],
    "verify sweep --q-max 32 --n-max 8 --json": ["-m", "trigrat", "verify", "sweep", "--q-max", "32", "--n-max", "8",
                                                 "--json"],
    "classify --js cos 1/3": ["-m", "trigrat", "classify", "--js", "cos", "1/3"],
}


def environment(copy: Path, bytecode: bool) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(copy))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run(args: list[str], env: dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=21, help="fresh processes per command and setting")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the checkout whose src/trigrat is timed (default: this one)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with tempfile.TemporaryDirectory(prefix="cold_start_") as tmp:
        envs = {}
        for setting, bytecode in (("bytecode", True), ("no bytecode", False)):
            copy = Path(tmp) / setting.replace(" ", "_")
            shutil.copytree(args.root / "src" / "trigrat", copy / "trigrat",
                            ignore=shutil.ignore_patterns("__pycache__"))
            envs[setting] = environment(copy, bytecode)
            where = subprocess.run([sys.executable, "-c", "import trigrat.cli; print(trigrat.cli.__file__)"],
                                   env=envs[setting], capture_output=True, text=True)
            if where.returncode or Path(where.stdout.strip()).parent != copy / "trigrat":
                print(f"error: trigrat not imported from {copy}: {where.stdout}{where.stderr}", file=sys.stderr)
                return 1
        times = {(setting, name): [] for setting in envs for name in COMMANDS}
        try:
            for _ in range(args.runs):
                for (setting, name), samples in times.items():
                    samples.append(run(COMMANDS[name], envs[setting]))
        except subprocess.CalledProcessError as exc:
            print(f"error: {' '.join(exc.cmd)} exited {exc.returncode}", file=sys.stderr)
            return 1

    print(f"{args.runs} fresh processes each, wall time in ms; Python {sys.version.split()[0]}, "
          f"{os.cpu_count()} CPUs")
    print(f"{'setting':<12} {'command':<41} {'q1':>7} {'median':>7} {'q3':>7} {'trigrat':>8} {'/bare':>6}")
    for (setting, name), samples in times.items():
        q1, _, q3 = (1000 * t for t in statistics.quantiles(samples, n=4))
        median = 1000 * statistics.median(samples)
        bare = times[setting, "python -c pass"]
        shares = [t - b for t, b in zip(samples, bare)]
        ratios = [s / b for s, b in zip(shares, bare)]
        share = "" if samples is bare else f"{1000 * statistics.median(shares):8.1f} {statistics.median(ratios):6.3f}"
        print(f"{setting:<12} {name:<41} {q1:7.1f} {median:7.1f} {q3:7.1f} {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
