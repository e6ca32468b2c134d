#!/usr/bin/env python3
"""trigrat's benchmark: three workloads driven through ``trigrat.cli.run_cli``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the designs):

* ``sweep`` - ``verify sweep --q-max 32 --n-max 8`` over cos, sin and tan,
  the paper's exhaustive check; an operation is one power query.
* ``classify_cold`` - ``classify`` at q in [100, 200), one call per
  modulus, so every cache misses, as for a one-shot CLI user.
* ``kummer`` - ``root-member``, ``irreducible --oracle`` and ``sqrt-embed``
  calls; no trig values, the Galois test, the power tables and the subset
  oracle.

The benchmark is a closed loop with one client: each call starts when the
previous one has returned.  A run repeats passes of its workload until the
next pass would end after ``--seconds``; every batch of a pass runs in a
fresh single-threaded child process (child.py) under its own address-space
limit.  Every output is checked against oracles.py, which shares no code
with trigrat.  A call fails when it exits nonzero, raises, runs out of
memory, or gives an answer the oracles reject; a wrong answer also makes
``correct`` false, whatever the exit code.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics named in BENCHMARK.json: the median set-up time of the children,
operations per second of busy time, the 50th and 90th percentile call
latency, the median peak RSS of the children, and the share of operations
that did not fail.  Times are calibrated against a reference kernel that
this process runs between a child's calls (see KERNEL_REFERENCE_S).  With
``--trace 1`` one pass runs untraced and then traced (same inputs), and
the last line holds the per-layer metrics from tracer.py.  The full record
(machine, commit, sample counts, units, directions, uncalibrated times,
failures) is printed on the line before and written under
.perfbench_results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0
# Timings are calibrated against the machine's speed, which drifts by tens
# of percent within seconds and over minutes (other tenants).  This process
# times a fixed reference kernel before each call of a child, after its
# last one, and every KERNEL_INTERVAL_S inside a call, while the child
# waits or is stopped: the kernel then shares no heap with trigrat and
# competes with it for no core (the two cores are not independent: a busy
# process on one slowed the kernel on the other 2.6-fold).  A call's time,
# less the time the child was stopped, is scaled by KERNEL_REFERENCE_S over
# the mean kernel time sampled from KERNEL_WINDOW_S before the call to
# KERNEL_WINDOW_S after it; the mean, because a call's time adds up the
# machine's slowness over its length.  On a shared 2-core Xeon this cut the
# coefficient of variation of eight equal sweep calls from 0.16 raw to 0.03
# (0.095 with the median of samples every 0.5 s).  KERNEL_REFERENCE_S only
# sets the scale: calibrated times are what the calls take where one
# kernel takes that long.  Raw times go into the record too.
KERNEL_REFERENCE_S = 0.002
KERNEL_WINDOW_S = 0.5
KERNEL_INTERVAL_S = 0.15
GIB = 1 << 30
# per-child address-space cap; a blow-up past it ends as failed calls
MEMORY_LIMIT = {"sweep": 2 * GIB, "classify_cold": 3 * GIB, "kummer": 3 * GIB}


class SetupError(RuntimeError):
    """The program could not be started at all; no result is printed."""


# ----------------------------------------------------------------------
# machine speed

def reference_kernel() -> Fraction:
    """Fixed pure-Python work of the kind trigrat does: rational and big
    integer arithmetic and short-lived small containers."""
    xs = [Fraction(i * i + 1, i + 3) for i in range(1, 60)]
    ys = [Fraction(2 * i + 1, i * i + 5) for i in range(1, 60)]
    total = Fraction(0)
    for _ in range(3):
        for x, y in zip(xs, ys):
            total += x * y - x / y
    rows = [tuple(range(i % 7, i % 7 + 8)) for i in range(2000)]
    return total + sum(row[3] for row in rows)


def kernel_seconds() -> float:
    """Median time of three reference kernels: the machine's current speed."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Speed:
    """The reference kernel's samples around and inside a child's calls."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (monotonic reading, kernel seconds)
        self.pauses: list[tuple[float, float]] = []  # when the child was stopped

    def sample(self) -> None:
        self.samples.append((time.monotonic(), kernel_seconds()))

    def sample_stopped(self, proc: subprocess.Popen) -> None:
        """Stop the child, which is busy (inside a call or starting up),
        while the kernel runs."""
        start = time.monotonic()
        os.kill(proc.pid, signal.SIGSTOP)
        try:
            self.sample()
        finally:
            os.kill(proc.pid, signal.SIGCONT)
            self.pauses.append((start, time.monotonic()))

    def ran(self, start: float, end: float) -> float:
        """Seconds the child ran from ``start`` to ``end``, less its stops."""
        return end - start - sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.pauses)

    def factor(self, start: float, end: float) -> float:
        """The factor that turns seconds run from ``start`` to ``end`` into
        seconds at the reference speed.  A sample is taken just before
        every call and set-up, so ``near`` is never empty."""
        near = [k for t, k in self.samples
                if start - KERNEL_WINDOW_S <= t <= end + KERNEL_WINDOW_S]
        return KERNEL_REFERENCE_S / statistics.mean(near)


def drive(proc: subprocess.Popen, speed: Speed, deadline: float) -> str | None:
    """Time the reference kernel each time the child waits between calls
    (see child.py) and every KERNEL_INTERVAL_S inside a call, and let the
    child go on.  Returns its last line ("" if it died), or None when the
    deadline passed."""
    while True:
        ready, _, _ = select.select([proc.stdout], [], [], KERNEL_INTERVAL_S)
        if not ready:
            if time.monotonic() > deadline:
                return None
            speed.sample_stopped(proc)
            continue
        line = proc.stdout.readline()
        if line != "between\n":
            return line
        speed.sample()
        try:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        except BrokenPipeError:  # the child died meanwhile
            return ""


# ----------------------------------------------------------------------
# children

def run_child(workload: str, seed: int, pass_index: int, batch: int, mode: str,
              deadline: float, out_dir: Path) -> dict:
    """Run one batch in a fresh process (``mode`` as in child.py), sampling
    the machine's speed around and inside its calls.  Returns the child's
    result with ``setup_s`` and each record's ``ran_s`` and
    ``calibrated_s`` added (also for the set-up), or {"batch_error":
    reason} when the process died."""
    stem = out_dir / f"{workload}-seed{seed}-batch{batch}-{mode}"
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), workload, str(seed),
           str(pass_index), str(batch), mode, str(MEMORY_LIMIT[workload]), f"{stem}.spans.json"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    with open(f"{stem}.err", "w+") as err:
        speed = Speed()
        speed.sample()
        spawned = time.monotonic()
        driven = None
        with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                              cwd=ROOT, env=env, text=True) as proc:
            try:
                driven = drive(proc, speed, deadline)
            finally:
                if driven is None:
                    proc.kill()
        err.seek(0)
        stderr = err.read().strip()
    if driven is None:
        return {"batch_error": "timeout"}
    if proc.returncode == 3:
        raise SetupError(stderr)
    if proc.returncode != 0:
        return {"batch_error": f"exit {proc.returncode}: {stderr[-300:]}"}
    result = json.loads(driven)
    for record in result["records"]:
        start, end = record["start"], record["start"] + record["seconds"]
        record["ran_s"] = speed.ran(start, end)
        record["calibrated_s"] = record["ran_s"] * speed.factor(start, end)
    result["setup_s"] = speed.ran(spawned, result["ready"])
    result["calibrated_setup_s"] = result["setup_s"] * speed.factor(spawned, result["ready"])
    return result


def operations(call: dict) -> int:
    """Operations in one call: power queries for a sweep, else one."""
    if call["kind"] == "sweep":
        return oracles.expected_queries(call["q_max"], call["n_max"], tuple(call["funcs"]))
    return 1


# ----------------------------------------------------------------------
# metrics

def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Tally:
    """Checked outcomes of every call in a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.completed_ops = 0
        self.call_seconds: list[float] = []  # completed calls only, calibrated
        self.raw_seconds: list[float] = []
        self.busy_s = 0.0  # calibrated
        self.raw_busy_s = 0.0
        self.failures: list[str] = []

    def add(self, calls: list[dict], result: dict) -> None:
        if "batch_error" in result:
            for call in calls:
                self._fail(call, operations(call), result["batch_error"])
            return
        for record in result["records"]:
            call, ops = record["call"], operations(record["call"])
            seconds = record["calibrated_s"]
            self.busy_s += seconds
            self.raw_busy_s += record["ran_s"]
            if record["error"] is not None:
                self._fail(call, ops, record["error"])
                continue
            outcome = oracles.check_call(call, record["code"], record["stdout"])
            if outcome is not None:
                reason, wrong = outcome
                self.wrong += wrong
                self._fail(call, ops, reason)
                continue
            self.attempted += ops
            self.completed_ops += ops
            self.call_seconds.append(seconds)
            self.raw_seconds.append(record["ran_s"])

    def _fail(self, call: dict, ops: int, reason: str) -> None:
        self.attempted += ops
        self.failed += ops
        self.failures.append(f"{' '.join(call['argv'])}: {reason}")


def _timings(setups: list[float], seconds: list[float], ops: int, busy: float) -> dict:
    latencies_ms = [s * 1000 for s in seconds]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / busy,
        "latency_p50_ms": percentile(latencies_ms, 0.5),
        "latency_p90_ms": percentile(latencies_ms, 0.9),
    }


def end_to_end(results: list[dict], tally: Tally) -> tuple[dict, dict, dict]:
    """The end-to-end metrics of an untraced run, their sample counts, and
    the timings before calibration.  Latencies cover completed calls; a
    failed call counts in ``ok_frac`` and in the busy time."""
    children = [r for r in results if "batch_error" not in r]
    if not children or not tally.call_seconds:
        raise SetupError("no batch completed")
    setups = [r["calibrated_setup_s"] for r in children]
    values = {
        **_timings(setups, tally.call_seconds, tally.completed_ops, tally.busy_s),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in children),
        "ok_frac": 1 - tally.failed / tally.attempted,
    }
    raw = _timings([r["setup_s"] for r in children], tally.raw_seconds,
                   tally.completed_ops, tally.raw_busy_s)
    samples = {
        "setup_s": len(children),
        "ops_per_s": tally.completed_ops,
        "latency_p50_ms": len(tally.call_seconds),
        "latency_p90_ms": len(tally.call_seconds),
        "peak_rss_mb": len(children),
        "ok_frac": tally.attempted,
    }
    return values, samples, raw


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics summed over the traced children of one pass."""
    calls, seconds, self_s, errors = {}, {}, {}, {}
    caches, verdicts = {}, {}
    candidates = found = spans = entries = 0
    for result in traced:
        summary = result["trace"]
        for table, source in ((calls, "calls"), (seconds, "seconds"),
                              (self_s, "layer_self_s"), (errors, "layer_errors"),
                              (verdicts, "verdicts")):
            for key, value in summary[source].items():
                table[key] = table.get(key, 0) + value
        for key, (hits, misses) in summary["caches"].items():
            h, m = caches.get(key, (0, 0))
            caches[key] = (h + hits, m + misses)
        candidates += summary["subset_candidates"]
        found += summary["subset_found"]
        spans += summary["spans"]
        # computed, not measured: rows * phi integers per modulus cached
        entries += sum(workloads.table_entries(m) for m in summary["table_moduli"])

    values = {}
    for prefix in sorted(set(tracer.NAMED.values()) - {"cli.run_cli", "sweep.verify_theorem_sweep"}):
        values[f"{prefix}.calls"] = calls.get(prefix, 0)
        values[f"{prefix}.s"] = seconds.get(prefix, 0.0)
    for prefix in tracer.CACHED:
        hits, misses = caches[prefix]
        values[f"{prefix}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["cyclotomic.power_table.builds"] = caches["cyclotomic.power_table"][1]
    values["cyclotomic.power_table.entries"] = entries
    for justification in tracer.JUSTIFICATIONS:
        values[f"kummer.verdicts.{justification}"] = verdicts.get(justification, 0)
    values["kummer.subset.candidates"] = candidates
    values["kummer.subset.confirmed_ratio"] = found / candidates if candidates else 0.0
    for layer in tracer.LAYERS:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        values[f"{layer}.errors"] = errors.get(layer, 0)
    # the child's own clock, which the spans use too: both include the
    # child's stops for the speed samples (about 6% of a long call)
    values["trace.wall_s"] = sum(rec["seconds"] for r in traced for rec in r["records"])
    values["trace.self_sum_s"] = sum(self_s.values())
    # both sides calibrated, so machine drift between the two runs cancels
    calibrated = [sum(rec["calibrated_s"] for r in side for rec in r["records"])
                  for side in (traced, untraced)]
    values["trace.overhead_frac"] = calibrated[0] / calibrated[1] - 1
    return values, {"traced_batches": len(traced), "spans": spans}


def declared(kind: str) -> dict[str, dict]:
    """The metrics BENCHMARK.json declares under ``kind``, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric for metric in spec[kind]}


# ----------------------------------------------------------------------
# metadata

def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "memory_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // (1 << 20),
        "git_commit": git_commit(),
    }


# ----------------------------------------------------------------------
# main

def measure(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    tally, traced_tally = Tally(), Tally()
    untraced, pairs = [], []  # pairs: (traced, untraced) results of one batch
    pass_index = 0
    while True:
        pass_start = time.monotonic()
        for batch, calls in enumerate(workloads.make_pass(workload, seed, pass_index)):
            result = run_child(workload, seed, pass_index, batch, "plain", deadline, out_dir)
            untraced.append(result)
            tally.add(calls, result)
            if trace:
                traced = run_child(workload, seed, pass_index, batch, "traced", deadline, out_dir)
                traced_tally.add(calls, traced)  # traced outputs are checked too
                if "batch_error" not in traced and "batch_error" not in result:
                    pairs.append((traced, result))
        pass_index += 1
        now = time.monotonic()
        if trace or now - start + (now - pass_start) > seconds:
            break

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "passes": pass_index, "batches": len(untraced), **machine(),
              "attempted": tally.attempted, "failed": tally.failed,
              "failed_frac": tally.failed / tally.attempted,
              "wrong_answers": tally.wrong + traced_tally.wrong,
              "failures": tally.failures, "traced_failures": traced_tally.failures}
    if trace:
        if not pairs:
            raise SetupError("no traced batch completed")
        values, samples = per_layer([t for t, _ in pairs], [u for _, u in pairs])
        spec = declared("per_layer")
    else:
        values, samples, raw = end_to_end(untraced, tally)
        spec = declared("end_to_end")
        record["uncalibrated"] = raw
        record["kernel_reference_s"] = KERNEL_REFERENCE_S
    if set(values) != set(spec):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(spec))}")
    record["metrics"] = {name: {"value": values[name], "unit": spec[name]["unit"],
                                "better": spec[name]["better"], "samples": samples.get(name)}
                         for name in spec}
    if trace:
        record["trace_samples"] = samples
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trigrat" / "cli.py").is_file():
        print(f"error: no trigrat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2, sort_keys=True))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["wrong_answers"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
