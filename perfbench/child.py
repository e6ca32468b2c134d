"""One batch of one workload, in a fresh single-threaded process.

    python3 child.py ROOT WORKLOAD SEED PASS BATCH MODE MEMORY_LIMIT SPANS_PATH

Caps its own address space at MEMORY_LIMIT bytes, imports trigrat from
ROOT/src, builds its batch of calls, notes the monotonic clock reading at
which it is ready, then drives ``trigrat.cli.run_cli`` once per call.  In
MODE ``traced`` the layers are traced; MODE ``plain`` runs untraced.
Before each call and after the last one it prints ``between`` and waits
for a line on standard input, so that the parent (run.py) can time its
reference kernel while this process is idle.  Last it prints one JSON
line with the ready reading, every call's exit code, output, start
reading and time, and its own peak RSS; when traced, also the trace
summary, and the spans go to SPANS_PATH.  Exits with 3 when trigrat
cannot be imported from ROOT/src.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def between_calls() -> None:
    sys.stdout.write("between\n")
    sys.stdout.flush()
    sys.stdin.readline()


def main(argv: list[str]) -> int:
    root, workload, seed, pass_index, batch_index, mode, limit, spans_path = argv
    if mode not in ("plain", "traced"):
        raise ValueError(f"unknown mode {mode!r}")
    limit = int(limit)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    try:
        import trigrat.cli
    except ImportError as exc:
        print(f"error: cannot import trigrat from {src}: {exc}", file=sys.stderr)
        return 3
    if Path(trigrat.cli.__file__).resolve().parent != (src / "trigrat").resolve():
        print(f"error: trigrat imported from {trigrat.cli.__file__}, not {src}", file=sys.stderr)
        return 3

    import workloads
    calls = workloads.make_pass(workload, int(seed), int(pass_index))[int(batch_index)]
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()

    records = []
    for call in calls:
        between_calls()
        out, err = io.StringIO(), io.StringIO()
        error = None
        stamp, start = time.monotonic(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = trigrat.cli.run_cli(call["argv"])
        except MemoryError:
            code, error = None, "MemoryError"
        except Exception as exc:  # an escaped exception is a failed operation
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        records.append({"call": call, "code": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue()[-500:], "error": error, "start": stamp,
                        "seconds": seconds})
    between_calls()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"ready": ready, "records": records, "peak_rss_kb": peak_kb}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
