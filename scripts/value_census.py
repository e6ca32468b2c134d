#!/usr/bin/env python3
"""Census of rationality cases over all reduced angles up to a denominator bound.

For every reduced p/q with q <= Q the script classifies cos, sin and tan of
pi*p/q, tallies the cases, and records each distinct base value that occurs
together with the first angle exhibiting it.  The value table makes the
finiteness phenomenon visible: however large Q grows, the same short list
of values keeps reappearing while the never-rational class soaks up
everything else.
"""

import argparse
import json
import sys
from collections import Counter

from trigrat.sweep import reduced_angles
from trigrat.trig import Case, TrigFunc, classify, theorem_value_list, value_descriptor

FUNCS = (TrigFunc.COS, TrigFunc.SIN, TrigFunc.TAN)


def census(q_max: int):
    counts = {func: Counter() for func in FUNCS}
    first_seen = {func: {} for func in FUNCS}
    for angle in reduced_angles(q_max):
        for func in FUNCS:
            result = classify(func, angle)
            counts[func][result.case] += 1
            if result.case in (Case.VALUE_RATIONAL, Case.SQUARE_RATIONAL):
                descriptor = value_descriptor(result)
                first_seen[func].setdefault(descriptor, angle)
    return counts, first_seen


def main(argv: list[str] | None = None) -> int:
    """Print the census; 1, naming each value off the predicted list, if any."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--q-max", type=int, default=24, help="largest denominator (default 24)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    args = parser.parse_args(argv)

    counts, first_seen = census(args.q_max)
    # the even list holds the odd one
    outside = [
        f"{func} {descriptor} at theta = {angle}"
        for func in FUNCS
        for descriptor, angle in first_seen[func].items()
        if descriptor not in theorem_value_list(func, "even")
    ]

    if args.json:
        payload = {
            str(func): {
                "cases": {str(case): counts[func][case] for case in Case if counts[func][case]},
                "values": {
                    str(desc): str(angle)
                    for desc, angle in sorted(first_seen[func].items(), key=lambda kv: str(kv[0]))
                },
            }
            for func in FUNCS
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        total = sum(sum(c.values()) for c in counts.values())
        print(f"classified {total} (function, angle) pairs with q <= {args.q_max}\n")
        for func in FUNCS:
            parts = ", ".join(
                f"{case}: {counts[func][case]}" for case in Case if counts[func][case]
            )
            print(f"{func}: {parts}")
            for descriptor, angle in sorted(first_seen[func].items(), key=lambda kv: str(kv[0])):
                print(f"    {str(descriptor):>10}  first at theta = {angle}")
        if not outside:
            print("\nevery value above is on the predicted finite list; run the sweep to")
            print("check the powers themselves (trigrat verify sweep).")
    for line in outside:
        print(f"value off the predicted list: {line}", file=sys.stderr)
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
