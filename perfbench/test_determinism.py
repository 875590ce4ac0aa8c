#!/usr/bin/env python3
"""Determinism test of the benchmark's virtual clock.

    python3 perfbench/test_determinism.py [--duration-ms 400] [WORKLOAD ...]

Run from the root of the repository.  For each workload (default: all in
BENCHMARK.json), two processes with one seed must report identical
virtual-clock figures; they are fresh processes because the program's id
counters, Genlog and tracer are process-global.  A process with a second
seed must change those figures, as a negative control.  Exits nonzero on
any failure.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def measure(workload, seed, duration_ms):
    out, _ = run.run_exe(time.monotonic() + run.DEADLINE_S, "measure", workload, seed,
                         extra=["--duration-ms", str(duration_ms)])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--duration-ms", type=int, default=400)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    spec = run.load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    run.build(time.monotonic() + run.BUILD_DEADLINE_S)
    failures = 0
    for w in workloads:
        a = run.virtual_view(measure(w, 1, args.duration_ms))
        b = run.virtual_view(measure(w, 1, args.duration_ms))
        c = run.virtual_view(measure(w, 2, args.duration_ms))
        same = a == b
        moved = [n for (n, v, _), (_, v2, _) in zip(a[0], c[0]) if v != v2]
        print(f"{w}: same seed {'identical' if same else 'DIFFERENT'}; "
              f"second seed changes {len(moved)} of {len(a[0])} figures "
              f"({', '.join(moved[:6])}{', ...' if len(moved) > 6 else ''})")
        if not same:
            for (n, v, s), (_, v2, s2) in zip(a[0], b[0]):
                if (v, s) != (v2, s2):
                    print(f"  {n}: {v} vs {v2}")
            failures += 1
        if not moved:
            failures += 1
    print("ok" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.Failure as e:
        print(f"test_determinism: {e}", file=sys.stderr)
        sys.exit(2)
