#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  The script builds
perfbench/perfbench.exe with dune, then runs it in fresh processes: two
whole runs, then set-up-only processes until --seconds is used up
(set-up time is the median of every set-up, host figures are medians over
the whole runs), and, for the workloads that have one, the library's own
runner on the same config and seed.  Virtual-clock figures are exact
functions of (code, seed): every process of a run must agree on them, and
they must match the library runner's outcome.

With --trace 0 the result holds the end_to_end metrics of BENCHMARK.json;
with --trace 1 it holds the per_layer metrics, taken from one traced
process, and the tracing overhead against an untraced one.  Every metric
is printed first as a line with its unit, clock and sample count; the last
line is the JSON result.  The exit code is nonzero if an output check
fails or the program cannot be built or run.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
TRACE_DIR = ".perfbench"
MIN_SETUPS = 5
MAX_SETUPS = 60
BUILD_DEADLINE_S = 850.0
DEADLINE_S = 165.0
LIBRARY_RUNNER = {"http-c1k-spec", "kv-c288-stw"}
LAYERS = ("kern", "apps", "vm", "core", "objstore", "block", "net")


class Failure(Exception):
    pass


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise Failure(f"cannot read BENCHMARK.json: {e}")
    return spec


def build(deadline):
    if not os.path.exists("dune-project"):
        raise Failure("no dune-project here: run from the root of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Failure(f"build failed: {e}")
    if r.returncode != 0:
        raise Failure("build failed:\n" + r.stderr[-4000:])


def run_exe(deadline, mode, workload, seed, trace=False, extra=()):
    cmd = [EXE, mode, "--workload", workload, "--seed", str(seed), *extra]
    if trace:
        cmd += ["--trace", "--out", TRACE_DIR]
    t0 = time.monotonic()
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(1.0, deadline - t0))
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Failure(f"{mode} process failed: {e}")
    if r.returncode != 0:
        raise Failure(f"{mode} process exited {r.returncode}:\n{r.stderr[-4000:]}")
    lines = r.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise Failure(f"{mode} process printed no result")
    return out, time.monotonic() - t0


def by_name(rep):
    return {m["name"]: m for m in rep["metrics"]}


def virtual_view(rep):
    """Everything in a process's result that must not depend on the host."""
    return ([(m["name"], m["value"], m["samples"]) for m in rep["metrics"]
             if m["clock"] == "v"],
            rep["attempted"], rep["failed"], rep["outcome"])


def fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise Failure(f"unknown workload {args.workload}; one of {', '.join(names)}")
    # The first run in a fresh checkout compiles everything; later builds
    # are no-ops, so the run's own deadline starts after the build.
    build(time.monotonic() + BUILD_DEADLINE_S)
    deadline = time.monotonic() + DEADLINE_S

    checks = []  # (name, ok, detail)
    # Two whole runs (their virtual figures must agree), or one untraced
    # and one traced; then, untraced, set-up-only processes until the
    # measuring time is used up.  Set-up time is noisy on a shared host,
    # so it is the median of every set-up the run made.
    t0 = time.monotonic()
    reps = [run_exe(deadline, "measure", args.workload, args.seed)[0]]
    traced = None
    setups = []
    if args.trace == 1:
        traced, _ = run_exe(deadline, "measure", args.workload, args.seed, trace=True)
    else:
        reps.append(run_exe(deadline, "measure", args.workload, args.seed)[0])
        longest = 0.0
        while len(setups) < MAX_SETUPS and (
                len(setups) < MIN_SETUPS or time.monotonic() - t0 + longest <= args.seconds):
            out, dt = run_exe(deadline, "setup", args.workload, args.seed)
            setups.append(by_name(out)["setup_s"]["value"])
            longest = max(longest, dt)

    # A process check holds when it holds in every process.
    merged = {}
    for rep in reps + ([traced] if traced else []):
        for c in rep["checks"]:
            if c["name"] not in merged or not c["ok"]:
                merged[c["name"]] = (c["name"], c["ok"], c["detail"])
    checks.extend(merged.values())
    first = virtual_view(reps[0])
    same = all(virtual_view(r) == first for r in reps[1:])
    checks.append(("fresh processes with one seed agree on every virtual-clock figure",
                   same, f"{len(reps)} processes"))
    if traced:
        checks.append(("tracing leaves every virtual-clock figure unchanged",
                       virtual_view(traced) == first, "traced vs untraced process"))
    if args.workload in LIBRARY_RUNNER:
        ref, _ = run_exe(deadline, "reference", args.workload, args.seed)
        mine = reps[0]["outcome"]
        diff = [k for k in ref["outcome"] if ref["outcome"][k] != mine.get(k)]
        checks.append(("the benchmark loop reproduces the library runner's outcome", not diff,
                       "differs in " + ", ".join(diff) if diff else
                       ", ".join(f"{k}={fmt(v)}" for k, v in ref["outcome"].items())))

    # Figures: virtual ones from any process, host ones as medians.
    metrics = {}
    for name, m in by_name(reps[0]).items():
        value = m["value"]
        if m["clock"] == "h":
            value = statistics.median(by_name(r)[name]["value"] for r in reps)
        metrics[name] = dict(m, value=value)
    attempted, failed = reps[0]["attempted"], reps[0]["failed"]
    metrics["failed_frac"] = {"name": "failed_frac", "unit": "ratio", "clock": "v",
                              "samples": attempted,
                              "value": failed / attempted if attempted else 0.0}
    if setups:
        all_setups = setups + [by_name(r)["setup_s"]["value"] for r in reps]
        metrics["setup_s"] = {"name": "setup_s", "unit": "s", "clock": "h",
                              "samples": len(all_setups),
                              "value": statistics.median(all_setups)}
    if traced:
        for name, m in by_name(traced).items():
            if name not in metrics:
                metrics[name] = m
        delta = by_name(traced)["sim_rps"]["value"] - metrics["sim_rps"]["value"]
        metrics["sim.trace_overhead_rps"] = {
            "name": "sim.trace_overhead_rps", "unit": "1/s", "clock": "h",
            "samples": 2, "value": delta}

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for w in wanted:
        m = metrics.get(w["name"])
        ok = m is not None and isinstance(m["value"], (int, float)) \
            and math.isfinite(m["value"]) and m["unit"] == w["unit"]
        if not ok:
            checks.append((f"metric {w['name']} is reported in {w['unit']}", False,
                           "missing, non-finite or in another unit"))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"processes={len(reps)} setups={len(setups)}")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"{name} = {fmt(m['value'])} {m['unit']} "
              f"[{'virtual' if m['clock'] == 'v' else 'host'}, n={m['samples']}]")
    if traced:
        wall = sum(metrics[f"{l}.self_ms"]["value"] for l in LAYERS) \
            + metrics["sim.other_host_ms"]["value"]
        print("# host self time per layer in the measured window (traced process)")
        for l in LAYERS:
            v = metrics[f"{l}.self_ms"]["value"]
            print(f"#   {l:<9} {v:10.1f} ms  {100 * v / wall if wall else 0:5.1f}%")
        v = metrics["sim.other_host_ms"]["value"]
        print(f"#   {'(other)':<9} {v:10.1f} ms  {100 * v / wall if wall else 0:5.1f}%")
        print(f"# trace written to {TRACE_DIR}/{args.workload}.trace.json")
    for name, ok, detail in checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name} ({detail})")

    correct = all(ok for _, ok, _ in checks)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]]["value"], "unit": w["unit"]}
                    for w in wanted if w["name"] in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
