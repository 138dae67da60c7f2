#!/usr/bin/env python3
"""Run alternating parent/change pairs of the warehouse-day benchmark.

Given two checkouts of the repository (the parent commit and the change),
this runs `perfbench/run.py` in each, N pairs per workload, alternating
which side runs first, and prints per workload and end-to-end metric each
side's median and quartiles, the change's win count and a verdict:

    scripts/perf_pairs.py --parent ../parent --change . \\
        --workloads analyst,refresh,online_day --pairs 10 --first-seed 101 \\
        --seconds 30 --out pairs.json

Verdicts follow the pair rule for claiming a gain: `gain` when the change
wins at least nine tenths of the pairs (ties count for neither side) and
the medians differ by more than the parent's interquartile range; `worse`
when the change's median is worse than the parent's by more than the
metric's bound in BENCHMARK.json; `unresolved` when the parent's own
spread (IQR / median) exceeds that bound and the change does not read
better on every run than the parent on every run; `held` otherwise.
Metric names, directions and bounds are read from the parent checkout's
BENCHMARK.json. Pair p runs seed first_seed + p on every workload.

Each checkout is built once before timing (a one-second warm-up run).
`--selftest` checks the statistics and verdicts on fixed inputs.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def wins(parent, change, higher_better):
    """Pairs the change wins; a tie counts for neither side."""
    won = 0
    for p, c in zip(parent, change):
        if (c > p) if higher_better else (c < p):
            won += 1
    return won


def verdict(parent, change, higher_better, bound):
    """One of gain, worse, unresolved, held (see the module docstring)."""
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    iqr = p3 - p1
    sign = 1.0 if higher_better else -1.0
    better_by = sign * (cm - pm)  # > 0: the change's median is better
    if (wins(parent, change, higher_better) >= math.ceil(0.9 * len(parent))
            and better_by > iqr):
        return "gain"
    scale = abs(pm) if pm != 0 else 1.0
    if -better_by / scale > bound:
        return "worse"
    all_better = (min(change) > max(parent)) if higher_better else (
        max(change) < min(parent))
    if iqr / scale > bound and not all_better:
        return "unresolved"
    return "held"


def run_once(checkout, workload, seed, seconds, log):
    """Runs one benchmark; returns its parsed result or None on failure."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=log, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def report(runs, spec):
    """Prints one table per workload; returns the verdicts."""
    verdicts = {}
    for workload in sorted({r["workload"] for r in runs}):
        rows = [r for r in runs if r["workload"] == workload]
        ok = [r for r in rows if r["parent"] and r["change"]]
        print(f"\n## {workload}: {len(ok)} complete pairs of {len(rows)}")
        for side in ("parent", "change"):
            bad = [r["seed"] for r in rows if not r[side]
                   or not r[side]["correct"] or r[side]["failed"]]
            if bad:
                print(f"   {side}: failed or incorrect runs at seeds {bad}")
        if not ok:
            continue
        print(f"{'metric':<24} {'parent median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'delta':>8} "
              f"{'wins':>6}  verdict")
        for m in spec:
            name = m["name"]
            p = [r["parent"]["metrics"][name]["value"] for r in ok]
            c = [r["change"]["metrics"][name]["value"] for r in ok]
            hb = m["better"] == "higher"
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
            v = verdict(p, c, hb, m["bound"])
            verdicts[(workload, name)] = v
            print(f"{name:<24} {pq[1]:>12.4g} [{pq[0]:.4g}, {pq[2]:.4g}]"
                  .ljust(55) +
                  f"{cq[1]:>12.4g} [{cq[0]:.4g}, {cq[2]:.4g}]".ljust(31) +
                  f"{delta:>+8.1%} {wins(p, c, hb):>3}/{len(ok):<2}  {v}")
    return verdicts


def self_test():
    failures = []

    def check(what, got, want):
        if got != want:
            failures.append(f"{what}: got {got!r}, want {want!r}")

    check("quartiles odd", quartiles([5, 1, 3]), (2.0, 3.0, 4.0))
    check("quartiles even", quartiles([1, 2, 3, 4]), (1.75, 2.5, 3.25))
    check("quartiles single", quartiles([7]), (7, 7, 7))
    check("wins lower", wins([10, 10, 10], [9, 10, 11], False), 1)
    check("wins higher", wins([10, 10, 10], [9, 10, 11], True), 1)
    parent = [4.3, 4.5, 4.4, 4.6, 4.2, 4.5, 4.4, 4.7, 4.3, 4.5]
    faster = [2.7, 2.8, 2.6, 2.9, 2.7, 2.5, 2.8, 2.7, 2.6, 2.8]
    check("clear gain", verdict(parent, faster, False, 0.25), "gain")
    # Eight wins of ten is not enough, however large the median move.
    eight = faster[:8] + [4.8, 4.9]
    check("eight of ten", verdict(parent, eight, False, 0.25), "held")
    # Nine wins, but the medians differ by less than the parent's IQR.
    close = [x - 0.01 for x in parent[:9]] + [9.0]
    check("within IQR", verdict(parent, close, False, 0.25), "held")
    slower = [x * 1.5 for x in parent]
    check("worse", verdict(parent, slower, False, 0.25), "worse")
    check("worse, higher is better",
          verdict(parent, [x / 1.5 for x in parent], True, 0.25), "worse")
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    check("unresolved", verdict(noisy, [1.6] * 10, False, 0.25),
          "unresolved")
    # Better on every run is not unresolved, but the medians still have
    # to differ by more than the parent's IQR (1.0 here) to be a gain.
    check("better on every run, within IQR",
          verdict(noisy, [0.5] * 10, False, 0.25), "held")
    check("better on every run, beyond IQR",
          verdict(noisy, [0.4] * 10, False, 0.25), "gain")
    check("held", verdict(parent, list(parent), False, 0.25), "held")
    if failures:
        print("self-test FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print("self-test OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="checkout of the parent commit")
    ap.add_argument("--change", help="checkout of the change")
    ap.add_argument("--workloads", default="refresh,analyst,online_day")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", help="write every run's result here (JSON)")
    ap.add_argument("--log", default=os.devnull,
                    help="build and benchmark stderr (default: discarded)")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return self_test()
    if not args.parent or not args.change:
        ap.error("--parent and --change are required")
    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        spec = json.load(f)["end_to_end"]
    workloads = args.workloads.split(",")
    runs = []
    with open(args.log, "a") as log:
        for side in (args.parent, args.change):
            if run_once(side, workloads[0], args.first_seed, 1, log) is None:
                print(f"warm-up run failed in {side}", file=sys.stderr)
                return 2
        for p in range(args.pairs):
            seed = args.first_seed + p
            for workload in workloads:
                order = ["parent", "change"]
                if p % 2 == 1:
                    order.reverse()
                run = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    checkout = args.parent if side == "parent" else args.change
                    run[side] = run_once(checkout, workload, seed,
                                         args.seconds, log)
                runs.append(run)
                print(f"# pair {p + 1}/{args.pairs} {workload} seed {seed} "
                      f"done", file=sys.stderr, flush=True)
                if args.out:
                    with open(args.out, "w") as f:
                        json.dump(runs, f, indent=1)
    report(runs, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
