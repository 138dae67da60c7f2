#!/usr/bin/env python3
"""Compare two BENCH_*.json runs and flag regressions.

Every bench binary in this repo writes BENCH_<name>.json: a flat array of
{"name": ..., "value": ..., "unit": ...} metrics (see bench/bench_json.h).
This script diffs two such files metric-by-metric:

    scripts/bench_diff.py old.json new.json [--threshold 0.10]

Direction is inferred from the unit: throughput units (items/s) are
higher-is-better; everything else (time, pages, bytes, counts) is
lower-is-better. A metric that moved in the bad direction by more than
--threshold (relative) is a regression; the script lists every regression
and exits non-zero if any were found. A baseline value of 0 has no
relative scale: any move off 0 in the bad direction is a regression (a
zero-fetch counter that starts fetching must fail the gate). Metrics present only in the new run
are reported but never fail the diff — benches grow new counters over
time. Metrics present in the baseline but missing from the new run FAIL
the diff (silent key drift would otherwise let a renamed or dropped gate
metric pass unchecked); pass --allow-missing to downgrade that to a
warning, e.g. when diffing against a deliberately pruned baseline.

`--self-test` runs the comparator against built-in fixtures (no files
needed) so CI can validate the tool itself as an ordinary ctest entry.
"""

import argparse
import json
import sys

HIGHER_BETTER_UNITS = {"items/s"}


def load_metrics(path):
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a flat JSON array of metrics")
    metrics = {}
    for entry in data:
        name = entry["name"]
        if name in metrics:
            # Repeated benchmark runs emit the same name; keep the last.
            pass
        metrics[name] = (float(entry["value"]), entry.get("unit", ""))
    return metrics


def diff_metrics(old, new, threshold):
    """Returns (regressions, improvements, only_old, only_new).

    Each regression/improvement is (name, old_value, new_value, rel_change,
    unit) where rel_change is signed relative movement in the bad (resp.
    good) direction.
    """
    regressions = []
    improvements = []
    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    for name in sorted(set(old) & set(new)):
        old_value, unit = old[name]
        new_value, _ = new[name]
        if old_value == 0.0:
            # No relative scale: only the direction of the move counts.
            moved = new_value if unit not in HIGHER_BETTER_UNITS \
                else -new_value
            if moved > 0.0:
                regressions.append(
                    (name, old_value, new_value, float("inf"), unit))
            elif moved < 0.0:
                improvements.append(
                    (name, old_value, new_value, float("-inf"), unit))
            continue
        rel = (new_value - old_value) / abs(old_value)
        if unit in HIGHER_BETTER_UNITS:
            rel = -rel  # a drop in throughput is the bad direction
        if rel > threshold:
            regressions.append((name, old_value, new_value, rel, unit))
        elif rel < -threshold:
            improvements.append((name, old_value, new_value, rel, unit))
    return regressions, improvements, only_old, only_new


def format_row(name, old_value, new_value, rel, unit):
    return (f"  {name}: {old_value:g} -> {new_value:g} {unit} "
            f"({rel:+.1%} in the bad direction)")


def run_diff(old_path, new_path, threshold, allow_missing=False):
    old = load_metrics(old_path)
    new = load_metrics(new_path)
    regressions, improvements, only_old, only_new = diff_metrics(
        old, new, threshold)

    failed = False
    if only_old:
        if allow_missing:
            print(f"metrics only in {old_path} (ignored via "
                  f"--allow-missing):")
        else:
            failed = True
            print(f"MISSING METRICS: present in baseline {old_path} but "
                  f"absent from {new_path}:")
        for name in only_old:
            print(f"  {name}")
        if not allow_missing:
            print("a baseline metric vanished from the new run — a rename "
                  "or dropped counter would silently escape the gate; "
                  "update the committed baseline or pass --allow-missing")
    if only_new:
        print(f"metrics only in {new_path} (ignored):")
        for name in only_new:
            print(f"  {name}")
    if improvements:
        print(f"improved beyond {threshold:.0%}:")
        for row in improvements:
            print(format_row(*row))
    if regressions:
        print(f"REGRESSIONS beyond {threshold:.0%}:")
        for row in regressions:
            print(format_row(*row))
        failed = True
    if failed:
        return 1
    shared = len(set(old) & set(new))
    print(f"OK: {shared} shared metrics within {threshold:.0%} "
          f"(or improved)")
    return 0


def self_test():
    old = {
        "scan/real_time": (100.0, "ns"),
        "scan/items_per_second": (1.0e6, "items/s"),
        "io/misses": (500.0, "pages"),
        "gone_metric": (1.0, "count"),
        "zero_metric": (0.0, "count"),
        "zero_kept": (0.0, "pages"),
    }
    new = {
        "scan/real_time": (130.0, "ns"),        # 30% slower: regression
        "scan/items_per_second": (2.5e6, "items/s"),  # faster: improvement
        "io/misses": (505.0, "pages"),           # within threshold
        "new_metric": (7.0, "count"),
        "zero_metric": (3.0, "count"),           # off 0, bad: regression
        "zero_kept": (0.0, "pages"),             # stays 0: fine
    }
    regressions, improvements, only_old, only_new = diff_metrics(
        old, new, threshold=0.10)

    failures = []
    if [r[0] for r in regressions] != ["scan/real_time", "zero_metric"]:
        failures.append(f"regressions: {regressions}")
    if [i[0] for i in improvements] != ["scan/items_per_second"]:
        failures.append(f"improvements: {improvements}")
    if only_old != ["gone_metric"] or only_new != ["new_metric"]:
        failures.append(f"one-sided: {only_old} / {only_new}")

    # Throughput direction: a drop in items/s must regress.
    slow = {"x": (1.0e6, "items/s")}
    fast = {"x": (0.5e6, "items/s")}
    regressions, _, _, _ = diff_metrics(slow, fast, threshold=0.10)
    if [r[0] for r in regressions] != ["x"]:
        failures.append("items/s drop not flagged as regression")

    # A baseline metric missing from the new run must fail run_diff (and
    # pass with --allow-missing). Exercised through temp files so the
    # exit-code plumbing is covered, not just diff_metrics.
    import os
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        old_path = os.path.join(tmp, "old.json")
        new_path = os.path.join(tmp, "new.json")
        with open(old_path, "w", encoding="utf-8") as f:
            json.dump([{"name": "kept", "value": 1.0, "unit": "count"},
                       {"name": "dropped", "value": 2.0, "unit": "count"}],
                      f)
        with open(new_path, "w", encoding="utf-8") as f:
            json.dump([{"name": "kept", "value": 1.0, "unit": "count"}], f)
        if run_diff(old_path, new_path, threshold=0.10) != 1:
            failures.append("missing baseline metric did not fail the diff")
        if run_diff(old_path, new_path, threshold=0.10,
                    allow_missing=True) != 0:
            failures.append("--allow-missing did not downgrade the failure")

    if failures:
        print("self-test FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("self-test OK")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json runs for regressions.")
    parser.add_argument("old", nargs="?", help="baseline BENCH_*.json")
    parser.add_argument("new", nargs="?", help="candidate BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative movement that counts as a "
                             "regression (default 0.10)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="do not fail when a baseline metric is "
                             "missing from the new run")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in comparator fixtures")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.old is None or args.new is None:
        parser.error("old and new JSON paths are required without "
                     "--self-test")
    return run_diff(args.old, args.new, args.threshold,
                    allow_missing=args.allow_missing)


if __name__ == "__main__":
    sys.exit(main())
