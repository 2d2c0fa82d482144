#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results, A (the parent) and B.

    python3 benchmarks/e2e/compare.py RESULTS_A RESULTS_B

Each argument is a directory (searched recursively) or a file of
``*.result.json`` records written by ``run.py --out``; only untraced runs
count.  Run both sides with identical settings and alternate them, A
then B then A..., so that pairs matched in run order saw the same host.

For every workload and end-to-end metric in ``BENCHMARK.json`` it prints
each side's median and quartiles, the change of the medians, how many
pairs B won (ties count for neither side) and a verdict:

* ``better``: at least 10 pairs, B wins at least 9 in 10 of them, and the
  medians differ by more than A's inter-quartile range;
* ``worse``: B's median is worse than A's by more than the metric's bound;
* ``unresolved``: either side's inter-quartile range, as a share of its
  median, is wider than the bound, and not every run of B reads better
  than every run of A;
* ``unchanged``: none of the above.

The exit status is 1 when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> dict:
    """``{workload: [record, ...]}`` of untraced runs, in the order the
    runs finished writing them."""
    files = [path]
    if path.is_dir():
        files = sorted(path.rglob("*.result.json"), key=lambda f: f.stat().st_mtime_ns)
    runs = defaultdict(list)
    for file in files:
        record = json.loads(file.read_text())
        if not record["trace"]:
            runs[record["workload"]].append(record)
    return runs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list, b: list, bound: float, lower_is_better: bool) -> dict:
    sign = 1.0 if lower_is_better else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    worse_by = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and worse_by < 0
        and abs(b_med - a_med) > a_q3 - a_q1
    ):
        word = "better"
    elif worse_by > bound:
        word = "worse"
    elif spread > bound and not all_better:
        word = "unresolved"
    else:
        word = "unchanged"
    return {
        "a": (a_q1, a_med, a_q3),
        "b": (b_q1, b_med, b_q3),
        "change": (b_med - a_med) / a_med,
        "wins": wins,
        "pairs": len(pairs),
        "verdict": word,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="baseline results (file or directory)")
    parser.add_argument("b", type=Path, help="candidate results (file or directory)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs_a, runs_b = load(args.a), load(args.b)
    flagged = 0
    print(
        f"{'workload':14s} {'metric':18s} {'A median [q1, q3]':>32s} "
        f"{'B median [q1, q3]':>32s} {'change':>8s} {'wins':>7s}  verdict"
    )
    for workload in [w["name"] for w in spec["workloads"]]:
        if not runs_a.get(workload) or not runs_b.get(workload):
            print(f"{workload:14s} (no runs on one side)")
            flagged += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a[workload]]
            b = [r["metrics"][name]["value"] for r in runs_b[workload]]
            v = verdict(a, b, metric["bound"], metric["better"] == "lower")
            flagged += v["verdict"] in ("worse", "unresolved")
            fmt = "{1:.5g} [{0:.5g}, {2:.5g}]"
            print(
                f"{workload:14s} {name:18s} {fmt.format(*v['a']):>32s} "
                f"{fmt.format(*v['b']):>32s} {v['change'] * 100:+7.2f}% "
                f"{v['wins']:>3d}/{v['pairs']:<3d}  {v['verdict']}"
            )
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
