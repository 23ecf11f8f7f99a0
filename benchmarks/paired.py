#!/usr/bin/env python3
"""Paired parent/change runs of the serving benchmark, with the verdict.

    python3 benchmarks/paired.py --parent /root/scratch/parent \\
        --change /root/scratch/change --workload mixed_inproc --pairs 10

runs ``benchmarks/perf/run.py`` (each checkout's own copy, from that
checkout's root) ``--pairs`` times on each side, alternating which side
goes first, one seed per pair, and prints for every end-to-end metric of
``BENCHMARK.json``: each side's median and quartiles, how many pairs the
change won, and the verdict --

* **gain**: the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  distance between the parent's own quartiles;
* **regression**: the change's median is worse than the parent's by more
  than the metric's bound;
* **unresolved**: the parent's own quartiles are further apart than the
  bound, so neither of the above can be told;
* **same** otherwise.

Compare two *sibling clones* (``git clone`` / ``git archive`` into one
scratch directory), never the working tree against a clone: the same
commit run from ``/root/repo`` and from a copy at another path differed
by ~10 % on ``mixed_multiproc`` solo p50 (0.67 vs 0.74 ms, 6 of 6
runs), which is most of a bound.  The tool warns when the two
directories do not share a parent directory.

The exit code is 0 unless a run fails, reports failed operations, or a
metric regresses.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Sequence, Tuple

SIDES = ("parent", "change")


def run_once(checkout: str, workload: str, seed: int,
             seconds: float) -> Dict[str, Any]:
    """One benchmark run in ``checkout``; the parsed last stdout line."""
    done = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "perf", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run.py failed in {checkout} (exit "
                         f"{done.returncode}) on {workload} seed {seed}")
    return json.loads(lines[-1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(metric: Dict[str, Any], parent: Sequence[float],
          change: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, wins and verdict for one end-to-end metric."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    gap = sign * (c_med - p_med)  # > 0: the change is better
    if wins >= 0.9 * len(parent) and gap > iqr:
        verdict = "gain"
    elif p_med and -gap / abs(p_med) > metric["bound"]:
        verdict = "regression"
    elif p_med and iqr / abs(p_med) > metric["bound"]:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "wins": wins, "losses": losses, "verdict": verdict,
            "ratio": c_med / p_med if p_med else float("nan")}


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change (a sibling clone)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    if len({os.path.dirname(path) for path in checkouts.values()}) != 1:
        print("# WARNING: the two checkouts are not siblings; path "
              "effects alone moved solo p50 by ~10 % (see --help)")
    with open(os.path.join(checkouts["parent"], "BENCHMARK.json"),
              encoding="utf-8") as fh:
        declared = json.load(fh)
    seconds = args.seconds or declared["run_seconds"]

    workload = args.workload
    failed = False
    values: Dict[str, Dict[str, List[float]]] = {
        side: {m["name"]: [] for m in declared["end_to_end"]}
        for side in SIDES}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], workload,
                              args.seed + pair, seconds)
            if result["failed"] or not result["correct"]:
                print(f"# {side}: {result['failed']} of "
                      f"{result['attempted']} operations failed "
                      f"(pair {pair})")
                failed = True
            for name, column in values[side].items():
                column.append(result["metrics"][name]["value"])
        print(f"# {workload} pair {pair + 1}/{args.pairs} "
              f"(seed {args.seed + pair}, {order[0]} first): ops_per_s "
              + " vs ".join(f"{side} {values[side]['ops_per_s'][-1]:.0f}"
                            for side in SIDES), flush=True)
    print(f"\n{workload}: {args.pairs} pairs, {seconds:g} s per run; "
          f"q1 / median / q3")
    for metric in declared["end_to_end"]:
        name = metric["name"]
        row = judge(metric, values["parent"][name], values["change"][name])
        failed = failed or row["verdict"] == "regression"
        print(f"  {name:16s} "
              + "  ".join(
                  f"{side} " + " / ".join(f"{v:.5g}" for v in row[side])
                  for side in SIDES)
              + f"  x{row['ratio']:.3f}  wins {row['wins']}"
                f"-{row['losses']}  {row['verdict']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
