"""The serving benchmark's one command.

    python3 benchmarks/perf/run.py --workload mixed_inproc --seed 1

prints every end-to-end metric by name with its unit, an environment
stamp, and -- as the last line of stdout -- one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
runs the traced variant and reports the per-layer metrics instead.  See
README.md in this directory for what each number means and why the run
is shaped the way it is.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf benchmark: {ROOT / 'src' / 'repro'} not found -- the "
             f"benchmark measures the repro package of its own checkout")
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import perf_layers as layers  # noqa: E402  (needs the sys.path set-up above)
import perf_spans as sp  # noqa: E402
from perf_trial import (END_TO_END, TrialResult, one_cpu,  # noqa: E402
                        run_trial, summarize)
from perf_workloads import WORKLOADS, Plan, Workload, make_plan  # noqa: E402

DEFAULT_SECONDS = 28
#: never report quartiles over fewer timed trials than this, however
#: slow the machine.
MIN_TRIALS = 5
#: seconds the traced run keeps back for the isolation benches.
ISOLATION_RESERVE_S = 2.5
PLAIN, HISTORY, SPANS = "plain", "history", "spans"


class Run:
    """All trials of one invocation, and what they add up to."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.plan: Plan = make_plan(workload, seed)
        self.work_dir = work_dir
        self.trials: Dict[str, List[TrialResult]] = {
            PLAIN: [], HISTORY: [], SPANS: []}
        self.attempted = 0
        self.failed = 0
        self.first_failure: Optional[str] = None
        self.recorder = sp.SpanRecorder()
        self._count = 0

    def trial(self, kind: str = PLAIN, keep: bool = True) -> float:
        """Run one trial; returns its wall time."""
        start = perf_counter()
        self._count += 1
        data_dir = str(self.work_dir / f"trial-{self._count}")
        if kind == SPANS:
            self.recorder.reset()
            with sp.instrumented(self.recorder):
                result = asyncio.run(run_trial(
                    self.workload, self.plan, data_dir, self.recorder))
        else:
            result = asyncio.run(run_trial(
                self.workload, self.plan, data_dir,
                record_history=kind == HISTORY))
        self.attempted += result.attempted
        self.failed += result.failed
        if self.first_failure is None:
            self.first_failure = result.first_failure
        if keep:
            print(f"# trial {self._count:3d} {kind:7s} " + " ".join(
                f"{name}={value:.5g}"
                for name, value in result.metrics().items()))
            if self.trials[kind]:  # one history is enough to check
                self.trials[kind][-1].history = None
            self.trials[kind].append(result)
        return perf_counter() - start

    def run_trials(self, seconds: float, kinds: Sequence[str],
                   smoke: bool) -> None:
        """One discarded warm-up trial, then rounds of ``kinds`` until the
        next round would overrun ``seconds`` (smoke: one round, no
        warm-up)."""
        started = perf_counter()
        if not smoke:
            self.trial(keep=False)
        longest_round = 0.0
        rounds = 0
        while True:
            longest_round = max(longest_round,
                                sum(self.trial(kind) for kind in kinds))
            rounds += 1
            if smoke or (rounds * len(kinds) >= MIN_TRIALS
                         and perf_counter() - started + longest_round
                         > seconds):
                return


def run_end_to_end(run: Run, args: argparse.Namespace
                   ) -> Dict[str, Tuple[float, str]]:
    run.run_trials(args.seconds, [PLAIN], args.smoke)
    stats = summarize(run.trials[PLAIN])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stats["peak_rss_mb"] = {"value": rss_mb, "median": rss_mb,
                            "iqr_frac": 0.0}
    print(f"{'metric':18s} {'value':>12s} {'unit':8s} "
          f"{'trial median':>12s} {'trial IQR':>9s}")
    for name, unit, _, _ in END_TO_END:
        print(f"{name:18s} {stats[name]['value']:12.6g} {unit:8s} "
              f"{stats[name]['median']:12.6g} "
              f"{100 * stats[name]['iqr_frac']:8.2f}%")
    return {name: (stats[name]["value"], unit)
            for name, unit, _, _ in END_TO_END}


def run_traced(run: Run, args: argparse.Namespace
               ) -> Dict[str, Tuple[float, str]]:
    workload, plan, recorder = run.workload, run.plan, run.recorder
    run.run_trials(args.seconds - ISOLATION_RESERVE_S,
                   [PLAIN, HISTORY, SPANS], args.smoke)
    solo_key_ops = sum(len(keys) for _, keys in plan.solo)
    puts = sum(len(keys) for kind, keys in plan.solo if kind == "put")
    values = layers.layer_metrics(workload, plan, run.trials, recorder)
    values |= layers.codec_bench(recorder.corpus, solo_key_ops)
    values |= layers.wal_bench(recorder.corpus, puts,
                               str(run.work_dir / "wal-bench"))
    values |= asyncio.run(layers.tcp_bench(workload, plan))
    values |= layers.checker_bench(workload,
                                   run.trials[HISTORY][-1].history)
    args.spans_out.parent.mkdir(parents=True, exist_ok=True)
    sp.dump(str(args.spans_out), recorder.spans,
            [kind for kind, _ in plan.solo],
            {"workload": workload.name, "seed": run.seed,
             "phase": "solo", "clock": "perf_counter seconds"})
    for name, unit, _ in layers.PER_LAYER:
        print(f"{name:46s} {values[name]:14.6g} {unit}")
    return {name: (values[name], unit)
            for name, unit, _ in layers.PER_LAYER}


# -- reporting -----------------------------------------------------------------

def _git_commit() -> str:
    """HEAD's commit id, read from .git without starting a process."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def environment(load_start: Tuple[float, ...], trials: int, cpu: int
                ) -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "pinned_to_cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "injected_delay_s": 0,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "timed_trials": trials,
    }


def result_line(run: Run, metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def measure(args: argparse.Namespace, workload: Workload, work_dir: Path
            ) -> Tuple[Run, Dict[str, Tuple[float, str]]]:
    """One full run; prints the human-readable report."""
    load_start = os.getloadavg()
    run = Run(workload, args.seed, work_dir)
    print(f"# {workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# why: {workload.why}")
    with one_cpu() as cpu:
        metrics = (run_traced if args.trace else run_end_to_end)(run, args)
    timed = sum(len(trials) for trials in run.trials.values())
    print(f"# attempted={run.attempted} failed={run.failed}"
          + (f" first failure: {run.first_failure}" if run.failed else ""))
    print("# env: " + json.dumps(environment(load_start, timed, cpu)))
    return run, metrics


def repeat_check(args: argparse.Namespace, workload: Workload,
                 work_dir: Path) -> Tuple[Run, Dict[str, Tuple[float, str]]]:
    """Two runs back to back must agree within the benchmark's bounds."""
    (_, first), (run, second) = (measure(args, workload, work_dir)
                                 for _ in range(2))
    for name, _, better, bound in END_TO_END:
        a, b = first[name][0], second[name][0]
        worse = (a - b) / a if better == "higher" else (b - a) / a
        exact = name == "msgs_per_op"
        ok = a == b if exact else abs(worse) <= bound
        print(f"# repeat-check {name:18s} {a:12.6g} -> {b:12.6g} "
              f"({100 * worse:+.2f}% worse, "
              f"{'must be identical' if exact else f'bound {bound:.0%}'}) "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            run.failed += 1
            run.first_failure = run.first_failure or f"repeat-check {name}"
    return run, second


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="time budget; sets the number of trials")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: traced run, per-layer "
                        "metrics instead of end-to-end ones")
    parser.add_argument("--spans-out", type=Path, default=None,
                        help="where the traced run writes its spans "
                        "(default: .perfbench_out/ under the working "
                        "directory)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, fixed trial count (tests)")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run twice; exit non-zero if the two runs "
                        "disagree by more than the bounds")
    return parser.parse_args(argv)


def _reap_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it.

    ``spawn`` starts one helper process that otherwise outlives this
    one by a moment; the benchmark must leave no process behind.
    """
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    if args.trace and args.spans_out is None:
        args.spans_out = (Path.cwd() / ".perfbench_out"
                          / f"spans-{workload.name}-seed{args.seed}.json")
    work_dir = (Path.cwd() / ".perfbench_work"
                / f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        run, metrics = (repeat_check if args.repeat_check else measure)(
            args, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()  # unless another run is using it
        _reap_resource_tracker()
    print(result_line(run, metrics))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    # String hashing feeds set/dict iteration order somewhere in every
    # layer; pin it so equal seeds replay equal work.  exec keeps one
    # process (the replica children inherit the environment).
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
