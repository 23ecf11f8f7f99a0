"""``python -m repro.chaos`` -- the chaos smoke matrix.

CI runs a fixed seed matrix over the named scenarios on every PR::

    python -m repro.chaos --seeds 8 --artifact chaos-failures.json

Any failing seed is shrunk to a minimal reproducer and written to the
artifact path (one JSON document with every reproducer), and the
process exits non-zero.  Replay a saved reproducer with::

    python -m repro.chaos --replay chaos-failures.json

which exits non-zero unless every reproducer again fails one of the
properties it records as expected.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from .explorer import explore, reproducer_dict, replay_reproducer, shrink
from .harness import SCENARIOS, get_scenario
from .reconfig_chaos import CRASH_DURING_RECONFIG, run_crash_during_reconfig


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="seeded chaos smoke matrix over the named scenarios")
    parser.add_argument("--scenarios", nargs="*",
                        default=sorted(SCENARIOS) + [CRASH_DURING_RECONFIG],
                        help="scenario names (default: all named scenarios)")
    parser.add_argument("--seeds", type=int, default=8,
                        help="number of seeds per scenario (default: 8)")
    parser.add_argument("--seed-base", type=int, default=0,
                        help="first seed of the range (default: 0)")
    parser.add_argument("--artifact", default=None,
                        help="write shrunk reproducers for failures here")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimizing them")
    parser.add_argument("--replay", default=None, metavar="FILE",
                        help="replay reproducers from FILE instead of "
                             "exploring")
    return parser


def _replay_file(path: str) -> int:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    reproducers = data if isinstance(data, list) else [data]
    reproduced = 0
    for entry in reproducers:
        verdict = replay_reproducer(entry)
        expected = set(entry.get("expected", {}).get(
            "failing_properties", []))
        got = set(verdict.failing_properties())
        if expected & got or (not expected and not verdict.ok):
            reproduced += 1
            print(f"{verdict.summary()}  [reproduced]")
        else:
            print(f"{verdict.summary()}  [DID NOT REPRODUCE]")
    return 0 if reproduced == len(reproducers) else 1


def main(argv: List[str] = None) -> int:
    args = _parser().parse_args(argv)
    if args.replay:
        return _replay_file(args.replay)

    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    artifacts = []
    exit_code = 0
    for name in args.scenarios:
        if name == CRASH_DURING_RECONFIG:
            # Service tier: seed-per-run, no schedule to shrink.
            for seed in seeds:
                verdict = run_crash_during_reconfig(seed)
                status = "OK" if verdict.ok else "FAIL"
                print(f"{CRASH_DURING_RECONFIG} seed={seed}: {status} "
                      f"(killed replica {verdict.counters['kill_replica']} "
                      f"at stage {verdict.counters['kill_stage']!r}, "
                      f"{verdict.counters['keys_moved']} key(s) migrated)")
                if not verdict.ok:
                    exit_code = 1
                    for line in verdict.violations():
                        print(f"  {line}")
            continue
        scenario = get_scenario(name)
        report = explore(scenario, seeds)
        print(report.summary())
        for seed in report.seeds:
            verdict = report.verdicts.get(seed)
            if verdict is None or verdict.ok:
                continue
            exit_code = 1
            schedule = report.schedules[seed]
            if args.no_shrink:
                artifacts.append(reproducer_dict(schedule, verdict))
                print(f"  seed {seed}: {verdict.summary()}")
                continue
            result = shrink(scenario, schedule, verdict)
            artifacts.append(reproducer_dict(result.schedule,
                                             result.verdict))
            print(f"  seed {seed}: {result.summary()}")
            for line in result.verdict.violations():
                print(f"    {line}")

    if artifacts and args.artifact:
        with open(args.artifact, "w", encoding="utf-8") as handle:
            json.dump(artifacts, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(artifacts)} reproducer(s) to {args.artifact}")
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
