"""Seeded schedule exploration with shrinking.

The explorer closes the loop the tentpole promises:

1. :func:`generate_schedule` -- a random walk over a scenario's allowed
   fault kinds, driven entirely by ``derive_seed(seed, ...)`` streams,
   so one integer names the whole schedule;
2. :func:`explore` -- run a seed range, gate every run on the
   scenario's checker suite, collect failures;
3. :func:`shrink` -- ddmin-style delta debugging over the failing
   schedule's event list (plus per-event simplification), preserving
   the *same* checker violation, until the reproducer is minimal;
4. :func:`save_reproducer` / :func:`replay_reproducer` -- a JSON file
   that replays to the identical verdict, fingerprint and all.

Shrinking is deterministic delta debugging rather than generic
hypothesis shrinking: a chaos run's input is the structured
``(seed, events)`` pair, and ddmin over the event tuple (the seed is
never shrunk -- it pins the RNG streams) gives 1-minimal reproducers
with a bounded, replayable number of candidate runs.  The hypothesis
toolbox still backs the *property* side of the test suite.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Set, Tuple)

from ..adversary import spec_of
from ..seeds import derive_seed
from ..types import reader, writer
from .harness import ChaosScenario, ChaosVerdict, get_scenario, run_chaos
from .schedule import FaultEvent, FaultSchedule, format_pid


# ---------------------------------------------------------------------------
# Schedule generation
# ---------------------------------------------------------------------------


def generate_schedule(scenario: ChaosScenario, seed: int) -> FaultSchedule:
    """A seeded random fault schedule legal for ``scenario``'s budget."""
    rng = random.Random(derive_seed(seed, "generate", scenario.name))
    # The budget comes from a throwaway system build; building is cheap
    # and keeps the generator honest about the scenario's real config.
    system = scenario.build(seed)
    t, b = system.config.t, system.config.b
    num_objects = system.config.num_objects
    num_readers = system.config.num_readers
    num_writers = system.config.num_writers
    registers = system.registers()
    del system
    writer_names = [format_pid(writer(k)) for k in range(num_writers)]
    reader_names = [format_pid(reader(j)) for j in range(num_readers)]

    events: List[FaultEvent] = []
    crashed: Set[int] = set()
    corrupted: Set[int] = set()
    count = rng.randint(1, scenario.max_events)
    for index in range(count):
        kind = rng.choice(scenario.event_kinds)
        at = rng.randrange(0, scenario.event_window)
        params: Dict[str, Any] = {}
        if kind == "partition":
            victim = rng.randrange(num_objects)
            group: List[str] = [f"s{victim + 1}"]
            if rng.random() < 0.4:
                group.append(rng.choice(reader_names))
            # The majority side lists *everyone* else -- objects AND
            # clients.  Unlisted processes bypass the cut entirely, so a
            # groups list of objects alone would never stop a writer
            # reaching the victim.
            rest = ([f"s{i + 1}" for i in range(num_objects)]
                    + writer_names + reader_names)
            rest = [name for name in rest if name not in group]
            params = {"groups": [group, rest],
                      "tag": f"chaos-cut-{index}"}
            events.append(FaultEvent(at, "partition", params))
            # Always schedule the matching heal: unbounded asynchrony is
            # legal but drowns the signal (nothing completes, nothing is
            # checked).  The run-end drain heals leftovers anyway.
            events.append(FaultEvent(
                at + rng.randrange(10, scenario.event_window),
                "heal", {"tag": params["tag"]}))
            continue
        if kind == "crash":
            candidates = [i for i in range(num_objects)
                          if i not in crashed and i not in corrupted]
            if not candidates or len(crashed | corrupted) >= t:
                continue
            target = rng.choice(candidates)
            crashed.add(target)
            events.append(FaultEvent(at, "crash", {"object": target}))
            if rng.random() < 0.5:
                events.append(FaultEvent(
                    at + rng.randrange(5, 60), "restore",
                    {"object": target}))
            continue
        if kind == "restore":
            if not crashed:
                continue
            target = rng.choice(sorted(crashed))
            events.append(FaultEvent(at, "restore", {"object": target}))
            continue
        if kind == "corrupt":
            candidates = [i for i in range(num_objects)
                          if i not in crashed and i not in corrupted]
            if (not candidates or len(corrupted) >= b
                    or len(crashed | corrupted) >= t):
                continue
            target = rng.choice(candidates)
            corrupted.add(target)
            strategy: Any = rng.choice(scenario.strategies)
            if rng.random() < 0.3:
                # Wrap in a combinator: time-varying or intermittent.
                if rng.random() < 0.5:
                    strategy = spec_of("after-step",
                                       after=rng.randrange(2, 20),
                                       strategy=strategy)
                else:
                    strategy = spec_of("probabilistic",
                                       p=round(rng.uniform(0.2, 0.9), 2),
                                       strategy=strategy)
            params = {"object": target, "strategy": strategy}
            events.append(FaultEvent(at, "corrupt", params))
            continue
        if kind == "delay":
            if rng.random() < 0.5:
                params = {"model": "uniform", "low": 0.0,
                          "high": round(rng.uniform(0.5, 3.0), 3)}
            else:
                params = {"model": "exponential", "base": 0.1,
                          "mean": round(rng.uniform(0.5, 2.0), 3)}
            events.append(FaultEvent(at, "delay", params))
            continue
        if kind == "gray":
            target = rng.randrange(num_objects)
            params = {"objects": [target],
                      "slow": round(rng.uniform(5.0, 40.0), 2),
                      "fast": 1.0}
            events.append(FaultEvent(at, "gray", params))
            continue
        if kind == "clock_skew":
            params = {"delta": round(rng.uniform(0.5, 25.0), 3)}
            events.append(FaultEvent(at, "clock_skew", params))
            continue
        if kind == "epoch_skew":
            params = {"register": rng.choice(registers or ["r0"]),
                      "epoch": rng.randint(1, 40),
                      "writer_index": 0}
            events.append(FaultEvent(at, "epoch_skew", params))
            continue
        if kind == "drop":
            if not corrupted:
                continue
            target = rng.choice(sorted(corrupted))
            events.append(FaultEvent(at, "drop", {"object": target}))
            continue
    return FaultSchedule(seed=seed, events=tuple(events),
                         scenario=scenario.name)


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


@dataclass
class ExploreReport:
    """Outcome of sweeping a seed range over one scenario."""

    scenario: str
    seeds: List[int]
    verdicts: Dict[int, ChaosVerdict] = field(default_factory=dict)
    schedules: Dict[int, FaultSchedule] = field(default_factory=dict)

    @property
    def failures(self) -> List[ChaosVerdict]:
        return [self.verdicts[seed] for seed in self.seeds
                if seed in self.verdicts and not self.verdicts[seed].ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def first_failure(self) -> Optional[Tuple[FaultSchedule, ChaosVerdict]]:
        for seed in self.seeds:
            verdict = self.verdicts.get(seed)
            if verdict is not None and not verdict.ok:
                return self.schedules[seed], verdict
        return None

    def summary(self) -> str:
        ran = len(self.verdicts)
        bad = len(self.failures)
        status = "OK" if not bad else f"{bad} FAILING SEED(S)"
        return f"{self.scenario}: {ran} run(s), {status}"


def run_seed(scenario: ChaosScenario,
             seed: int) -> Tuple[FaultSchedule, ChaosVerdict]:
    schedule = generate_schedule(scenario, seed)
    return schedule, run_chaos(scenario, schedule)


def explore(scenario: ChaosScenario, seeds: Iterable[int],
            stop_at_first_failure: bool = False) -> ExploreReport:
    """Sweep ``seeds``; every run is gated on the scenario's checkers."""
    report = ExploreReport(scenario=scenario.name, seeds=list(seeds))
    for seed in report.seeds:
        schedule, verdict = run_seed(scenario, seed)
        report.schedules[seed] = schedule
        report.verdicts[seed] = verdict
        if not verdict.ok and stop_at_first_failure:
            break
    return report


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


@dataclass
class ShrinkResult:
    """A minimized failing schedule plus the evidence trail."""

    schedule: FaultSchedule
    verdict: ChaosVerdict
    runs: int
    original_events: int

    def summary(self) -> str:
        return (f"shrunk {self.original_events} -> "
                f"{len(self.schedule.events)} event(s) in {self.runs} "
                f"run(s); still fails "
                f"{', '.join(self.verdict.failing_properties())}")


def _still_fails(scenario: ChaosScenario, schedule: FaultSchedule,
                 properties: Set[str]) -> Optional[ChaosVerdict]:
    """The shrink oracle: does this candidate fail the *same* checker?"""
    verdict = run_chaos(scenario, schedule)
    if verdict.ok:
        return None
    if properties and not (properties & set(verdict.failing_properties())):
        return None
    return verdict


def shrink(scenario: ChaosScenario, schedule: FaultSchedule,
           verdict: Optional[ChaosVerdict] = None,
           max_runs: int = 200) -> ShrinkResult:
    """ddmin over the event list: a 1-minimal reproducer of the failure.

    Every deleted subset that still triggers the original checker
    violation is accepted; the loop ends when no single event can be
    removed (1-minimality) or the run budget is spent.  A second pass
    simplifies surviving events (unwrap strategy combinators) under the
    same oracle.
    """
    if verdict is None:
        verdict = run_chaos(scenario, schedule)
    if verdict.ok:
        raise ValueError("shrink() needs a failing (scenario, schedule)")
    properties = set(verdict.failing_properties())
    events = list(schedule.events)
    original = len(events)
    best = verdict
    runs = 0

    chunk = max(1, len(events) // 2)
    while events and runs < max_runs:
        chunk = min(chunk, len(events))
        reduced = False
        start = 0
        while start < len(events) and runs < max_runs:
            trial = events[:start] + events[start + chunk:]
            candidate = schedule.replace_events(trial)
            runs += 1
            outcome = _still_fails(scenario, candidate, properties)
            if outcome is not None:
                # Keep the deletion; the next chunk shifted into place,
                # so retry at the same offset.
                events = trial
                best = outcome
                reduced = True
            else:
                start += chunk
        if not reduced:
            if chunk == 1:
                break  # 1-minimal: no single event can go.
            chunk = max(1, chunk // 2)

    for index, event in enumerate(list(events)):
        if runs >= max_runs:
            break
        simplified = _simplify_event(event)
        if simplified is None:
            continue
        trial = list(events)
        trial[index] = simplified
        runs += 1
        outcome = _still_fails(scenario, schedule.replace_events(trial),
                               properties)
        if outcome is not None:
            events = trial
            best = outcome

    return ShrinkResult(schedule=schedule.replace_events(events),
                        verdict=best, runs=runs, original_events=original)


def _simplify_event(event: FaultEvent) -> Optional[FaultEvent]:
    """One structural simplification, or None if already minimal."""
    if event.kind == "corrupt":
        strategy = event.params.get("strategy")
        if isinstance(strategy, Mapping):
            inner = strategy.get("params", {}).get("strategy")
            if inner is not None:
                params = dict(event.params)
                params["strategy"] = inner
                return FaultEvent(event.at_step, event.kind, params)
    return None


# ---------------------------------------------------------------------------
# Reproducers
# ---------------------------------------------------------------------------

REPRODUCER_VERSION = 1


def reproducer_dict(schedule: FaultSchedule,
                    verdict: ChaosVerdict) -> Dict[str, Any]:
    return {
        "version": REPRODUCER_VERSION,
        "scenario": schedule.scenario,
        "schedule": schedule.to_dict(),
        "expected": {
            "failing_properties": verdict.failing_properties(),
            "fingerprint": verdict.fingerprint,
            "violations": verdict.violations(),
        },
    }


def save_reproducer(path: str, schedule: FaultSchedule,
                    verdict: ChaosVerdict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reproducer_dict(schedule, verdict), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")


def load_reproducer(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def replay_reproducer(data: Mapping[str, Any]) -> ChaosVerdict:
    """Re-run a saved reproducer through the named scenario."""
    schedule = FaultSchedule.from_dict(data["schedule"])
    scenario = get_scenario(str(data["scenario"]))
    return run_chaos(scenario, schedule)


__all__ = [
    "ExploreReport",
    "ShrinkResult",
    "explore",
    "generate_schedule",
    "load_reproducer",
    "replay_reproducer",
    "reproducer_dict",
    "run_seed",
    "save_reproducer",
    "shrink",
]
