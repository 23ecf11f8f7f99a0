"""Declarative fault schedules.

A :class:`FaultSchedule` is a seeded list of :class:`FaultEvent`\\ s,
each applied when the deterministic kernel reaches a given *step count*
(steps, not wall time: the simulation is a discrete-event machine, so
"step 37" names the same instant in every run with the same seed).

Schedules are plain data with a stable JSON form, which is what makes
shrinking and replay possible: the explorer serializes a failing
schedule, ddmin deletes events from the JSON-equivalent structure, and
the reproducer file replays bit-identically later.

Event kinds and their params (the schedule DSL):

========== ===========================================================
kind       params
========== ===========================================================
partition  ``groups``: list of lists of pids (``"s1"``, ``"r2"``,
           ``"w"``); unlisted processes talk to everyone.
heal       ``tag`` of a prior partition, or omitted = heal all.
crash      ``object``: index of the object to crash.
restore    ``object``: crashed object resumes; ``amnesia: true``
           restarts it from a fresh automaton (lost volatile state)
           and counts it against the Byzantine budget.
corrupt    ``object`` + ``strategy``: a strategy spec
           (:mod:`repro.adversary`).
delay      ``model``: ``uniform``/``exponential``/``zero`` with their
           parameters; swaps the kernel's delay model (reorders
           in-flight tails deterministically via derived seeds).
gray       ``objects`` + ``slow``/``fast``: gray failure -- the named
           objects answer, but late (``SlowProcessDelay``).
clock_skew ``delta``: jump the virtual clock forward.
epoch_skew ``register``/``writer_index``/``epoch``: bump a writer's
           timestamp floor, modelling an epoch counter that ran ahead
           (e.g. restored from a stale snapshot elsewhere).
drop       ``object``: drop in-transit traffic to/from a Byzantine
           object (the kernel refuses to drop honest-only traffic).
========== ===========================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..adversary import budget_problems
from ..config import SystemConfig
from ..errors import ConfigurationError
from ..types import ProcessId, obj, reader, writer

#: Every kind the injector understands, in canonical order.
EVENT_KINDS: Tuple[str, ...] = (
    "partition", "heal", "crash", "restore", "corrupt", "delay", "gray",
    "clock_skew", "epoch_skew", "drop",
)


def format_pid(pid: ProcessId) -> str:
    """The schedule-DSL name of a process (its repr: ``s1``/``r2``/``w``)."""
    return repr(pid)


def parse_pid(text: str) -> ProcessId:
    """Inverse of :func:`format_pid`."""
    if text == "w":
        return writer(0)
    prefix, digits = text[:1], text[1:]
    if prefix in ("s", "r", "w") and digits.isdigit() and int(digits) >= 1:
        index = int(digits) - 1
        if prefix == "s":
            return obj(index)
        if prefix == "r":
            return reader(index)
        return writer(index)
    raise ConfigurationError(f"cannot parse process id {text!r}")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, applied at a deterministic kernel step."""

    at_step: int
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: "
                f"{', '.join(EVENT_KINDS)}")
        if self.at_step < 0:
            raise ConfigurationError(f"negative at_step: {self.at_step}")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"at_step": self.at_step, "kind": self.kind}
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultEvent":
        return cls(at_step=int(data["at_step"]), kind=str(data["kind"]),
                   params=dict(data.get("params", {})))

    def describe(self) -> str:
        inside = ", ".join(f"{k}={v!r}" for k, v in sorted(
            self.params.items()))
        return f"@{self.at_step} {self.kind}({inside})"


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded, ordered fault script for one run.

    ``seed`` is the master seed: the scenario derives its scheduler,
    delay-model, and strategy RNGs from it, so the schedule fully
    determines the run.
    """

    seed: int
    events: Tuple[FaultEvent, ...] = ()
    scenario: str = ""

    def __post_init__(self) -> None:
        # Store events sorted by step (stable on insertion order within a
        # step) so injection order never depends on construction order.
        ordered = tuple(sorted(self.events, key=lambda e: e.at_step))
        object.__setattr__(self, "events", ordered)

    def describe(self) -> str:
        head = f"schedule(seed={self.seed}, scenario={self.scenario!r})"
        if not self.events:
            return head + " [no events]"
        return head + "\n  " + "\n  ".join(e.describe() for e in self.events)

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "scenario": self.scenario,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSchedule":
        return cls(
            seed=int(data["seed"]),
            scenario=str(data.get("scenario", "")),
            events=tuple(FaultEvent.from_dict(e)
                         for e in data.get("events", [])),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))

    # -- derived views ----------------------------------------------------
    def replace_events(self, events: Sequence[FaultEvent]) -> "FaultSchedule":
        return FaultSchedule(seed=self.seed, events=tuple(events),
                             scenario=self.scenario)


def validate_schedule(schedule: FaultSchedule,
                      config: SystemConfig) -> List[str]:
    """Static legality check against the ``(t, b)`` budget.

    Returns human-readable problems instead of raising: the injector
    *skips* illegal events at run time (shrinking may produce schedules
    whose prefix consumed the budget differently), but generators use
    this to avoid emitting them in the first place.
    """
    crashed: set = set()
    corrupted: set = set()
    for event in schedule.events:
        kind, params = event.kind, event.params
        if kind == "crash":
            crashed.add(int(params.get("object", -1)))
        elif kind == "corrupt":
            corrupted.add(int(params.get("object", -1)))
        elif kind == "restore" and params.get("amnesia"):
            # Amnesiac restart re-enters as an unknown-state replica:
            # count it like a corruption.
            corrupted.add(int(params.get("object", -1)))
        elif kind == "partition":
            for group in params.get("groups", []):
                for pid in group:
                    parse_pid(str(pid))
    return budget_problems(config, crashed, corrupted)


__all__ = [
    "EVENT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "format_pid",
    "parse_pid",
    "validate_schedule",
]
