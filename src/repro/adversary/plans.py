"""Fault plans: declarative assignments of crashes and corruptions.

A :class:`FaultPlan` names which objects crash and which turn Byzantine
(and with what strategy), validates the assignment against the system's
``(t, b)`` budget, and applies itself to a :class:`~repro.system.
StorageSystem`.  Experiments sweep fault plans the way they sweep
schedulers: a plan is data, so the harness can enumerate the interesting
corner cases (all-crash, all-Byzantine, mixed, maximal) mechanically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import AbstractSet, Dict, List, Optional

from ..config import SystemConfig
from ..errors import ConfigurationError
from ..system import StorageSystem
from ..types import obj
from .byzantine import (GarbageByzantine, MuteByzantine, StaleReplier,
                        StrategyFactory, TsrInflater, ValueForger)


def budget_problems(config: SystemConfig, crashed: AbstractSet[int],
                    corrupted: AbstractSet[int]) -> List[str]:
    """Every way a crash/corruption assignment breaks the ``(t, b)``
    budget: out-of-range indices, an object both crashed and corrupted,
    more than ``b`` Byzantine, more than ``t`` faulty."""
    faulty = crashed | corrupted
    problems = [f"object index {i} out of range" for i in sorted(faulty)
                if not 0 <= i < config.num_objects]
    both = sorted(crashed & corrupted)
    if both:
        problems.append(f"objects {both} both crashed and corrupted")
    if len(corrupted) > config.b:
        problems.append(
            f"{len(corrupted)} corrupted objects exceed b={config.b}")
    if len(faulty) > config.t:
        problems.append(
            f"{len(faulty)} faulty objects exceed t={config.t}")
    return problems


@dataclass
class FaultPlan:
    """Which objects fail and how."""

    crash_indices: List[int] = field(default_factory=list)
    byzantine: Dict[int, StrategyFactory] = field(default_factory=dict)
    label: str = ""

    def validate(self, config: SystemConfig) -> None:
        problems = budget_problems(config, set(self.crash_indices),
                                   set(self.byzantine))
        if problems:
            raise ConfigurationError(problems[0])

    def apply(self, system: StorageSystem) -> None:
        """Install the faults into a system (before or during a run)."""
        self.validate(system.config)
        for i in self.crash_indices:
            system.kernel.crash(obj(i))
        for i, factory in self.byzantine.items():
            honest = system.kernel.object_automaton(obj(i))
            system.kernel.make_byzantine(obj(i),
                                         factory(honest, system.config))

    def describe(self) -> str:
        if self.label:
            return self.label
        parts = []
        if self.crash_indices:
            parts.append("crash " + ",".join(
                f"s{i + 1}" for i in sorted(self.crash_indices)))
        if self.byzantine:
            parts.append("byz " + ",".join(
                f"s{i + 1}" for i in sorted(self.byzantine)))
        return "; ".join(parts) or "no faults"


# ---------------------------------------------------------------------------
# Plan generators
# ---------------------------------------------------------------------------


def no_faults() -> FaultPlan:
    return FaultPlan(label="fault-free")


def max_crashes(config: SystemConfig) -> FaultPlan:
    """Crash exactly ``t`` objects (the leading ones)."""
    return FaultPlan(crash_indices=list(range(config.t)),
                     label=f"crash {config.t} objects")


def max_byzantine(config: SystemConfig,
                  strategy: Optional[StrategyFactory] = None) -> FaultPlan:
    """Corrupt ``b`` objects, crash the remaining ``t - b``."""
    strategy = strategy or ValueForger
    byz = {i: strategy for i in range(config.b)}
    crash = list(range(config.b, config.t))
    return FaultPlan(crash_indices=crash, byzantine=byz,
                     label=f"byz {config.b} + crash {config.t - config.b}")


def adversarial_suite(config: SystemConfig) -> List[FaultPlan]:
    """The canonical sweep the correctness experiments iterate over."""
    plans = [no_faults(), max_crashes(config)]
    if config.b > 0:
        for name, strategy in [
            ("mute", MuteByzantine),
            ("stale", StaleReplier),
            ("forger", ValueForger),
            ("tsr-inflater", TsrInflater),
            ("garbage", partial(GarbageByzantine, seed=7)),
        ]:
            plan = max_byzantine(config, strategy)
            plan.label = f"{plan.label} ({name})"
            plans.append(plan)
    return plans


def random_plan(config: SystemConfig, seed: int) -> FaultPlan:
    """A seeded random legal fault assignment (for fuzzing)."""
    rng = random.Random(seed)
    num_byz = rng.randint(0, config.b)
    num_crash = rng.randint(0, config.t - num_byz)
    indices = list(range(config.num_objects))
    rng.shuffle(indices)
    byz_indices = indices[:num_byz]
    crash_indices = indices[num_byz:num_byz + num_crash]
    strategies: List[StrategyFactory] = [
        MuteByzantine, StaleReplier, ValueForger, TsrInflater,
        partial(GarbageByzantine, seed=seed)
    ]
    byz = {i: rng.choice(strategies) for i in byz_indices}
    return FaultPlan(crash_indices=crash_indices, byzantine=byz,
                     label=f"random(seed={seed})")

