"""The chaos harness: run a scenario under a fault schedule, gate on
the full checker suite, and report a structured verdict.

A :class:`ChaosScenario` is the *fixed* half of a run -- protocol,
configuration, client workload, checkers, and the generator knobs the
explorer uses.  A :class:`~repro.chaos.schedule.FaultSchedule` is the
*variable* half.  :func:`run_chaos` marries the two deterministically:
the scenario builds its system from the schedule's master seed (so the
delivery scheduler and every strategy RNG derive from it), the injector
fires events at step boundaries, and the verdict carries checker
results, fault counters, and the post-run state fingerprint that
certifies two runs were bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..core.atomic import AtomicStorageProtocol
from ..core.regular import CachedRegularStorageProtocol
from ..core.safe import SafeStorageProtocol
from ..errors import SimulationError
from ..protocols import StorageProtocol
from ..seeds import derive_seed
from ..sim.kernel import OperationHandle
from ..sim.schedulers import RandomScheduler
from ..spec import checkers
from ..spec.checkers import CheckResult
from ..spec.explore import _fingerprint
from ..system import StorageSystem
from ..types import DEFAULT_REGISTER, reset_operation_ids
from .inject import FaultInjector
from .schedule import FaultSchedule

#: One checker: History -> CheckResult.
Checker = Callable[..., CheckResult]


@dataclass(frozen=True)
class WorkloadOp:
    """One scripted client operation, issued at a kernel step count."""

    at_step: int
    kind: str  # "write" | "read"
    client_index: int = 0
    value: Any = None
    register: str = DEFAULT_REGISTER


@dataclass(frozen=True)
class ChaosScenario:
    """The fixed half of a chaos run (the schedule is the variable half).

    ``build`` maps the schedule's master seed to a fresh
    ``StorageSystem`` -- it must thread the seed into every random
    component (use :func:`~repro.seeds.derive_seed`).  The
    remaining generator knobs bound what the explorer may inject.
    """

    name: str
    description: str
    build: Callable[[int], StorageSystem]
    workload: Tuple[WorkloadOp, ...]
    checkers: Tuple[Checker, ...]
    horizon: int = 4000
    #: Fault kinds the schedule generator may draw for this scenario.
    event_kinds: Tuple[str, ...] = ("partition", "crash", "restore",
                                    "corrupt", "delay", "gray",
                                    "clock_skew", "drop")
    #: Strategy names the generator may pick for ``corrupt`` events.
    strategies: Tuple[str, ...] = ("silent", "stale", "forger",
                                   "equivocation", "random-noise")
    max_events: int = 6
    #: Steps window inside which generated events land.
    event_window: int = 120


@dataclass
class CheckOutcome:
    """One checker's verdict, JSON-friendly."""

    property_name: str
    ok: bool
    checked_reads: int
    violations: List[str] = field(default_factory=list)

    @classmethod
    def of(cls, result: CheckResult) -> "CheckOutcome":
        return cls(property_name=result.property_name, ok=result.ok,
                   checked_reads=result.checked_reads,
                   violations=list(result.violations))

    def to_dict(self) -> Dict[str, Any]:
        return {"property": self.property_name, "ok": self.ok,
                "checked_reads": self.checked_reads,
                "violations": self.violations}


@dataclass
class ChaosVerdict:
    """Everything one chaos run established."""

    scenario: str
    seed: int
    ok: bool
    checks: List[CheckOutcome]
    counters: Dict[str, Any]
    fingerprint: str
    steps: int
    truncated: bool

    def violations(self) -> List[str]:
        return [f"{check.property_name}: {violation}"
                for check in self.checks if not check.ok
                for violation in check.violations]

    def failing_properties(self) -> List[str]:
        return sorted(check.property_name for check in self.checks
                      if not check.ok)

    def summary(self) -> str:
        status = "OK" if self.ok else (
            f"FAIL[{', '.join(self.failing_properties())}]")
        extra = " (truncated)" if self.truncated else ""
        return (f"{self.scenario} seed={self.seed}: {status} "
                f"after {self.steps} steps{extra}, "
                f"{self.counters.get('events_applied', 0)} faults applied")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "checks": [check.to_dict() for check in self.checks],
            "counters": self.counters,
            "fingerprint": self.fingerprint,
            "steps": self.steps,
            "truncated": self.truncated,
        }


def run_chaos(scenario: ChaosScenario,
              schedule: FaultSchedule) -> ChaosVerdict:
    """One deterministic chaos run: workload × fault schedule × checkers."""
    # Operation ids double as nonces inside automaton state; restart the
    # stream so the run's fingerprint depends only on (seed, schedule),
    # not on how many operations this process ran before.
    reset_operation_ids()
    system = scenario.build(schedule.seed)
    kernel = system.kernel
    injector = FaultInjector(system, schedule)
    pending_ops: List[WorkloadOp] = sorted(
        scenario.workload, key=lambda op: op.at_step)
    handles: List[OperationHandle] = []
    truncated = False

    def invoke(op: WorkloadOp) -> bool:
        client_busy = any(
            not handle.done
            and handle.operation.client_id.is_writer == (op.kind == "write")
            and handle.operation.client_id.index == op.client_index
            and getattr(handle.operation, "register_id",
                        DEFAULT_REGISTER) == op.register
            for handle in handles)
        if client_busy:
            return False
        if op.kind == "write":
            handles.append(system.invoke_write(
                op.value, register_id=op.register,
                writer_index=op.client_index))
        else:
            handles.append(system.invoke_read(
                reader_index=op.client_index, register_id=op.register))
        return True

    def invoke_due(step: int, force: bool) -> bool:
        progressed = False
        remaining: List[WorkloadOp] = []
        for op in pending_ops:
            if (force or op.at_step <= step) and invoke(op):
                progressed = True
            else:
                remaining.append(op)
        pending_ops[:] = remaining
        return progressed

    while True:
        step = kernel.steps_taken
        injector.apply_due(step)
        invoke_due(step, force=False)
        if step >= scenario.horizon:
            truncated = True
            break
        if (not pending_ops and not injector.pending()
                and all(handle.done for handle in handles)):
            break
        if not kernel.step():
            # Quiescent early: skip time forward to the next workload op
            # or fault event; as a last resort heal every cut so held
            # traffic drains.  Each arm is deterministic.
            if invoke_due(step, force=True):
                continue
            if injector.apply_next():
                continue
            if injector.heal_all():
                continue
            break

    injector.heal_all()
    try:
        kernel.run_to_quiescence(max_steps=scenario.horizon)
    except SimulationError:
        truncated = True

    outcomes = [CheckOutcome.of(checker(system.history))
                for checker in scenario.checkers]
    if not truncated:
        # Liveness only counts once the run drained: a horizon cut-off
        # leaves operations legitimately in flight.
        outcomes.append(CheckOutcome.of(
            checkers.check_wait_freedom(system.history)))
    counters = injector.counters()
    counters.update({
        "messages_sent": kernel.network.total_sent,
        "messages_delivered": kernel.network.total_delivered,
    })
    return ChaosVerdict(
        scenario=scenario.name,
        seed=schedule.seed,
        ok=all(outcome.ok for outcome in outcomes),
        checks=outcomes,
        counters=counters,
        fingerprint=_fingerprint(system).hex(),
        steps=kernel.steps_taken,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# Named scenarios
# ---------------------------------------------------------------------------


def _seeded_system(protocol: StorageProtocol, config: SystemConfig,
                   seed: int) -> StorageSystem:
    """The canonical scenario builder: scheduler seeded from the master."""
    return StorageSystem(
        protocol, config,
        scheduler=RandomScheduler(seed=derive_seed(seed, "scheduler")))


def _swmr_regular() -> ChaosScenario:
    config = SystemConfig.optimal(t=1, b=1, num_readers=2)
    return ChaosScenario(
        name="swmr-regular",
        description="single writer, two readers, cached regular protocol",
        build=lambda seed: _seeded_system(
            CachedRegularStorageProtocol(), config, seed),
        workload=(
            WorkloadOp(0, "write", 0, "v0"),
            WorkloadOp(5, "read", 0),
            WorkloadOp(8, "read", 1),
            WorkloadOp(14, "write", 0, "v1"),
            WorkloadOp(20, "read", 0),
            WorkloadOp(26, "write", 0, "v2"),
            WorkloadOp(32, "read", 1),
        ),
        checkers=(checkers.check_safety, checkers.check_regularity),
    )


def _mwmr_atomic() -> ChaosScenario:
    config = SystemConfig.optimal(t=1, b=1, num_readers=2, num_writers=2)
    return ChaosScenario(
        name="mwmr-atomic",
        description="two writers racing tags, atomic protocol",
        build=lambda seed: _seeded_system(
            AtomicStorageProtocol(), config, seed),
        workload=(
            WorkloadOp(0, "write", 0, "a1"),
            WorkloadOp(2, "write", 1, "b1"),
            WorkloadOp(12, "read", 0),
            WorkloadOp(18, "write", 0, "a2"),
            WorkloadOp(24, "read", 1),
            WorkloadOp(30, "write", 1, "b2"),
            WorkloadOp(38, "read", 0),
        ),
        checkers=(checkers.check_mwmr_regularity,
                  checkers.check_mwmr_atomicity),
        event_kinds=("partition", "crash", "restore", "corrupt", "delay",
                     "gray", "clock_skew", "epoch_skew", "drop"),
        strategies=("silent", "stale", "stale-tag", "random-noise",
                    "after-step", "probabilistic"),
    )


def _safe_under_forgery() -> ChaosScenario:
    config = SystemConfig.optimal(t=1, b=1, num_readers=2)
    return ChaosScenario(
        name="safe-under-forgery",
        description="safe protocol against fabrication-heavy strategies",
        build=lambda seed: _seeded_system(
            SafeStorageProtocol(), config, seed),
        workload=(
            WorkloadOp(0, "write", 0, "v0"),
            WorkloadOp(8, "read", 0),
            WorkloadOp(16, "write", 0, "v1"),
            WorkloadOp(24, "read", 1),
        ),
        checkers=(checkers.check_safety,),
        strategies=("forger", "ack-flooder", "delay-then-forge",
                    "bad-aggregator", "two-faced", "random-noise"),
    )


#: The named scenarios the CLI and CI smoke matrix iterate over.
SCENARIOS: Dict[str, Callable[[], ChaosScenario]] = {
    "swmr-regular": _swmr_regular,
    "mwmr-atomic": _mwmr_atomic,
    "safe-under-forgery": _safe_under_forgery,
}


def get_scenario(name: str) -> ChaosScenario:
    try:
        return SCENARIOS[name]()
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: "
            f"{', '.join(sorted(SCENARIOS))}") from None


__all__ = [
    "ChaosScenario",
    "ChaosVerdict",
    "CheckOutcome",
    "Checker",
    "SCENARIOS",
    "WorkloadOp",
    "get_scenario",
    "run_chaos",
]
