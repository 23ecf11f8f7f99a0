"""E10 -- the optimal-resilience boundary (``S = 2t + b + 1``, [17]).

Three measurements per threshold pair:

1. **guard**: the library refuses to instantiate the paper's protocols
   below ``2t + b + 1`` objects (:class:`~repro.errors.ResilienceError`);
2. **why**: a deliberately unguarded variant at ``S = 2t + b`` is broken
   by a scripted attack -- a two-faced Byzantine block acknowledges a
   write that ``t`` objects then take to the grave, leaving no correct
   evidence for readers: a completed WRITE becomes invisible, violating
   safety;
3. **tightness**: at ``S = 2t + b + 1`` (and above) the same attack is
   absorbed -- the write quorum now guarantees a correct, surviving
   witness.
"""

from __future__ import annotations

from typing import List

from ...adversary.byzantine import TwoFaced
from ...config import SystemConfig
from ...core.safe import SafeStorageProtocol
from ...errors import ResilienceError, SchedulerExhaustedError
from ...spec import check_safety
from ...system import StorageSystem
from ...types import BOTTOM, WRITER, obj
from ..tables import render_table
from .base import ExperimentResult, register

SWEEP = [(1, 1), (2, 1), (2, 2)]


class UnguardedSafeProtocol(SafeStorageProtocol):
    """The paper's safe protocol with the resilience guard removed.

    Exists purely to demonstrate the failure mode; never use it.
    """

    name = "gv-safe-UNGUARDED"

    def min_objects(self, t: int, b: int) -> int:
        return t + 1


def _stale_write_attack(t: int, b: int, num_objects: int) -> bool:
    """Run the buried-write attack; returns True iff safety was violated.

    Object layout: ``[0, b)`` two-faced Byzantine, ``[b, b+t)`` will crash
    right after acknowledging the write, the rest are honest but are held
    off the write quorum by asynchrony.
    """
    config = SystemConfig.with_objects(t=t, b=b, num_objects=num_objects,
                                       num_readers=1)
    system = StorageSystem(UnguardedSafeProtocol(), config)
    byz = list(range(b))
    crashers = list(range(b, b + t))
    honest = list(range(b + t, num_objects))

    for i in byz:
        inner = system.kernel.object_automaton(obj(i))
        system.kernel.make_byzantine(obj(i), TwoFaced(inner, config),
                                     note="two-faced (acks writes, "
                                          "serves stale reads)")
    # Asynchrony: the writer's messages to the honest tail stay in
    # transit for the whole experiment.
    held = {obj(i) for i in honest}
    system.kernel.network.hold(
        "w->honest", lambda env: env.sender == WRITER
        and env.receiver in held)

    write = system.invoke_write("buried")
    try:
        system.kernel.run_until(lambda: write.done, max_steps=100_000)
    except SchedulerExhaustedError:
        # At (or above) optimal resilience the Byzantine + doomed objects
        # alone cannot form a write quorum: the attack cannot even be
        # staged.  Release the hold, let the write complete with honest
        # witnesses, and proceed -- safety will hold.
        system.kernel.network.release("w->honest")
        system.kernel.run_until(lambda: write.done, max_steps=100_000)
    # The only non-Byzantine witnesses of the write crash now.
    for i in crashers:
        system.kernel.crash(obj(i))

    system.read(0)
    return not check_safety(system.history).ok


@register("E10")
def run() -> ExperimentResult:
    rows: List[List[object]] = []
    all_as_expected = True

    for t, b in SWEEP:
        optimal = 2 * t + b + 1
        # 1. the guard refuses S = 2t + b
        refused = False
        try:
            config = SystemConfig.with_objects(t=t, b=b,
                                               num_objects=optimal - 1)
            StorageSystem(SafeStorageProtocol(), config)
        except ResilienceError:
            refused = True
        rows.append([f"t={t},b={b}", optimal - 1, "guarded",
                     "refused (ResilienceError)" if refused else
                     "ACCEPTED (bug!)"])
        all_as_expected &= refused

        # 2. below the bound the attack lands
        violated_below = _stale_write_attack(t, b, optimal - 1)
        rows.append([f"t={t},b={b}", optimal - 1, "unguarded + attack",
                     "SAFETY VIOLATED" if violated_below else "survived"])
        all_as_expected &= violated_below

        # 3. at and above the bound the same attack is absorbed
        for S in (optimal, optimal + 2):
            violated = _stale_write_attack(t, b, S)
            rows.append([f"t={t},b={b}", S, "unguarded + attack",
                         "SAFETY VIOLATED" if violated else "survived"])
            all_as_expected &= not violated

    table = render_table(
        ["thresholds", "objects S", "mode", "outcome"],
        rows,
        title="The buried-write attack across the resilience boundary")
    return ExperimentResult(
        experiment_id="E10",
        title="Optimal resilience boundary (S = 2t+b+1, [17])",
        paper_claim=("2t+b+1 base objects are necessary and sufficient "
                     "for robust unauthenticated storage"),
        measured=("below the bound: completed writes can be buried "
                  "(stale reads); at the bound and above: the attack is "
                  f"absorbed; everything as predicted = {all_as_expected}"),
        ok=all_as_expected,
        table=table,
    )
