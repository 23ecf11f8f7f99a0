"""E7 -- the Section 1 comparison: where the paper sits among its peers.

One row per protocol family: resilience requirement, *measured* worst-case
rounds (fault-free and under the adversarial suite), semantics,
authentication, and whether readers write.  This is the paper's prose
comparison turned into a measured table:

* ABD [3]            -- b = 0 only, 1-round everything;
* passive reader [1] -- optimal resilience, reads degrade with b;
* authenticated [15] -- optimal resilience, 1-round, needs signatures;
* gv-safe / gv-regular (this paper) -- optimal resilience,
  unauthenticated, 2-round worst case: fault-free reads decide on round-1
  evidence (1 round), and the adversarial suite forces the second round.
"""

from __future__ import annotations

from typing import List, Tuple

from ...adversary import adversarial_suite
from ...baselines import (AbdRegularProtocol, AuthenticatedProtocol,
                          PassiveReaderProtocol)
from ...config import SystemConfig
from ...core.regular import RegularStorageProtocol
from ...core.safe import SafeStorageProtocol
from ...sim import RandomScheduler
from ...spec import check_safety
from ...spec.histories import READ, WRITE
from ...system import StorageSystem
from ..metrics import max_rounds
from ..tables import render_table
from .base import ExperimentResult, register

T, B = 2, 1


def _measure(protocol_factory, config: SystemConfig) -> Tuple[int, int, int]:
    """(fault-free read rounds, adversarial max read rounds, write rounds)."""
    system = StorageSystem(protocol_factory(), config)
    system.write("a")
    system.read(0)
    system.write("b")
    system.read(0)
    ff_read = max_rounds(system.history, READ)
    write_rounds = max_rounds(system.history, WRITE)

    adv_read = ff_read
    for plan in adversarial_suite(config):
        system = StorageSystem(protocol_factory(), config,
                               scheduler=RandomScheduler(3))
        plan.apply(system)
        system.write("a")
        system.read(0)
        system.write("b")
        system.read(0)
        assert check_safety(system.history).ok
        adv_read = max(adv_read, max_rounds(system.history, READ))
        write_rounds = max(write_rounds, max_rounds(system.history, WRITE))
    return ff_read, adv_read, write_rounds


@register("E7")
def run() -> ExperimentResult:
    rows: List[List[object]] = []
    entries = [
        ("abd-regular [3]", AbdRegularProtocol,
         SystemConfig.with_objects(t=T, b=0, num_objects=2 * T + 1),
         "2t+1 (b=0!)", "regular", False, False),
        ("passive-reader [1]", PassiveReaderProtocol,
         SystemConfig.optimal(t=T, b=B), "2t+b+1", "safe", False, False),
        ("authenticated [15]", AuthenticatedProtocol,
         SystemConfig.optimal(t=T, b=B), "2t+b+1", "regular", True, False),
        ("gv-safe (paper)", SafeStorageProtocol,
         SystemConfig.optimal(t=T, b=B), "2t+b+1", "safe", False, True),
        ("gv-regular (paper)", RegularStorageProtocol,
         SystemConfig.optimal(t=T, b=B), "2t+b+1", "regular", False, True),
    ]
    measured = {}
    for name, factory, config, resilience, semantics, auth, rw in entries:
        ff, adv, wr = _measure(factory, config)
        measured[name] = (ff, adv, wr)
        rows.append([name, resilience, semantics,
                     "yes" if auth else "no",
                     "yes" if rw else "no",
                     wr, ff, adv])

    gv = [measured["gv-safe (paper)"], measured["gv-regular (paper)"]]
    # The claims that make the paper's point:
    shape_ok = (
        all(m[1] == 2 for m in gv)                     # 2-round worst case
        and measured["authenticated [15]"][1] == 1     # auth kills the bound
        and measured["abd-regular [3]"][1] == 1        # b=0 kills the bound
        and measured["passive-reader [1]"][1] >= B + 1  # passivity costs b+1
    )

    table = render_table(
        ["protocol", "resilience S", "semantics", "auth", "readers write",
         "W rounds", "R rounds (fault-free)", "R rounds (adversarial)"],
        rows,
        title=f"Measured at t={T}, b={B} (baselines at their own "
              "requirements)")
    return ExperimentResult(
        experiment_id="E7",
        title="Comparison with prior approaches (Section 1)",
        paper_claim=("unauthenticated optimally-resilient reads cost 2 "
                     "rounds in the worst case; passive readers pay b+1; "
                     "authentication or b=0 buy 1-round reads"),
        measured=(f"gv protocols: {max(m[0] for m in gv)}-round reads "
                  f"fault-free, {max(m[1] for m in gv)}-round worst case "
                  "under attack; "
                  f"passive reader hit {measured['passive-reader [1]'][1]} "
                  f"rounds (b+1={B + 1}); authenticated and crash-only "
                  "stayed at 1"),
        ok=shape_ok,
        table=table,
        data={"measured": measured},
    )
