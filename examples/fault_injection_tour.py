#!/usr/bin/env python3
"""A guided tour of the Byzantine behaviour library.

Runs the paper's safe storage against each corruption strategy in
:mod:`repro.adversary`, explains what the strategy tries to achieve, and
shows the protocol mechanism that absorbs it.  Finishes below optimal
resilience, where the same machinery demonstrates a real safety
violation (the reason the S >= 2t+b+1 guard exists).

Run:  python examples/fault_injection_tour.py
"""

from functools import partial

from repro import StorageSystem, SystemConfig
from repro.adversary import (GarbageByzantine, MuteByzantine, StaleReplier,
                             TsrInflater, ValueForger, max_byzantine)
from repro.core.safe import SafeStorageProtocol
from repro.harness.experiments.e10_resilience import _stale_write_attack
from repro.spec import check_safety

TOUR = [
    (MuteByzantine, "mute",
     "stays silent; indistinguishable from a crash. Absorbed because "
     "every wait condition needs only S-t responders."),
    (StaleReplier, "stale replier",
     "pretends the write never happened. Absorbed because b+1 matching "
     "confirmations are required and at most b objects can lie."),
    (ValueForger, "value forger",
     "invents a high-timestamp value. Absorbed for the same reason: a "
     "never-written tuple gathers at most b supporters, so safe(c) "
     "never holds for it, and t+b+1 honest denials eliminate it."),
    (TsrInflater, "tsr inflater",
     "accuses honest objects of reporting future reader timestamps, "
     "trying to wedge round 1. Absorbed by the conflict predicate: the "
     "reader routes around accuser/accused pairs (Lemma 1/2)."),
    (partial(GarbageByzantine, seed=3), "random garbage",
     "emits arbitrary well-typed junk. Absorbed by all of the above in "
     "combination."),
]


def main() -> None:
    config = SystemConfig.optimal(t=2, b=1, num_readers=1)
    print(f"target: the Section 4 safe storage, {config.describe()}\n")

    for strategy, name, story in TOUR:
        system = StorageSystem(SafeStorageProtocol(), config)
        plan = max_byzantine(config, strategy)
        plan.apply(system)
        system.write("v1")
        r1 = system.read_handle(0)
        system.write("v2")
        r2 = system.read_handle(0)
        check_safety(system.history).assert_ok()
        print(f"[{name}]")
        print(f"  {story}")
        print(f"  reads returned {r1.result!r}, {r2.result!r} in "
              f"{r1.rounds_used} and {r2.rounds_used} rounds -- safety "
              "checker: OK\n")

    print("-" * 72)
    print("And below optimal resilience (S = 2t+b), the two-faced "
          "strategy buries a completed write:")
    violated = _stale_write_attack(t=2, b=1, num_objects=5)
    print(f"  S=5, t=2, b=1: safety violated = {violated}")
    print("  (the same attack at S=6 is absorbed -- run experiment E10)")


if __name__ == "__main__":
    main()
