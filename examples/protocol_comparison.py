#!/usr/bin/env python3
"""Side-by-side comparison of every storage protocol in the library.

For one configuration (t=2, b=1 where applicable) runs the same
write/read workload, fault-free and under the adversarial suite, and
prints measured rounds, messages and bytes per operation -- the paper's
Section 1 positioning as a table you can regenerate.

Run:  python examples/protocol_comparison.py
"""

from repro import StorageSystem, SystemConfig
from repro.adversary import adversarial_suite
from repro.baselines import (AbdRegularProtocol, AuthenticatedProtocol,
                             PassiveReaderProtocol)
from repro.core.regular import (CachedRegularStorageProtocol,
                                RegularStorageProtocol)
from repro.core.safe import SafeStorageProtocol
from repro.harness import render_table
from repro.spec import check_safety
from repro.spec.histories import READ
from repro.harness.metrics import max_rounds

T, B = 2, 1

ENTRIES = [
    ("abd-regular [3]", AbdRegularProtocol, 0),
    ("passive-reader [1]", PassiveReaderProtocol, B),
    ("authenticated [15]", AuthenticatedProtocol, B),
    ("gv-safe (Sec. 4)", SafeStorageProtocol, B),
    ("gv-regular (Sec. 5)", RegularStorageProtocol, B),
    ("gv-regular-cached (§5.1)", CachedRegularStorageProtocol, B),
]


def measure(factory, b):
    protocol = factory()
    config = SystemConfig.with_objects(
        t=T, b=b, num_objects=protocol.min_objects(T, b), num_readers=1)

    # fault-free
    system = StorageSystem(factory(), config)
    system.write("w1")
    handle = system.read_handle(0)
    ff_rounds = handle.rounds_used
    msgs = handle.operation.messages_sent
    byts = handle.operation.bytes_sent

    # adversarial worst case
    adv_rounds = ff_rounds
    for plan in adversarial_suite(config):
        system = StorageSystem(factory(), config)
        plan.apply(system)
        system.write("w1")
        system.read(0)
        system.write("w2")
        system.read(0)
        check_safety(system.history).assert_ok()
        adv_rounds = max(adv_rounds, max_rounds(system.history, READ))
    return config.num_objects, ff_rounds, adv_rounds, msgs, byts


def main() -> None:
    rows = []
    for name, factory, b in ENTRIES:
        S, ff, adv, msgs, byts = measure(factory, b)
        rows.append([name, f"{S} (b={b})", ff, adv, msgs, byts])
    print(render_table(
        ["protocol", "objects", "read rounds (benign)",
         "read rounds (attacked)", "msgs/read", "bytes/read"],
        rows,
        title=f"All protocols at t={T}; every attacked run passed the "
              "safety checker"))
    print()
    print("Takeaways (the paper's Section 1 in one table):")
    print(" * b=0 or signatures buy 1-round reads;")
    print(" * unauthenticated + Byzantine + optimal resilience costs "
          "2 rounds under attack (never more, Proposition 2), 1 when "
          "round-1 evidence decides;")
    print(" * passive readers degrade to b+1 rounds under attack;")
    print(" * the §5.1 cache trades object memory for small messages.")


if __name__ == "__main__":
    main()
