#!/usr/bin/env python3
"""Quickstart: an optimally resilient Byzantine-tolerant register.

Creates the paper's safe storage over S = 2t+b+1 = 6 simulated base
objects (t = 2 may fail, b = 1 of those arbitrarily), writes and reads
with two readers, crashes the budgeted objects, corrupts one, and checks
the run against the formal safety specification.

Run:  python examples/quickstart.py
"""

from repro import SafeStorageProtocol, StorageSystem, SystemConfig
from repro.adversary import build_strategy, max_byzantine, spec_of
from repro.spec import check_round_complexity, check_safety


def main() -> None:
    config = SystemConfig.optimal(t=2, b=1, num_readers=2)
    print(f"system: {config.describe()}")

    system = StorageSystem(SafeStorageProtocol(), config)

    # 1. plain write/read -------------------------------------------------
    system.write("genesis")
    print(f"r1 reads: {system.read(0)!r}")
    print(f"r2 reads: {system.read(1)!r}")

    # 2. crash the crash budget -------------------------------------------
    system.crash_object(0)
    system.write("after-one-crash")
    print(f"after crashing s1, r1 reads: {system.read(0)!r}")

    # 3. corrupt a Byzantine object ---------------------------------------
    plan = max_byzantine(config, build_strategy(
        spec_of("forger", forged_value="FORGED", ts_boost=10**6)))
    fresh = StorageSystem(SafeStorageProtocol(), config)
    plan.apply(fresh)
    fresh.write("the-truth")
    value = fresh.read(0)
    print(f"with {plan.describe()}: r1 reads {value!r} "
          "(the forged high-timestamp value was filtered)")
    assert value == "the-truth"

    # 4. every run is checkable against the formal spec --------------------
    check_safety(fresh.history).assert_ok()
    check_round_complexity(fresh.history, max_read_rounds=2,
                           max_write_rounds=2).assert_ok()
    print("safety + 2-round complexity verified against the history ✓")

    # 5. rounds and messages are first-class metrics -----------------------
    sent = fresh.kernel.metrics()["messages_sent"]
    handle = fresh.read_handle(1)
    sent = fresh.kernel.metrics()["messages_sent"] - sent
    print(f"a READ used {handle.rounds_used} round-trips and "
          f"{sent} messages (requests and replies)")


if __name__ == "__main__":
    main()
