"""Soak/integration tests: long mixed workloads across every protocol.

Each soak run is a miniature deployment: many operations, multiple
readers, mid-run fault injection, and a final audit by the strongest
checker the protocol claims to satisfy.
"""

import pytest

from repro.adversary import StaleReplier, max_byzantine
from repro.baselines import (AbdAtomicProtocol, AbdRegularProtocol,
                             AuthenticatedProtocol, PassiveReaderProtocol)
from repro.config import SystemConfig
from repro.core.atomic import AtomicStorageProtocol
from repro.core.regular import (CachedRegularStorageProtocol,
                                RegularStorageProtocol)
from repro.core.safe import SafeStorageProtocol
from repro.harness import WorkloadSpec, run_concurrent
from repro.sim import RandomScheduler
from repro.spec import (check_atomicity, check_regularity, check_safety,
                        check_wait_freedom)
from repro.system import StorageSystem

CHECKERS = {
    "safe": check_safety,
    "regular": check_regularity,
    "atomic": check_atomicity,
}

SOAK_MATRIX = [
    (SafeStorageProtocol, 1),
    (RegularStorageProtocol, 1),
    (CachedRegularStorageProtocol, 1),
    (AtomicStorageProtocol, 1),
    (PassiveReaderProtocol, 1),
    (AuthenticatedProtocol, 1),
]


@pytest.mark.parametrize("factory,b", SOAK_MATRIX)
def test_soak_concurrent_with_midrun_corruption(factory, b):
    protocol = factory()
    config = SystemConfig.with_objects(
        t=2, b=b, num_objects=protocol.min_objects(2, b), num_readers=3)
    system = StorageSystem(factory(), config,
                           scheduler=RandomScheduler(271),
                           trace_enabled=False)
    # Phase 1: clean concurrent traffic.
    run_concurrent(system, WorkloadSpec(num_writes=8, reads_per_reader=6,
                                        seed=11))
    # Phase 2: corrupt the full Byzantine budget and keep going.
    max_byzantine(config).apply(system)
    run_concurrent(system, WorkloadSpec(num_writes=8, reads_per_reader=6,
                                        seed=12))
    history = system.history
    check_wait_freedom(history).assert_ok()
    CHECKERS[protocol.semantics](history).assert_ok()
    assert len(history.writes()) == 16
    assert len(history.reads()) == 36


def test_soak_crash_storm_sequence():
    """Crash objects one by one up to t while traffic continues."""
    config = SystemConfig.optimal(t=3, b=1, num_readers=2)
    system = StorageSystem(SafeStorageProtocol(), config,
                           scheduler=RandomScheduler(5),
                           trace_enabled=False)
    crashed = 0
    for k in range(1, 8):
        system.write(f"v{k}")
        assert system.read(k % 2) == f"v{k}"
        if k % 2 == 0 and crashed < config.t:
            system.crash_object(crashed)
            crashed += 1
    check_safety(system.history).assert_ok()


def test_soak_many_seeds_quick():
    """Breadth over depth: 20 seeds x small concurrent workloads."""
    config = SystemConfig.optimal(t=1, b=1, num_readers=2)
    for seed in range(20):
        system = StorageSystem(RegularStorageProtocol(), config,
                               scheduler=RandomScheduler(seed),
                               trace_enabled=False)
        if seed % 3 == 0:
            max_byzantine(config, StaleReplier).apply(system)
        run_concurrent(system, WorkloadSpec(num_writes=3,
                                            reads_per_reader=3, seed=seed))
        check_regularity(system.history).assert_ok()


def test_soak_abd_crash_only():
    config = SystemConfig.with_objects(t=2, b=0, num_objects=5,
                                       num_readers=2)
    system = StorageSystem(AbdAtomicProtocol(), config,
                           scheduler=RandomScheduler(33),
                           trace_enabled=False)
    run_concurrent(system, WorkloadSpec(num_writes=10, reads_per_reader=8,
                                        seed=3))
    system.crash_object(0)
    system.crash_object(4)
    run_concurrent(system, WorkloadSpec(num_writes=5, reads_per_reader=4,
                                        seed=4))
    check_atomicity(system.history).assert_ok()


def test_soak_long_history_regular_vs_cached_agree():
    """200 writes; both regular flavours must agree on every readback."""
    config = SystemConfig.optimal(t=1, b=1, num_readers=1)
    full = StorageSystem(RegularStorageProtocol(), config,
                         trace_enabled=False)
    cached = StorageSystem(CachedRegularStorageProtocol(), config,
                           trace_enabled=False)
    for k in range(1, 201):
        full.write(f"v{k}")
        cached.write(f"v{k}")
        if k % 25 == 0:
            assert full.read(0) == cached.read(0) == f"v{k}"
