"""Register multiplexing: many SWMR registers over one replica set.

Covers the tentpole invariants:

* per-register isolation -- a write to register A never surfaces in
  register B's reads, and each register's sub-history satisfies its
  semantics under the spec checkers;
* Byzantine forgery on one register does not disturb sibling registers
  served by the same (partially compromised) replica set;
* the kernel runs one operation per (client, register) concurrently and
  still rejects two concurrent operations on the same register.
"""

import pytest

from repro.baselines.abd.protocol import AbdRegularProtocol
from repro.config import SystemConfig
from repro.core.regular import (CachedRegularStorageProtocol,
                                RegularStorageProtocol)
from repro.core.safe import SafeStorageProtocol
from repro.adversary.byzantine import StaleReplier, ValueForger
from repro.errors import PendingOperationError
from repro.spec.checkers import check_regularity, check_safety
from repro.system import StorageSystem
from repro.types import BOTTOM, DEFAULT_REGISTER, obj


@pytest.fixture
def config() -> SystemConfig:
    return SystemConfig.optimal(t=1, b=1, num_readers=2)


class TestRegisterIsolation:
    def test_writes_land_on_their_register_only(self, config):
        system = StorageSystem(SafeStorageProtocol(), config)
        system.write("apple", register_id="fruit")
        system.write("carrot", register_id="veg")
        assert system.read(0, register_id="fruit") == "apple"
        assert system.read(1, register_id="veg") == "carrot"
        # An untouched register still reads the initial value.
        assert system.read(0, register_id="empty") is BOTTOM

    def test_default_register_is_r0(self, config):
        system = StorageSystem(SafeStorageProtocol(), config)
        system.write("via-default")
        assert system.read(0, register_id=DEFAULT_REGISTER) == "via-default"

    def test_per_register_timestamps_are_independent(self, config):
        system = StorageSystem(RegularStorageProtocol(), config)
        for k in range(3):
            system.write(f"a{k}", register_id="a")
        system.write("b0", register_id="b")
        # Object slots advanced independently.
        automaton = system.objects[0]
        assert automaton.slots["a"].ts == 3
        assert automaton.slots["b"].ts == 1

    def test_per_register_histories_check_clean(self, config):
        system = StorageSystem(RegularStorageProtocol(), config)
        for register in ("a", "b", "c"):
            for k in range(2):
                system.write(f"{register}-{k}", register_id=register)
                system.read(0, register_id=register)
                system.read(1, register_id=register)
        history = system.history
        assert sorted(history.registers()) == ["a", "b", "c"]
        for register in history.registers():
            sub = history.for_register(register)
            assert len(sub.writes()) == 2
            check_safety(sub).assert_ok()
            check_regularity(sub).assert_ok()
            # No foreign values leaked into this register's reads.
            for read in sub.reads(complete_only=True):
                assert str(read.result).startswith(f"{register}-")

    def test_abd_baseline_multiplexes_too(self):
        config = SystemConfig.with_objects(t=1, b=0, num_objects=3)
        system = StorageSystem(AbdRegularProtocol(), config)
        system.write(1, register_id="x")
        system.write(2, register_id="y")
        assert system.read(0, register_id="x") == 1
        assert system.read(0, register_id="y") == 2


class TestByzantineIsolation:
    def test_forgery_on_one_register_leaves_siblings_regular(self, config):
        system = StorageSystem(CachedRegularStorageProtocol(), config)
        for register in ("target", "sibling1", "sibling2"):
            system.write(f"{register}-genuine", register_id=register)
        # Compromise one replica for ALL registers at once.
        pid = obj(0)
        honest = system.kernel.object_automaton(pid)
        system.kernel.make_byzantine(
            pid, ValueForger(honest, config, forged_value="$FORGED$",
                             ts_boost=10**6))
        for register in ("target", "sibling1", "sibling2"):
            assert system.read(0, register_id=register) == \
                f"{register}-genuine"
        # Writes after the compromise stay correct everywhere too.
        system.write("target-v2", register_id="target")
        assert system.read(1, register_id="target") == "target-v2"
        assert system.read(1, register_id="sibling1") == "sibling1-genuine"

    def test_stale_replier_cannot_serve_one_register_stale(self, config):
        system = StorageSystem(RegularStorageProtocol(), config)
        system.write("a1", register_id="a")
        system.write("b1", register_id="b")
        pid = obj(1)
        system.kernel.make_byzantine(
            pid, StaleReplier(system.kernel.object_automaton(pid), config))
        system.write("a2", register_id="a")
        assert system.read(0, register_id="a") == "a2"
        assert system.read(0, register_id="b") == "b1"
        sub = system.history.for_register("a")
        check_regularity(sub).assert_ok()


class TestKernelPerRegisterConcurrency:
    def test_same_client_concurrent_across_registers(self, config):
        system = StorageSystem(SafeStorageProtocol(), config)
        h1 = system.invoke_write("x", register_id="rx")
        h2 = system.invoke_write("y", register_id="ry")
        system.run_until_done(h1, h2)
        assert system.read(0, register_id="rx") == "x"
        assert system.read(0, register_id="ry") == "y"

    def test_same_register_still_exclusive(self, config):
        system = StorageSystem(SafeStorageProtocol(), config)
        system.invoke_write("x", register_id="rx")
        with pytest.raises(PendingOperationError):
            system.invoke_write("y", register_id="rx")

    def test_reader_concurrent_across_registers(self, config):
        system = StorageSystem(SafeStorageProtocol(), config)
        system.write("v-a", register_id="a")
        system.write("v-b", register_id="b")
        ha = system.invoke_read(0, register_id="a")
        hb = system.invoke_read(0, register_id="b")
        system.run_until_done(ha, hb)
        assert ha.result == "v-a"
        assert hb.result == "v-b"

    def test_concurrent_workload_many_registers_checks_clean(self, config):
        system = StorageSystem(RegularStorageProtocol(), config)
        registers = [f"k{n}" for n in range(8)]
        for round_no in range(3):
            handles = [
                system.invoke_write(f"{register}:{round_no}",
                                    register_id=register)
                for register in registers
            ]
            system.run_until_done(*handles)
            reads = [system.invoke_read(round_no % 2, register_id=register)
                     for register in registers]
            system.run_until_done(*reads)
        history = system.history
        assert len(history.registers()) == 8
        for register in registers:
            check_regularity(history.for_register(register)).assert_ok()
