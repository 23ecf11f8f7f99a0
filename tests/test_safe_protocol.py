"""Integration tests for the safe storage (Figures 2-4, Proposition 2).

These are the executable form of Theorem 1 (safety), Theorem 2 /
Lemmas 1-3 (wait-freedom) and Proposition 2 (2-round complexity).
"""

import pytest

from repro.adversary import adversarial_suite, max_byzantine
from repro.adversary.byzantine import AckFlooder, Equivocator, TsrInflater
from repro.config import SystemConfig
from repro.core.safe import SafeStorageProtocol
from repro.errors import ProtocolError, ResilienceError
from repro.sim import FifoScheduler, LifoScheduler, RandomScheduler
from repro.spec import (check_round_complexity, check_safety,
                        check_wait_freedom)
from repro.system import StorageSystem
from repro.types import BOTTOM, obj


def make_system(t=2, b=1, readers=2, scheduler=None):
    config = SystemConfig.optimal(t=t, b=b, num_readers=readers)
    return StorageSystem(SafeStorageProtocol(), config, scheduler=scheduler)


class TestSequentialSemantics:
    def test_initial_read_returns_bottom(self):
        system = make_system()
        assert system.read(0) is BOTTOM

    def test_read_your_write(self):
        system = make_system()
        system.write("v1")
        assert system.read(0) == "v1"
        assert system.read(1) == "v1"

    def test_reads_see_latest_write(self):
        system = make_system()
        for k in range(1, 6):
            system.write(f"v{k}")
            assert system.read(k % 2) == f"v{k}"

    def test_repeated_reads_without_writes(self):
        system = make_system()
        system.write("x")
        assert [system.read(0) for _ in range(3)] == ["x", "x", "x"]

    def test_write_returns_ok(self):
        system = make_system()
        assert system.write("v").result == "OK"

    def test_bottom_not_writable(self):
        system = make_system()
        with pytest.raises(ProtocolError):
            system.write(BOTTOM)


class TestRoundComplexity:
    def test_write_is_two_rounds(self):
        system = make_system()
        assert system.write("v").rounds_used == 2

    def test_read_takes_round_two_only_when_forced(self):
        """Uncontended, round-1 evidence decides and no round 2 is sent;
        a forged high candidate (neither safe nor eliminated after one
        quorum) forces the second round, which still returns the write."""
        system = make_system()
        system.write("v")
        assert system.read_handle(0).rounds_used == 1
        config = SystemConfig.optimal(t=2, b=1, num_readers=2)
        system = StorageSystem(SafeStorageProtocol(), config)
        max_byzantine(config).apply(system)
        system.write("v")
        handle = system.read_handle(0)
        assert handle.rounds_used == 2 and handle.result == "v"

    def test_rounds_invariant_under_faults(self):
        config = SystemConfig.optimal(t=2, b=1, num_readers=2)
        for plan in adversarial_suite(config):
            system = StorageSystem(SafeStorageProtocol(), config)
            plan.apply(system)
            system.write("a")
            system.read(0)
            system.write("b")
            system.read(1)
            check_round_complexity(system.history, max_read_rounds=2,
                                   max_write_rounds=2).assert_ok()


class TestResilienceGuard:
    def test_rejects_below_optimal(self):
        config = SystemConfig.with_objects(t=2, b=1, num_objects=5)
        with pytest.raises(ResilienceError):
            StorageSystem(SafeStorageProtocol(), config)

    def test_accepts_above_optimal(self):
        config = SystemConfig.with_objects(t=1, b=1, num_objects=6)
        system = StorageSystem(SafeStorageProtocol(), config)
        system.write("v")
        assert system.read(0) == "v"


class TestFaultTolerance:
    @pytest.mark.parametrize("seed", range(4))
    def test_safety_under_adversarial_suite(self, seed):
        config = SystemConfig.optimal(t=2, b=1, num_readers=2)
        for plan in adversarial_suite(config):
            system = StorageSystem(SafeStorageProtocol(), config,
                                   scheduler=RandomScheduler(seed))
            plan.apply(system)
            system.write("a")
            system.read(0)
            system.write("b")
            system.read(1)
            check_safety(system.history).assert_ok()

    def test_max_crashes_mid_run(self):
        system = make_system(t=2, b=1)
        system.write("before")
        system.crash_object(0)
        system.crash_object(3)
        system.write("after")
        assert system.read(0) == "after"

    def test_equivocating_object(self):
        config = SystemConfig.optimal(t=2, b=1, num_readers=2)
        system = StorageSystem(SafeStorageProtocol(), config)
        inner = system.kernel.object_automaton(obj(0))
        system.kernel.make_byzantine(obj(0), Equivocator(inner, config))
        system.write("v1")
        assert system.read(0) == "v1"  # even reader: honest state
        assert system.read(1) == "v1"  # odd reader: stale state absorbed

    def test_ack_flooding_does_not_fake_confirmations(self):
        config = SystemConfig.optimal(t=2, b=1, num_readers=1)
        system = StorageSystem(SafeStorageProtocol(), config)
        inner = system.kernel.object_automaton(obj(0))
        system.kernel.make_byzantine(obj(0),
                                     AckFlooder(inner, config, copies=5))
        system.write("real")
        assert system.read(0) == "real"

    def test_tsr_inflation_cannot_block_round1(self):
        """Lemma 2: a Byzantine accuser cannot starve the first round."""
        config = SystemConfig.optimal(t=2, b=1, num_readers=1)
        system = StorageSystem(SafeStorageProtocol(), config)
        max_byzantine(config, TsrInflater).apply(system)
        system.write("v1")
        handle = system.read_handle(0)
        assert handle.done and handle.result == "v1"

    def test_wait_freedom_with_reader_crash(self):
        system = make_system()
        read = system.invoke_read(0)
        system.crash_reader(0)
        # the other clients must still make progress
        system.write("v")
        assert system.read(1) == "v"
        result = check_wait_freedom(system.history,
                                    crashed_clients={read.operation.client_id})
        result.assert_ok()

    def test_writer_crash_mid_write_leaves_readers_live(self):
        system = make_system()
        system.write("complete")
        handle = system.invoke_write("partial")
        # deliver only a few steps of the write, then crash the writer
        for _ in range(3):
            system.kernel.step()
        system.crash_writer()
        value = system.read(0)
        # a partially applied write is concurrent "forever": any of the
        # two values is legal, but the read must terminate.
        assert value in ("complete", "partial") or value is BOTTOM
        del handle


class TestConcurrency:
    @pytest.mark.parametrize("scheduler_factory", [
        FifoScheduler, LifoScheduler, lambda: RandomScheduler(5)])
    def test_read_concurrent_with_write_terminates(self, scheduler_factory):
        system = make_system(scheduler=scheduler_factory())
        system.write("v1")
        write = system.invoke_write("v2")
        read = system.invoke_read(0)
        system.run_until_done(write, read)
        assert read.result in ("v1", "v2") or read.result is BOTTOM
        check_safety(system.history).assert_ok()

    def test_two_readers_concurrent(self):
        system = make_system()
        system.write("v1")
        r0 = system.invoke_read(0)
        r1 = system.invoke_read(1)
        system.run_until_done(r0, r1)
        assert r0.result == r1.result == "v1"

    def test_sequential_reads_by_same_reader_reuse_state(self):
        system = make_system()
        system.write("v")
        system.read(0)
        tsr_after_first = system.reader_states[0].tsr
        assert tsr_after_first == 1
        system.read(0)
        # One READ1 timestamp per read that decides in round 1.
        assert system.reader_states[0].tsr == tsr_after_first + 1
