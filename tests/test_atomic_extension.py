"""Tests for the atomic (write-back) extension."""

import pytest

from repro.adversary import adversarial_suite, random_plan
from repro.config import SystemConfig
from repro.core.atomic import (AtomicObject, AtomicStorageProtocol,
                               WriteBack, WriteBackAck)
from repro.harness import WorkloadSpec, run_concurrent
from repro.sim import RandomScheduler
from repro.spec import check_atomicity, check_round_complexity
from repro.system import StorageSystem
from repro.types import (BOTTOM, TimestampValue, TsrArray, WriteTuple, obj,
                         reader, WRITER)


def make_tuple(config, ts, value="v"):
    return WriteTuple(TimestampValue(ts, value),
                      TsrArray.empty(config.num_objects,
                                     config.num_readers))


@pytest.fixture
def config():
    return SystemConfig.optimal(t=1, b=1, num_readers=2)


class TestAtomicObject:
    def test_write_back_fills_empty_slot(self, config):
        object_ = AtomicObject(0, config)
        c = make_tuple(config, 3, "wb")
        [(receiver, ack)] = object_.on_message(
            reader(0), WriteBack(c=c, nonce=1, reader_index=0))
        assert isinstance(ack, WriteBackAck)
        assert object_.history[3, 0].w == c

    def test_write_back_completes_incomplete_slot(self, config):
        from repro.messages import Pw
        object_ = AtomicObject(0, config)
        c = make_tuple(config, 1, "v1")
        # PW leaves slot 1 provisional (w=None)
        object_.on_message(WRITER, Pw(1, c.tsval, object_.history[0, 0].w))
        assert object_.history[1, 0].w is None
        object_.on_message(reader(0), WriteBack(c=c, nonce=1,
                                                reader_index=0))
        assert object_.history[1, 0].w == c

    def test_write_back_never_overwrites_complete_slot(self, config):
        from repro.messages import W
        object_ = AtomicObject(0, config)
        genuine = make_tuple(config, 1, "genuine")
        object_.on_message(WRITER, W(1, genuine.tsval, genuine))
        impostor = make_tuple(config, 1, "impostor")
        replies = object_.on_message(
            reader(0), WriteBack(c=impostor, nonce=1, reader_index=0))
        assert len(replies) == 1  # still acked
        assert object_.history[1, 0].w == genuine

    def test_write_back_from_non_client_ignored(self, config):
        """Clients are trusted (the control plane installs from a writer
        identity); another object's write-back is not."""
        object_ = AtomicObject(0, config)
        c = make_tuple(config, 3)
        assert object_.on_message(obj(1),
                                  WriteBack(c=c, nonce=1,
                                            reader_index=0)) == []
        [(_, ack)] = object_.on_message(WRITER,
                                        WriteBack(c=c, nonce=1,
                                                  reader_index=0))
        assert isinstance(ack, WriteBackAck)


class TestAtomicReads:
    def test_read_takes_two_rounds(self, config):
        """Round 1 decides, so the read goes straight to write-back."""
        system = StorageSystem(AtomicStorageProtocol(), config)
        system.write("v1")
        handle = system.read_handle(0)
        assert handle.result == "v1"
        assert handle.rounds_used == 2

    def test_initial_read_skips_write_back(self, config):
        system = StorageSystem(AtomicStorageProtocol(), config)
        handle = system.read_handle(0)
        assert handle.result is BOTTOM
        assert handle.rounds_used == 1  # round 1 decides; no write-back for w0

    def test_round_bound_holds_under_faults(self):
        config = SystemConfig.optimal(t=2, b=1, num_readers=2)
        for plan in adversarial_suite(config):
            system = StorageSystem(AtomicStorageProtocol(), config)
            plan.apply(system)
            system.write("a")
            system.read(0)
            system.write("b")
            system.read(1)
            check_round_complexity(system.history, max_read_rounds=3,
                                   max_write_rounds=2).assert_ok()
            check_atomicity(system.history).assert_ok()

    @pytest.mark.parametrize("seed", range(8))
    def test_atomicity_under_concurrent_fuzz(self, seed):
        config = SystemConfig.optimal(t=2, b=1, num_readers=2)
        system = StorageSystem(AtomicStorageProtocol(), config,
                               scheduler=RandomScheduler(seed),
                               trace_enabled=False)
        random_plan(config, seed).apply(system)
        run_concurrent(system, WorkloadSpec(num_writes=5,
                                            reads_per_reader=5, seed=seed))
        check_atomicity(system.history).assert_ok()

    def test_write_back_helps_subsequent_reader(self, config):
        """After r1 returns v under a straggling write, r2 must not see
        anything older -- the written-back evidence guarantees it."""
        system = StorageSystem(AtomicStorageProtocol(), config)
        system.write("v1")
        held = {obj(2), obj(3)}
        system.kernel.network.hold(
            "slow-write",
            lambda env: env.sender == WRITER and env.receiver in held)
        write = system.invoke_write("v2")
        r1 = system.invoke_read(0)
        system.run_until_done(r1)
        r2 = system.invoke_read(1)
        system.run_until_done(r2)
        system.kernel.network.release("slow-write")
        system.run_until_done(write)
        order = {"v1": 1, "v2": 2}
        assert order[r2.result] >= order[r1.result]
        check_atomicity(system.history).assert_ok()
