"""Integration + unit tests for the regular storage (Section 5)."""

import pytest

from repro.adversary import adversarial_suite, max_byzantine
from repro.adversary.byzantine import HistoryForger
from repro.config import SystemConfig
from repro.core.regular import (CachedRegularStorageProtocol,
                                RegularObject, RegularStorageProtocol)
from repro.core.regular.evidence import RegularEvidence
from repro.messages import (HistoryEntry, HistoryReadAck, Pw, ReadRequest, W)
from repro.sim import LifoScheduler, RandomScheduler
from repro.spec import check_regularity, check_round_complexity
from repro.system import StorageSystem
from repro.types import (BOTTOM, INITIAL_TSVAL, TimestampValue, TsrArray,
                         WRITER, WriteTuple, obj, reader)


def make_pair(ts, value="v"):
    return TimestampValue(ts, value)


def make_tuple(config, ts, value="v"):
    return WriteTuple(make_pair(ts, value),
                      TsrArray.empty(config.num_objects,
                                     config.num_readers))


@pytest.fixture
def config():
    return SystemConfig.optimal(t=1, b=1, num_readers=1)


class TestRegularObject:
    def test_initial_history_has_slot_zero(self, config):
        object_ = RegularObject(0, config)
        assert (0, 0) in object_.history
        assert object_.history[0, 0].pw == INITIAL_TSVAL

    def test_pw_records_provisional_and_backfills(self, config):
        object_ = RegularObject(0, config)
        # simulate: write 1's PW carries w_0; write 2's PW carries w_1
        w1 = make_tuple(config, 1, "a")
        object_.on_message(WRITER, Pw(1, make_pair(1, "a"),
                                      object_.history[0, 0].w))
        assert object_.history[1, 0].w is None          # provisional
        object_.on_message(WRITER, Pw(2, make_pair(2, "b"), w1))
        assert object_.history[1, 0].w == w1            # back-filled
        assert object_.history[2, 0].pw == make_pair(2, "b")

    def test_w_completes_slot(self, config):
        object_ = RegularObject(0, config)
        w1 = make_tuple(config, 1, "a")
        object_.on_message(WRITER, Pw(1, make_pair(1, "a"),
                                      object_.history[0, 0].w))
        object_.on_message(WRITER, W(1, make_pair(1, "a"), w1))
        assert object_.history[1, 0].w == w1

    def test_read_ships_full_history(self, config):
        object_ = RegularObject(0, config)
        object_.on_message(WRITER, Pw(1, make_pair(1, "a"),
                                      object_.history[0, 0].w))
        [(_, ack)] = object_.on_message(reader(0),
                                        ReadRequest(1, 1, reader_index=0))
        assert isinstance(ack, HistoryReadAck)
        assert set(ack.history) == {(0, 0), (1, 0)}

    def test_read_ships_suffix_with_from_ts(self, config):
        object_ = RegularObject(0, config)
        for ts in range(1, 6):
            object_.on_message(WRITER, W(ts, make_pair(ts, f"v{ts}"),
                                         make_tuple(config, ts, f"v{ts}")))
        [(_, ack)] = object_.on_message(
            reader(0), ReadRequest(1, 1, reader_index=0, from_ts=4))
        assert set(ack.history) == {(4, 0), (5, 0)}

    def test_stale_read_request_ignored(self, config):
        object_ = RegularObject(0, config)
        object_.on_message(reader(0), ReadRequest(1, 5, reader_index=0))
        assert object_.on_message(reader(0),
                                  ReadRequest(1, 5, reader_index=0)) == []


class TestRegularEvidence:
    @pytest.fixture
    def evidence(self):
        return RegularEvidence(elimination_threshold=3,
                               confirmation_threshold=2)

    def test_candidates_from_round1_w_entries(self, evidence, config):
        c = make_tuple(config, 1)
        evidence.record(1, 0, {1: HistoryEntry(pw=c.tsval, w=c)})
        assert c in evidence.candidates()

    def test_round2_contributes_no_candidates(self, evidence, config):
        c = make_tuple(config, 1)
        evidence.record(2, 0, {1: HistoryEntry(pw=c.tsval, w=c)})
        assert evidence.candidates() == set()

    def test_duplicate_round_record_ignored(self, evidence, config):
        c = make_tuple(config, 1)
        assert evidence.record(1, 0, {1: HistoryEntry(pw=c.tsval, w=c)})
        assert not evidence.record(1, 0, {})

    def test_invalid_counts_missing_and_mismatched(self, evidence, config):
        c = make_tuple(config, 1, "real")
        fake = make_tuple(config, 1, "fake")
        evidence.record(1, 0, {1: HistoryEntry(pw=fake.tsval, w=fake)})
        evidence.record(1, 1, {})                       # missing slot
        evidence.record(1, 2, {1: HistoryEntry(pw=c.tsval, w=c)})
        # objects 1 (missing) + 2 (different tuple) + 0 (pw mismatch is
        # not: object 0 actually reported fake itself) -> for c: 0,1 vote
        voters_c = evidence.invalid_voters(c)
        assert voters_c == {0, 1}
        voters_fake = evidence.invalid_voters(fake)
        assert voters_fake == {1, 2}

    def test_safe_via_pw_or_w(self, evidence, config):
        c = make_tuple(config, 2, "x")
        evidence.record(1, 0, {2: HistoryEntry(pw=c.tsval, w=c)})
        evidence.record(2, 1, {2: HistoryEntry(pw=c.tsval, w=None)})
        assert evidence.is_safe(c)

    def test_returnable_highest_safe(self, evidence, config):
        low = make_tuple(config, 1, "old")
        high = make_tuple(config, 2, "new")
        for i in (0, 1):
            evidence.record(1, i, {
                1: HistoryEntry(pw=low.tsval, w=low),
                2: HistoryEntry(pw=high.tsval, w=high),
            })
        assert evidence.returnable() == high


class TestRegularSemantics:
    @pytest.mark.parametrize("protocol_cls", [RegularStorageProtocol,
                                              CachedRegularStorageProtocol])
    def test_sequential_reads(self, protocol_cls):
        config = SystemConfig.optimal(t=2, b=1, num_readers=2)
        system = StorageSystem(protocol_cls(), config)
        assert system.read(0) is BOTTOM
        system.write("v1")
        assert system.read(0) == "v1"
        system.write("v2")
        system.write("v3")
        assert system.read(1) == "v3"
        check_regularity(system.history).assert_ok()

    @pytest.mark.parametrize("protocol_cls", [RegularStorageProtocol,
                                              CachedRegularStorageProtocol])
    def test_rounds_bounded_by_two(self, protocol_cls):
        config = SystemConfig.optimal(t=2, b=1, num_readers=1)
        system = StorageSystem(protocol_cls(), config)
        system.write("a")
        system.read(0)
        check_round_complexity(system.history, 2, 2).assert_ok()

    @pytest.mark.parametrize("protocol_cls", [RegularStorageProtocol,
                                              CachedRegularStorageProtocol])
    def test_regularity_under_adversarial_suite(self, protocol_cls):
        config = SystemConfig.optimal(t=2, b=1, num_readers=2)
        for plan in adversarial_suite(config):
            system = StorageSystem(protocol_cls(), config,
                                   scheduler=LifoScheduler())
            plan.apply(system)
            system.write("a")
            system.read(0)
            system.write("b")
            system.read(1)
            check_regularity(system.history).assert_ok()

    def test_history_forger_cannot_rewrite_the_past(self):
        config = SystemConfig.optimal(t=2, b=1, num_readers=1)
        system = StorageSystem(RegularStorageProtocol(), config)
        inner = system.kernel.object_automaton(obj(0))
        system.kernel.make_byzantine(
            obj(0), HistoryForger(inner, config, target_ts=1,
                                  forged_value="REWRITTEN"))
        system.write("genuine")
        assert system.read(0) == "genuine"

    def test_concurrent_read_write_regular(self):
        config = SystemConfig.optimal(t=2, b=1, num_readers=2)
        for seed in range(5):
            system = StorageSystem(RegularStorageProtocol(), config,
                                   scheduler=RandomScheduler(seed))
            system.write("v1")
            write = system.invoke_write("v2")
            read = system.invoke_read(0)
            system.run_until_done(write, read)
            # regular: a concurrent read returns v1 or v2, never ⊥
            assert read.result in ("v1", "v2")
            check_regularity(system.history).assert_ok()

    @pytest.mark.parametrize("protocol_cls", [RegularStorageProtocol,
                                              CachedRegularStorageProtocol])
    def test_round_two_only_when_round_one_is_insufficient(self,
                                                           protocol_cls):
        """A forged high candidate is neither safe nor eliminated by one
        quorum of round-1 acks: the read concurrent with a write spends
        its second round and still returns a regular value, while the
        uncontended read before it decides in round 1."""
        config = SystemConfig.optimal(t=2, b=1, num_readers=2)
        system = StorageSystem(protocol_cls(), config)
        system.write("v1")
        assert system.read_handle(1).rounds_used == 1
        max_byzantine(config).apply(system)
        write = system.invoke_write("v2")
        read = system.invoke_read(0)
        system.run_until_done(write, read)
        assert read.operation.rounds_used == 2
        assert read.result in ("v1", "v2")
        check_regularity(system.history).assert_ok()


class TestCachedVariant:
    def test_cache_updates_after_read(self):
        config = SystemConfig.optimal(t=1, b=1, num_readers=1)
        system = StorageSystem(CachedRegularStorageProtocol(), config)
        system.write("v1")
        system.read(0)
        state = system.reader_states[0]
        assert state.cache_ts == 1
        assert state.cache_value == "v1"

    def test_suffix_shrinks_with_cache(self):
        config = SystemConfig.optimal(t=1, b=1, num_readers=1)
        system = StorageSystem(CachedRegularStorageProtocol(), config)
        for k in range(1, 11):
            system.write(f"v{k}")
        first = system.read_handle(0)
        second = system.read_handle(0)
        assert (second.operation.history_entries_received
                < first.operation.history_entries_received)

    def test_full_history_protocol_never_uses_suffix(self):
        config = SystemConfig.optimal(t=1, b=1, num_readers=1)
        system = StorageSystem(RegularStorageProtocol(), config)
        for k in range(1, 6):
            system.write(f"v{k}")
        h1 = system.read_handle(0)
        h2 = system.read_handle(0)
        assert (h1.operation.history_entries_received
                == h2.operation.history_entries_received)
