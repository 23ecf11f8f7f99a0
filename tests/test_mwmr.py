"""Multi-writer (MWMR) registers: tags end-to-end.

Covers the MWMR refactor across every layer: writer-tag types, the
tag-discovery write path, tag arbitration in the object automata, the
tag-based checkers, the wire codec, Byzantine stale-tag forgery, and the service tier
accepting writes from any client host.
"""

import asyncio

import pytest

from repro import (StorageSystem, SystemConfig, TAG0, WriterTag, writer,
                   WRITER)
from repro.adversary.byzantine import StaleTagForger
from repro.automata.rounds import TagDiscovery
from repro.baselines.abd.protocol import AbdAtomicProtocol
from repro.baselines.authenticated.protocol import AuthenticatedProtocol
from repro.core.regular import (CachedRegularStorageProtocol,
                                RegularStorageProtocol)
from repro.core.safe import SafeStorageProtocol
from repro.core.safe.predicates import CandidateTracker
from repro.errors import BackpressureError, ConfigurationError
from repro.messages import (HistoryEntry, Pw, TagQuery, TagQueryAck, W)
from repro.runtime.codec import decode_message_binary, encode_message_binary
from repro.service import MultiRegisterStore, ShardedKVStore
from repro.spec import (check_atomicity, check_mwmr_atomicity,
                        check_mwmr_regularity, check_regularity,
                        check_safety, History, READ, WRITE)
from repro.types import (BOTTOM, TimestampValue, TsrArray, WriteTuple,
                         as_tag, obj, reader)


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Tags and tag discovery
# ---------------------------------------------------------------------------


class TestWriterTag:
    def test_total_order_epoch_first_writer_tiebreak(self):
        assert WriterTag(1, 0) < WriterTag(1, 1) < WriterTag(2, 0)
        assert max(WriterTag(3, 2), WriterTag(3, 1)) == WriterTag(3, 2)
        assert TAG0 == (0, 0)

    def test_as_tag_normalizes_legacy_ints(self):
        assert as_tag(5) == WriterTag(5, 0)
        assert as_tag(None) is None
        assert as_tag(WriterTag(2, 1)) == WriterTag(2, 1)
        assert as_tag((4, 3)) == WriterTag(4, 3)

    def test_tsval_carries_wid(self):
        a = TimestampValue(3, "v")
        b = TimestampValue(3, "v", wid=1)
        assert a != b and a.tag < b.tag
        assert a.tag == (3, 0) and b.tag == (3, 1)

    def test_next_for_bumps_epoch(self):
        assert WriterTag(7, 3).next_for(1) == WriterTag(8, 1)


class TestTagDiscovery:
    def test_quorum_and_max(self):
        disc = TagDiscovery(nonce=9, quorum=2, writer_id=1)
        assert disc.offer(0, 9, WriterTag(4, 0))
        assert not disc.ready()
        assert not disc.offer(0, 9, WriterTag(99, 0))  # duplicate object
        assert not disc.offer(1, 8, WriterTag(99, 0))  # stale nonce
        assert disc.offer(1, 9, WriterTag(2, 1))
        assert disc.ready()
        assert disc.chosen_tag() == WriterTag(5, 1)

    def test_floor_keeps_writer_monotone(self):
        disc = TagDiscovery(nonce=1, quorum=1, writer_id=2,
                            floor=WriterTag(10, 2))
        disc.offer(0, 1, WriterTag(3, 0))  # quorum under-reports
        assert disc.chosen_tag() == WriterTag(11, 2)


# ---------------------------------------------------------------------------
# Two writers racing in the simulator (tentpole acceptance)
# ---------------------------------------------------------------------------


class TestMultiWriterSim:
    def test_sequential_writers_interleave_cleanly(self):
        config = SystemConfig.optimal(t=1, b=1, num_readers=2,
                                      num_writers=2)
        system = StorageSystem(SafeStorageProtocol(), config)
        system.write("a", writer_index=0)
        system.write("b", writer_index=1)
        assert system.read(0) == "b"
        system.write("c", writer_index=0)
        assert system.read(1) == "c"
        check_safety(system.history).assert_ok()

    def test_concurrent_writers_regular_history_clean(self):
        config = SystemConfig.optimal(t=1, b=1, num_readers=2,
                                      num_writers=2)
        system = StorageSystem(RegularStorageProtocol(), config)
        h1 = system.invoke_write("x", writer_index=0)
        h2 = system.invoke_write("y", writer_index=1)
        system.run_until_done(h1, h2)
        value = system.read(0)
        assert value in ("x", "y")
        check_regularity(system.history).assert_ok()
        # tags must disambiguate the two writes
        w1, w2 = system.history.writes_by_tag()
        assert w1.tag != w2.tag

    def test_two_writers_racing_abd_atomic(self):
        """Two writers racing on one register: atomicity-checker clean."""
        config = SystemConfig.optimal(t=1, b=0, num_readers=2,
                                      num_writers=2)
        system = StorageSystem(AbdAtomicProtocol(), config)
        for round_ in range(4):
            h1 = system.invoke_write(f"w0-{round_}", writer_index=0)
            h2 = system.invoke_write(f"w1-{round_}", writer_index=1)
            system.run_until_done(h1, h2)
            system.read(round_ % 2)
        result = check_atomicity(system.history)
        result.assert_ok()
        assert result.property_name == "mwmr-atomicity"

    def test_authenticated_mwmr_keys_per_writer(self):
        config = SystemConfig.optimal(t=1, b=1, num_readers=1,
                                      num_writers=2)
        system = StorageSystem(AuthenticatedProtocol(), config)
        system.write("first", writer_index=0)
        system.write("second", writer_index=1)
        assert system.read(0) == "second"
        check_safety(system.history).assert_ok()

    def test_mwmr_write_uses_extra_round(self):
        config = SystemConfig.optimal(t=1, b=1, num_writers=2)
        protocol = SafeStorageProtocol()
        system = StorageSystem(protocol, config)
        handle = system.write("v", writer_index=1)
        assert handle.rounds_used == 3  # TAG + PW + W
        assert protocol.write_rounds_bound(config) == 3

    def test_swmr_write_path_unchanged(self):
        config = SystemConfig.optimal(t=1, b=1)
        system = StorageSystem(SafeStorageProtocol(), config)
        handle = system.write("v")
        assert handle.rounds_used == 2  # no discovery round

    def test_single_writer_protocols_reject_other_indices(self):
        from repro.core.lower_bound.victims import FastReadProtocol
        config = SystemConfig.at_impossibility_threshold(t=1, b=1)
        protocol = FastReadProtocol()
        with pytest.raises(ConfigurationError):
            protocol.make_writer_state_for(config, writer_index=1)


# ---------------------------------------------------------------------------
# Codec: tagged frames round-trip
# ---------------------------------------------------------------------------


class TestTaggedCodec:
    def _wtuple(self, ts, wid=0, value="v"):
        return WriteTuple(TimestampValue(ts, value, wid=wid),
                          TsrArray.empty(3, 1))

    def test_tagged_write_frames_roundtrip(self):
        wt = self._wtuple(2, wid=3)
        for message in (
            Pw(ts=2, pw=wt.tsval, w=wt, wid=3),
            W(ts=2, pw=wt.tsval, w=wt, wid=3),
            TagQuery(nonce=4, register_id="k"),
            TagQueryAck(nonce=4, object_index=1, epoch=9, wid=2),
        ):
            assert decode_message_binary(
                encode_message_binary(message)) == message

    def test_tagged_history_ack_roundtrip(self):
        from repro.messages import HistoryReadAck
        ack = HistoryReadAck(
            round_index=1, tsr=3, object_index=0,
            history={WriterTag(1, 0): HistoryEntry(
                         pw=TimestampValue(1, "a"), w=None),
                     WriterTag(1, 2): HistoryEntry(
                         pw=TimestampValue(1, "b", wid=2), w=None)})
        decoded = decode_message_binary(encode_message_binary(ack))
        assert decoded == ack
        assert set(decoded.history) == {(1, 0), (1, 2)}


# ---------------------------------------------------------------------------
# Byzantine stale-tag forgery
# ---------------------------------------------------------------------------


class TestStaleTagForgery:
    @pytest.mark.parametrize("protocol_cls", [SafeStorageProtocol,
                                              RegularStorageProtocol])
    def test_forged_stale_tag_is_outvoted(self, protocol_cls):
        config = SystemConfig.optimal(t=1, b=1, num_readers=2,
                                      num_writers=2)
        system = StorageSystem(protocol_cls(), config)
        system.write("genuine-1", writer_index=0)
        system.write("genuine-2", writer_index=1)
        # One replica now lies: it claims the register still holds a
        # forged value at the stale tag (1, 1) and under-reports tag
        # queries.
        target = obj(0)
        forger = StaleTagForger(system.kernel.object_automaton(target),
                                config, forged_tag=WriterTag(1, 1),
                                forged_value="FORGED")
        system.kernel.make_byzantine(target, forger, note="stale-tag")
        assert system.read(0) == "genuine-2"
        assert system.read(1) == "genuine-2"
        # Writers keep making progress past the lying tag reports.
        system.write("genuine-3", writer_index=1)
        assert system.read(0) == "genuine-3"
        check_safety(system.history).assert_ok()


# ---------------------------------------------------------------------------
# Tag-based checkers: violations are actually caught
# ---------------------------------------------------------------------------


def _record(history, client, kind, argument=None, result=None, tag=None,
            complete=True):
    op_id = len(history.operations()) + 1000
    history.record_invocation(op_id, client, kind, argument=argument)
    if complete:
        history.record_completion(op_id, result, tag=tag)
    return op_id


class TestMwmrCheckers:
    def test_clean_history_passes(self):
        h = History()
        _record(h, writer(0), WRITE, argument="a", result="OK",
                tag=WriterTag(1, 0))
        _record(h, writer(1), WRITE, argument="b", result="OK",
                tag=WriterTag(2, 1))
        _record(h, reader(0), READ, result="b", tag=WriterTag(2, 1))
        check_mwmr_atomicity(h).assert_ok()

    def test_stale_read_detected(self):
        h = History()
        _record(h, writer(0), WRITE, argument="a", result="OK",
                tag=WriterTag(1, 0))
        _record(h, writer(1), WRITE, argument="b", result="OK",
                tag=WriterTag(2, 1))
        _record(h, reader(0), READ, result="a", tag=WriterTag(1, 0))
        result = check_mwmr_regularity(h)
        assert not result.ok
        assert "stale" in result.violations[0]

    def test_new_old_inversion_detected(self):
        h = History()
        _record(h, writer(0), WRITE, argument="a", result="OK",
                tag=WriterTag(1, 0))
        _record(h, writer(1), WRITE, argument="b", result="OK",
                tag=WriterTag(2, 1))
        r1 = len(h.operations()) + 1000
        h.record_invocation(r1, reader(0), READ)
        h.record_completion(r1, "b", tag=WriterTag(2, 1))
        r2 = len(h.operations()) + 1000
        h.record_invocation(r2, reader(1), READ)
        h.record_completion(r2, "b", tag=WriterTag(2, 1))
        # a third read observing the OLD tag after both -> inversion...
        # but regularity already flags it as stale, so craft a
        # tag-concurrent case: write (3, 0) completes, late reader still
        # observes (2, 1) while an earlier one observed (3, 0).
        _record(h, writer(0), WRITE, argument="c", result="OK",
                tag=WriterTag(3, 0))
        ra = len(h.operations()) + 1000
        h.record_invocation(ra, reader(0), READ)
        h.record_completion(ra, "c", tag=WriterTag(3, 0))
        rb = len(h.operations()) + 1000
        h.record_invocation(rb, reader(1), READ)
        h.record_completion(rb, "b", tag=WriterTag(2, 1))
        result = check_mwmr_atomicity(h)
        assert not result.ok

    def test_tag_against_real_time_order(self):
        h = History()
        _record(h, writer(0), WRITE, argument="a", result="OK",
                tag=WriterTag(5, 0))
        _record(h, writer(1), WRITE, argument="b", result="OK",
                tag=WriterTag(3, 1))  # later write, smaller tag
        result = check_mwmr_regularity(h)
        assert not result.ok
        assert "real" in " ".join(result.violations)

    def test_forged_unknown_tag_detected(self):
        h = History()
        _record(h, writer(0), WRITE, argument="a", result="OK",
                tag=WriterTag(1, 0))
        _record(h, writer(1), WRITE, argument="b", result="OK",
                tag=WriterTag(2, 1))
        _record(h, reader(0), READ, result="ghost", tag=WriterTag(9, 9))
        result = check_mwmr_regularity(h)
        assert not result.ok
        assert "no write installed" in result.violations[0]


# ---------------------------------------------------------------------------
# Service tier: any client host writes any key
# ---------------------------------------------------------------------------


class TestMultiWriterService:
    def test_sharded_kv_two_writers_racing_atomic(self):
        """Acceptance: concurrent puts from two writer hosts through the
        sharded KV store yield atomicity-checker-clean histories."""
        config = SystemConfig.optimal(t=1, b=0, num_readers=2,
                                      num_writers=2)

        async def scenario():
            async with ShardedKVStore(lambda: AbdAtomicProtocol(), config,
                                      num_shards=2,
                                      record_history=True) as kv:
                for round_ in range(5):
                    await asyncio.gather(
                        kv.put("hot", f"w0-{round_}", writer_index=0),
                        kv.put("hot", f"w1-{round_}", writer_index=1),
                    )
                    assert await kv.get("hot") is not None
                    assert await kv.get("hot", reader_index=1) is not None
                return kv.history

        history = run(scenario())
        for register in history.registers():
            result = check_atomicity(history.for_register(register))
            result.assert_ok()
            assert result.property_name == "mwmr-atomicity"

    def test_multi_register_store_mwmr_regular(self):
        config = SystemConfig.optimal(t=1, b=1, num_readers=1,
                                      num_writers=3)

        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config,
                                          record_history=True) as store:
                await asyncio.gather(*(
                    store.write("shared", f"v{k}", writer_index=k)
                    for k in range(3)
                ))
                value = await store.read("shared")
                return store.history, value

        history, value = run(scenario())
        assert value in {"v0", "v1", "v2"}
        check_regularity(history.for_register("shared")).assert_ok()

    def test_writer_index_out_of_range_rejected(self):
        config = SystemConfig.optimal(t=1, b=1, num_writers=2)

        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config) as store:
                with pytest.raises(Exception):
                    await store.write("k", "v", writer_index=5)

        run(scenario())


# ---------------------------------------------------------------------------
# Backpressure (satellite): bounded pending registers per host
# ---------------------------------------------------------------------------


class TestBackpressure:
    def test_admission_cap_rejects_and_recovers(self):
        config = SystemConfig.optimal(t=1, b=1)

        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config,
                                          max_pending_per_host=2) as store:
                with pytest.raises(BackpressureError):
                    await store.write_many(
                        {f"k{n}": n for n in range(3)})
                # The rejected batch rolled back: the host admits new work.
                await store.write("k0", "recovered")
                return await store.read("k0")

        assert run(scenario()) == "recovered"

    def test_rejected_batch_leaves_no_phantom_history(self):
        """Backpressure rollback must also roll back invocation records:
        never-started operations would otherwise sit forever-pending in
        the shared history and weaken every later check."""
        config = SystemConfig.optimal(t=1, b=1)

        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config,
                                          max_pending_per_host=2,
                                          record_history=True) as store:
                with pytest.raises(BackpressureError):
                    await store.write_many(
                        {f"k{n}": n for n in range(3)})
                await store.write("k0", "only-write")
                assert await store.read("k0") == "only-write"
                return store.history

        history = run(scenario())
        assert all(op.complete for op in history.operations())
        assert len(history.writes()) == 1
        check_regularity(history.for_register("k0")).assert_ok()

    def test_cap_does_not_bite_within_limit(self):
        config = SystemConfig.optimal(t=1, b=1)

        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config,
                                          max_pending_per_host=8) as store:
                await store.write_many({f"k{n}": n for n in range(8)})
                return await store.read_many([f"k{n}" for n in range(8)])

        values = run(scenario())
        assert values == {f"k{n}": n for n in range(8)}


# ---------------------------------------------------------------------------
# Perf satellites: memoized CandidateTracker, slotted HistoryEntry
# ---------------------------------------------------------------------------


class TestPerfSatellites:
    def test_candidate_tracker_memoization_tracks_generations(self):
        tracker = CandidateTracker(elimination_threshold=3,
                                   confirmation_threshold=2)
        wt = WriteTuple(TimestampValue(1, "v"), TsrArray.empty(4, 1))
        tracker.record_first_round(0, wt.tsval, wt)
        first = tracker.supporters(wt)
        assert tracker.supporters(wt) is first  # cached within generation
        tracker.record_first_round(1, wt.tsval, wt)
        second = tracker.supporters(wt)
        assert second is not first  # new evidence invalidates the cache
        assert second == {0, 1}
        assert tracker.candidates() is tracker.candidates()

    def test_candidate_tracker_verdicts_match_fresh_instance(self):
        """Memoization must be invisible: same verdicts as a cold tracker."""
        def build(events):
            t = CandidateTracker(elimination_threshold=3,
                                 confirmation_threshold=2)
            for rnd, i, wt in events:
                if rnd == 1:
                    t.record_first_round(i, wt.tsval, wt)
                else:
                    t.record_second_round(i, wt.tsval, wt)
            return t

        tuples = [WriteTuple(TimestampValue(ts, f"v{ts}", wid=wid),
                             TsrArray.empty(4, 1))
                  for ts in (1, 2) for wid in (0, 1)]
        events = [(1, 0, tuples[0]), (1, 1, tuples[1]), (2, 2, tuples[2]),
                  (1, 3, tuples[3]), (2, 0, tuples[3])]
        warm = build([])
        for rnd, i, wt in events:
            if rnd == 1:
                warm.record_first_round(i, wt.tsval, wt)
            else:
                warm.record_second_round(i, wt.tsval, wt)
            warm.candidates(); [warm.supporters(c) for c in tuples]
        cold = build(events)
        for c in tuples:
            assert warm.supporters(c) == cold.supporters(c)
            assert warm.is_eliminated(c) == cold.is_eliminated(c)
        assert warm.candidates() == cold.candidates()
        assert warm.high_candidates() == cold.high_candidates()

    def test_history_entry_is_slotted(self):
        entry = HistoryEntry(pw=None, w=None)
        assert not hasattr(entry, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(entry, "extra", 1)

    def test_history_entry_pickles_deterministically(self):
        import pickle
        entry = HistoryEntry(pw=TimestampValue(1, "v"), w=None)
        blob = pickle.dumps(entry, protocol=4)
        assert pickle.loads(blob) == entry
        assert pickle.dumps(pickle.loads(blob), protocol=4) == blob
