"""Multi-writer (MWMR) registers: tags end-to-end.

Covers the MWMR refactor across every layer: writer-tag types, the
guessed-tag write path (and the baselines' tag discovery), tag
arbitration in the object automata, the tag-based checkers, the wire
codec, Byzantine stale-tag forgery, and the service tier accepting
writes from any client host.
"""

import asyncio
import dataclasses

import pytest

from repro import (StorageSystem, SystemConfig, TAG0, WriterTag, writer,
                   WRITER)
from repro.adversary.byzantine import (ByzantineWrapper, GarbageByzantine,
                                      StaleTagForger)
from repro.automata.rounds import TagDiscovery
from repro.baselines.abd.protocol import AbdAtomicProtocol
from repro.baselines.authenticated.protocol import AuthenticatedProtocol
from repro.core.regular import (CachedRegularStorageProtocol,
                                RegularStorageProtocol)
from repro.core.atomic import AtomicStorageProtocol
from repro.core.safe import SafeStorageProtocol, SafeWriteOperation
from repro.core.safe.object import SafeObject
from repro.core.safe.predicates import CandidateTracker
from repro.errors import BackpressureError, ConfigurationError
from repro.messages import (HistoryEntry, Pw, PwAck, TagQuery, TagQueryAck,
                            W)
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

    def test_uncontended_mwmr_write_takes_two_rounds(self):
        config = SystemConfig.optimal(t=1, b=1, num_writers=2)
        protocol = SafeStorageProtocol()
        system = StorageSystem(protocol, config)
        handle = system.write("v", writer_index=1)
        assert handle.rounds_used == 2  # PW (checking the guess) + W
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
# The write path: a guessed tag, checked in the PW round
# ---------------------------------------------------------------------------


class TagInflater(ByzantineWrapper):
    """Reports a PW-ack top ``boost`` epochs above every pre-write it
    acknowledges, so every guess it answers looks beaten."""

    def __init__(self, inner, config, boost=1000):
        super().__init__(inner, config)
        self.boost = boost

    def transform(self, sender, message, replies):
        return [(receiver, dataclasses.replace(
                    payload, top_epoch=payload.ts + self.boost)
                 if isinstance(payload, PwAck) else payload)
                for receiver, payload in replies]


class UncheckedWrite(SafeWriteOperation):
    """A planted mutant: installs its guessed tag without the check."""

    def __init__(self, state, value):
        super().__init__(state, value)
        self.check_tag = False


class UncheckedAtomicProtocol(AtomicStorageProtocol):
    def make_write(self, writer_state, value):
        return UncheckedWrite(writer_state, value)


PROTOCOLS = [SafeStorageProtocol, RegularStorageProtocol,
             AtomicStorageProtocol]


class TestGuessedTagWrites:
    CONFIG = SystemConfig.optimal(t=1, b=1, num_readers=2, num_writers=2)

    @pytest.mark.parametrize("protocol_cls", PROTOCOLS)
    def test_a_beaten_guess_costs_one_round_once(self, protocol_cls):
        """The first write after another writer's takes 3 rounds; the
        same writer's next write guesses above it again: 2 rounds."""
        system = StorageSystem(protocol_cls(), self.CONFIG)
        rounds = [system.write(value, writer_index=index).rounds_used
                  for value, index in (("a", 1), ("b", 0), ("c", 0),
                                       ("d", 1), ("e", 1))]
        assert rounds == [2, 3, 2, 3, 2]
        assert system.read(0) == "e"
        tags = [w.tag for w in system.history.writes()]
        assert tags == sorted(tags) and len(set(tags)) == len(tags)
        check_atomicity(system.history).assert_ok()

    @pytest.mark.parametrize("protocol_cls", PROTOCOLS)
    def test_over_reporting_forger_costs_at_most_one_round(self,
                                                          protocol_cls):
        protocol = protocol_cls()
        system = StorageSystem(protocol, self.CONFIG)
        target = obj(0)
        system.kernel.make_byzantine(
            target, TagInflater(system.kernel.object_automaton(target),
                                self.CONFIG), note="tag-inflater")
        handles = [system.write(f"v{n}", writer_index=n % 2)
                   for n in range(4)]
        assert [h.rounds_used for h in handles] == [3] * 4
        assert all(h.rounds_used <= protocol.write_rounds_bound(self.CONFIG)
                   for h in handles)
        assert system.read(0) == "v3"
        check_safety(system.history).assert_ok()

    def test_unchecked_guess_breaks_atomicity(self):
        """The check is what makes the guess safe: a writer that skips
        it installs below a completed write of the other writer."""
        def schedule(protocol):
            system = StorageSystem(protocol, self.CONFIG)
            system.write("w1-a", writer_index=1)
            system.write("w1-b", writer_index=1)
            system.write("w0", writer_index=0)
            return system.read(0), check_mwmr_atomicity(system.history)

        value, verdict = schedule(AtomicStorageProtocol())
        assert value == "w0" and verdict.ok
        value, verdict = schedule(UncheckedAtomicProtocol())
        assert value == "w1-b" and not verdict.ok


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

    def test_random_noise_keeps_pw_acks_addressed(self):
        """Junk reader timestamps, but the tag fields a writer matches
        and checks stay honest, so a rewritten ack reaches writer 1."""
        config = SystemConfig.optimal(t=1, b=1, num_writers=2)
        noise = GarbageByzantine(SafeObject(0, config), config, seed=3)
        honest = PwAck(ts=5, object_index=0, tsr=(0,), top_epoch=4,
                       top_wid=0, register_id="k", wid=1)
        acks = [noise.transform(writer(1), None, [(writer(1), honest)])[0][1]
                for _ in range(8)]
        assert any(ack is not honest for ack in acks)
        assert all((ack.ts, ack.wid, ack.top, ack.register_id)
                   == (5, 1, WriterTag(4, 0), "k") for ack in acks)

    def test_forged_top_reaches_the_writers_check(self):
        """The forger tells its tag story in PW acks too: an inflated top
        beats the honest writer's guess once, and the write lands above
        the forged tag."""
        config = SystemConfig.optimal(t=1, b=1, num_readers=2,
                                      num_writers=2)
        system = StorageSystem(RegularStorageProtocol(), config)
        target = obj(0)
        system.kernel.make_byzantine(target, StaleTagForger(
            system.kernel.object_automaton(target), config,
            forged_tag=WriterTag(50, 1)), note="stale-tag")
        beaten = system.write("a", writer_index=0)
        again = system.write("b", writer_index=0)
        assert (beaten.rounds_used, again.rounds_used) == (3, 2)
        assert [w.tag for w in system.history.writes()] == [
            WriterTag(51, 0), WriterTag(52, 0)]
        assert system.read(0) == "b"


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

    def test_timed_out_write_keeps_its_tag_on_record(self):
        """A write that times out after its W reached one replica is a
        pending, *tagged* record: a later read returning its value is
        not "a tag no write installed"."""
        from repro.messages import unbatch

        config = SystemConfig.optimal(t=1, b=1, num_writers=2)

        async def scenario():
            async with MultiRegisterStore(AtomicStorageProtocol(), config,
                                          record_history=True) as store:
                await store.write("k", "v1")
                wedged = [store._object_hosts[i] for i in (1, 2, 3)]
                send = store.network.send

                def wedge_on_w(sender, receiver, payload):
                    # The W round parks in the inboxes of s2..s4.
                    if any(isinstance(part, W)
                           for part in unbatch(payload)):
                        for host in wedged:
                            host.stop()
                    send(sender, receiver, payload)

                store.network.send = wedge_on_w
                with pytest.raises(asyncio.TimeoutError):
                    await store.write("k", "v2", writer_index=1,
                                      timeout=0.05)
                store.network.send = send
                for host in wedged:
                    host.start()  # the parked W rounds land now
                assert await store.read("k") == "v2"
                return store.history

        history = run(scenario())
        result = check_mwmr_atomicity(history)
        assert result.ok, result.violations
        [pending] = [w for w in history.writes() if not w.complete]
        assert pending.tag is not None

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

    def test_top_tag_memo_survives_the_write_path(self):
        """PW acks report the top tag on every write; the handlers'
        own insertions keep its memo current, so no write rescans the
        history, and the memo always equals the real maximum."""
        config = SystemConfig.optimal(t=1, b=1, num_readers=1,
                                      num_writers=2)
        system = StorageSystem(RegularStorageProtocol(), config)
        for n in range(12):
            system.write(f"v{n}", writer_index=n // 3 % 2)
        system.read(0)
        for i in range(config.num_objects):
            slot = system.kernel.object_automaton(obj(i)).slots["r0"]
            assert slot._top_key == (len(slot.history), max(slot.history))
            assert slot.top_tag() == max(max(slot.history), slot.tag)

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
