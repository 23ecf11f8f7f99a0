"""Contention-adaptive fast reads: tag leases, probe validation, fallback.

Covers the lease state machine (:class:`~repro.automata.rounds.TagLease`,
:class:`~repro.automata.rounds.LeaseValidation`), the service-tier fast
path end to end (fewer messages than classic, counters, checkers), and
the invalidation edges the design note calls out: fences, routing flips,
conditional-write failures, amnesiac (restarted-empty) replicas and a
Byzantine replica vouching for stale leases.
"""

import asyncio
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.byzantine import StaleTagForger
from repro.api import Cluster
from repro.automata.rounds import LeaseTable, LeaseValidation, TagLease
from repro.config import SystemConfig
from repro.core.atomic.protocol import AtomicStorageProtocol
from repro.core.regular import (CachedRegularStorageProtocol, RegularObject,
                                RegularStorageProtocol)
from repro.errors import ConfigurationError, FencedWriteError
from repro.messages import LeaseProbe, LeaseProbeAck
from repro.service import MultiRegisterStore, ShardedKVStore
from repro.spec import (check_fast_read_freshness, check_mwmr_atomicity,
                        check_per_register)
from repro.types import TAG0, BOTTOM, WriterTag


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def config() -> SystemConfig:
    return SystemConfig.optimal(t=1, b=1, num_readers=2)


def fast_store(config, **kwargs) -> MultiRegisterStore:
    return MultiRegisterStore(CachedRegularStorageProtocol(), config,
                              fast_reads=True, **kwargs)


# ---------------------------------------------------------------------------
# TagLease: the reader-side cache + backoff automaton
# ---------------------------------------------------------------------------


class TestTagLease:
    def test_refresh_is_monotone(self):
        lease = TagLease(tag=WriterTag(3, 1), value="new")
        lease.refresh(WriterTag(2, 9), "old")
        assert lease.tag == WriterTag(3, 1) and lease.value == "new"
        lease.refresh(WriterTag(4, 0), "newer")
        assert lease.tag == WriterTag(4, 0) and lease.value == "newer"

    def test_fallback_backoff_doubles_and_hit_resets(self):
        lease = TagLease(tag=WriterTag(1, 0), value="v")
        skips = []
        for _ in range(8):
            lease.record_fallback()
            skips.append(lease.skips_left)
        assert skips == [2, 4, 8, 16, 32, 64, 64, 64]  # capped
        lease.record_hit()
        assert lease.failures == 0 and lease.skips_left == 0

    def test_should_probe_consumes_skips(self):
        lease = TagLease(tag=WriterTag(1, 0), value="v")
        lease.record_fallback()  # 2 skips
        assert not lease.should_probe()
        assert not lease.should_probe()
        assert lease.should_probe()


class TestLeaseTable:
    def test_grants_only_certified_tags_while_enabled(self):
        table = LeaseTable()
        table.grant("k", WriterTag(1, 0), "v")
        assert table.leases == {}              # fast reads off
        table.enabled = True
        table.grant("k", TAG0, BOTTOM)
        table.grant("k", None, "v")
        assert table.leases == {}              # nothing certified
        table.grant("k", WriterTag(2, 0), "v2")
        table.grant("k", WriterTag(1, 1), "old")
        lease = table.to_probe("k")
        assert (lease.tag, lease.value) == (WriterTag(2, 0), "v2")
        assert table.to_probe("other") is None

    def test_drop_counts_each_dropped_lease_once(self):
        table = LeaseTable()
        table.enabled = True
        for key in ("a", "b", "c"):
            table.grant(key, WriterTag(1, 0), key)
        table.drop(["a", "a", "missing"])
        assert table.invalidations == 1
        table.drop()
        assert table.invalidations == 3 and table.leases == {}


class TestLeaseValidation:
    @staticmethod
    def _ack(index, epoch, wid=0, holds=True, fenced=False):
        return LeaseProbeAck(nonce=7, object_index=index, epoch=epoch,
                             wid=wid, holds=holds, fenced=fenced)

    def _validation(self, lease_epoch=5):
        return LeaseValidation(nonce=7, quorum=3, confirmation_threshold=2,
                               lease_tag=WriterTag(lease_epoch, 0))

    def test_valid_on_quorum_of_holders(self):
        v = self._validation()
        for i in range(3):
            v.offer(i, 7, self._ack(i, epoch=5))
        assert v.decided() and v.valid()

    def test_any_newer_top_refutes(self):
        v = self._validation()
        v.offer(0, 7, self._ack(0, epoch=6))
        assert v.decided() and v.refuted and not v.valid()

    def test_any_fence_refutes(self):
        v = self._validation()
        v.offer(0, 7, self._ack(0, epoch=5, fenced=True))
        assert v.decided() and not v.valid()

    def test_too_few_holders_is_invalid_but_not_refuted(self):
        v = self._validation()
        v.offer(0, 7, self._ack(0, epoch=0, holds=False))
        v.offer(1, 7, self._ack(1, epoch=0, holds=False))
        v.offer(2, 7, self._ack(2, epoch=5, holds=True))
        assert v.decided() and not v.refuted and not v.valid()

    def test_stale_nonce_ignored(self):
        v = self._validation()
        assert not v.offer(0, 6, self._ack(0, epoch=9))
        assert not v.decided()

    @given(st.lists(
        st.tuples(st.integers(0, 3),          # object index (S = 4)
                  st.integers(0, 8),          # top epoch
                  st.booleans(),              # holds
                  st.booleans()),             # fenced
        min_size=0, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_valid_implies_fresh_held_unfenced_quorum(self, acks):
        """Soundness: ``valid()`` can only hold when a quorum answered,
        no responder saw a newer tag or a fence, and at least ``b + 1``
        vouch for holding the leased tuple."""
        lease_tag = WriterTag(5, 0)
        v = LeaseValidation(nonce=7, quorum=3, confirmation_threshold=2,
                            lease_tag=lease_tag)
        accepted = {}
        for index, epoch, holds, fenced in acks:
            ack = self._ack(index, epoch=epoch, holds=holds, fenced=fenced)
            if v.offer(index, 7, ack):
                accepted[index] = ack
        if v.valid():
            assert len(accepted) >= 3
            assert all(a.tag <= lease_tag for a in accepted.values())
            assert not any(a.fenced for a in accepted.values())
            assert sum(a.holds for a in accepted.values()) >= 2


# ---------------------------------------------------------------------------
# Object-side probe handling
# ---------------------------------------------------------------------------


class TestLeaseProbeReplies:
    def test_fresh_object_never_vouches(self, config):
        """A restarted-empty replica answers ``holds=False``: recovered
        state cannot re-certify leases minted before the crash."""
        automaton = RegularObject(0, config)
        probe = LeaseProbe(nonce=1, epoch=3, reader_index=0, wid=1,
                           register_id="k")
        (receiver, ack), = automaton.on_message("reader-0", probe)
        assert isinstance(ack, LeaseProbeAck)
        assert ack.tag == TAG0 and not ack.holds and not ack.fenced

    def test_fenced_register_reports_fence(self, config):
        automaton = RegularObject(0, config)
        automaton.hard_fences.add("k")
        probe = LeaseProbe(nonce=1, epoch=0, reader_index=0,
                           register_id="k")
        (_, ack), = automaton.on_message("reader-0", probe)
        assert ack.fenced


# ---------------------------------------------------------------------------
# Service tier end to end
# ---------------------------------------------------------------------------


class TestFastReadPath:
    def test_first_read_after_write_is_fast_at_two_s_messages(self, config):
        """The write's ack arms the lease for every reader of the store,
        so even a reader that never touched the key probes: one round,
        ``S`` probes out and ``S`` acks back."""
        async def scenario():
            async with fast_store(config, record_history=True) as store:
                await store.write("k", "v1")
                costs = []
                for reader_index in (1, 0):
                    before = store.network.messages_sent
                    assert await store.read("k", reader_index) == "v1"
                    costs.append(store.network.messages_sent - before)
                return costs, store.stats(), store.history

        costs, stats, history = run(scenario())
        assert costs == [2 * config.num_objects] * 2
        assert stats["fast_reads_taken"] == 2
        assert stats["fast_read_fallbacks"] == 0
        assert all(op.rounds_used == 1 for op in history.reads())
        check_mwmr_atomicity(history).assert_ok()
        freshness = check_fast_read_freshness(history)
        freshness.assert_ok()
        assert freshness.checked_reads == 2

    def test_never_written_key_reads_classic(self, config):
        """``TAG0`` grants nothing: neither the first read of a fresh key
        nor any later one has a lease to probe."""
        async def scenario():
            async with fast_store(config) as store:
                first = await store.read("k")
                second = await store.read("k")
                return (first, second, store.stats(),
                        dict(store._states.leases.leases))

        first, second, stats, leases = run(scenario())
        assert first is BOTTOM and second is BOTTOM
        # A TAG0 classic read decides in round 1, so it costs 2*S like a
        # probe: only the counter tells the two apart.
        assert stats["fast_reads_taken"] == 0
        assert stats["fast_read_fallbacks"] == 0
        assert leases == {}

    def test_write_refreshes_lease_to_new_value(self, config):
        async def scenario():
            async with fast_store(config) as store:
                await store.write("k", "v1")
                await store.read("k")
                await store.write("k", "v2")   # quorum ack re-arms lease
                value = await store.read("k")
                return value, store.stats()

        value, stats = run(scenario())
        assert value == "v2"
        assert stats["fast_reads_taken"] == 2

    def test_fast_reads_disabled_by_default(self, config):
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config) as store:
                await store.write("k", "v1")
                await store.read("k")
                await store.read("k")
                return store.stats()

        stats = run(scenario())
        assert not stats["fast_reads_enabled"]
        assert stats["fast_reads_taken"] == 0

    def test_incapable_protocol_refused(self, config):
        from repro.core.safe import SafeStorageProtocol
        with pytest.raises(ConfigurationError):
            MultiRegisterStore(SafeStorageProtocol(), config,
                               fast_reads=True)

    def test_fence_forces_fallback_and_invalidation(self, config):
        """Mid-reconfiguration fences refute probes: the read falls back
        to classic rounds and the lease is dropped."""
        async def scenario():
            async with fast_store(config) as store:
                await store.write("k", "v1")   # arms the lease
                for i in range(config.num_objects):
                    store.object_automaton(i).hard_fences.add("k")
                value = await store.read("k")
                return value, store.stats()

        value, stats = run(scenario())
        assert value == "v1"  # reads still served; fast path refused
        assert stats["fast_reads_taken"] == 0
        assert stats["fast_read_fallbacks"] == 1
        assert stats["lease_invalidations"] == 1

    def test_recovered_empty_replicas_refuse_pre_crash_lease(self, config):
        """Crash-restart: replicas that lost their slots answer
        ``holds=False``, so a pre-crash lease cannot gather ``b + 1``
        confirmations and the read falls back."""
        async def scenario():
            async with fast_store(config) as store:
                await store.write("k", "v1")  # lease armed
                for i in range(config.num_objects):
                    store.replace_object(i, RegularObject(i, config))
                await store.read("k")
                return store.stats()

        stats = run(scenario())
        assert stats["fast_reads_taken"] == 0
        assert stats["fast_read_fallbacks"] == 1

    def test_stale_tag_forger_is_outvoted_on_probes(self, config):
        """A Byzantine replica vouching for a superseded lease loses to
        the honest quorum: one honest ``top > lease`` ack refutes."""
        async def scenario():
            async with fast_store(config, record_history=True) as store:
                await store.write("k", "v1")
                leases = store._states.leases.leases
                stale_tag = leases["k"].tag
                await store.write("k", "v2")
                # Rewind the table to a genuinely stale lease (as if it
                # had missed the second write's grant).
                leases["k"] = TagLease(tag=stale_tag, value="v1")
                store.make_byzantine(0, StaleTagForger(
                    store.object_automaton(0), config,
                    forged_tag=stale_tag, forged_value="v1"))
                value = await store.read("k")
                return value, store.stats(), store.history

        value, stats, history = run(scenario())
        assert value == "v2"  # never the stale leased value
        assert stats["fast_reads_taken"] == 0
        assert stats["fast_read_fallbacks"] == 1
        check_mwmr_atomicity(history).assert_ok()
        check_fast_read_freshness(history).assert_ok()

    def test_repeated_fallbacks_back_off_probing(self, config):
        async def scenario():
            async with fast_store(config) as store:
                await store.write("k", "v1")
                await store.read("k")
                for i in range(config.num_objects):
                    store.replace_object(i, RegularObject(i, config))
                await store.write("k", "v2")  # re-establish on new state
                probes_spent = 0
                for _ in range(6):
                    before = store.stats()
                    await store.read("k")
                    after = store.stats()
                    probes_spent += (after["fast_read_fallbacks"]
                                     - before["fast_read_fallbacks"])
                return probes_spent, store.stats()

        probes_spent, stats = run(scenario())
        # Backoff: after each failed probe the lease skips a growing
        # number of reads, so most of the 6 reads never probed at all.
        assert stats["fast_read_fallbacks"] <= 3


class TestShardedLeases:
    def test_sharded_stats_aggregate(self, config):
        async def scenario():
            async with ShardedKVStore(CachedRegularStorageProtocol, config,
                                      num_shards=2,
                                      fast_reads=True) as kv:
                for n in range(8):
                    await kv.put(f"key:{n}", n)
                    await kv.get(f"key:{n}")
                    await kv.get(f"key:{n}")
                return kv.stats()

        stats = run(scenario())
        assert stats["fast_reads_enabled"]
        assert stats["fast_reads_taken"] >= 8  # second get of each key
        assert set(stats["per_shard"]) == {0, 1}

    @staticmethod
    def _held(kv):
        return {key for shard in kv.shards.values()
                for key in shard._states.leases.leases}

    def test_routing_flip_drops_all_leases(self, config):
        async def scenario():
            async with ShardedKVStore(CachedRegularStorageProtocol, config,
                                      num_shards=2,
                                      fast_reads=True) as kv:
                await kv.put("key:0", "v")
                await kv.put("key:1", "v")
                await kv.get("key:0")
                before = self._held(kv)
                kv.apply_reconfiguration(kv.ring, dict(kv.shards))
                return before, self._held(kv), kv.stats()

        before, after, stats = run(scenario())
        assert before == {"key:0", "key:1"}
        assert after == set()
        assert stats["lease_invalidations"] == 2

    def test_routing_flip_drops_lease_no_reader_touched(self, config):
        """A write-granted lease exists before any reader state does; the
        flip must still drop it, and count it exactly once."""
        async def scenario():
            async with ShardedKVStore(CachedRegularStorageProtocol, config,
                                      num_shards=2,
                                      fast_reads=True) as kv:
                await kv.put("key:0", "v")
                kv.apply_reconfiguration(kv.ring, dict(kv.shards))
                invalidations = kv.stats()["lease_invalidations"]
                value = await kv.get("key:0")
                return value, invalidations, kv.stats()

        value, invalidations, stats = run(scenario())
        assert value == "v"
        assert invalidations == 1
        assert stats["fast_reads_taken"] == 0      # classic after the flip
        assert stats["lease_invalidations"] == 1

    def test_fenced_put_retry_invalidates_leases(self, config):
        async def scenario():
            async with ShardedKVStore(CachedRegularStorageProtocol, config,
                                      num_shards=1,
                                      fast_reads=True) as kv:
                await kv.put("key:0", "v")
                await kv.get("key:0")
                store = kv.store_for("key:0")
                for i in range(config.num_objects):
                    store.object_automaton(i).hard_fences.add("key:0")
                with pytest.raises(FencedWriteError):
                    await kv.put("key:0", "v2")
                return store.stats()

        stats = run(scenario())
        assert stats["lease_invalidations"] == 1

    def test_fenced_put_drops_lease_no_reader_touched(self, config):
        async def scenario():
            async with ShardedKVStore(CachedRegularStorageProtocol, config,
                                      num_shards=1,
                                      fast_reads=True) as kv:
                await kv.put("key:0", "v")
                store = kv.store_for("key:0")
                for i in range(config.num_objects):
                    store.object_automaton(i).hard_fences.add("key:0")
                with pytest.raises(FencedWriteError):
                    await kv.put("key:0", "v2")
                held = self._held(kv)
                value = await kv.get("key:0")
                return value, held, store.stats()

        value, held, stats = run(scenario())
        assert value == "v"
        assert held == set()
        assert stats["fast_reads_taken"] == 0
        assert stats["fast_read_fallbacks"] == 0   # nothing left to probe
        assert stats["lease_invalidations"] == 1

    def test_cluster_forwards_fast_reads_opt_in(self, config):
        from repro.api.cluster import Cluster

        async def scenario():
            async with Cluster(CachedRegularStorageProtocol, config,
                               num_shards=2, fast_reads=True) as cluster:
                async with cluster.session() as session:
                    await session.put("key:0", "v")
                    await session.get("key:0")
                    await session.get("key:0")
                return cluster.kv.stats()

        stats = run(scenario())
        assert stats["fast_reads_enabled"]
        assert stats["fast_reads_taken"] >= 1


# ---------------------------------------------------------------------------
# Property: lease freshness under racing writers
# ---------------------------------------------------------------------------


class TestLeaseFreshnessProperty:
    @given(
        plan=st.lists(
            st.tuples(st.integers(0, 1),       # writer index
                      st.integers(0, 99)),     # value
            min_size=2, max_size=6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_fast_reads_never_stale_under_racing_writers(self, plan, seed):
        """Interleave two writers with two readers probing the shared
        lease; every fast read must satisfy the same freshness clauses as
        classic reads (checker-gated, not value-asserted: with races the
        set of legal values is exactly what the checker encodes).  Reader
        1 never reads before the race, so its first read probes a lease
        only a write granted."""
        async def scenario():
            config = SystemConfig.optimal(t=1, b=1, num_readers=2,
                                          num_writers=2)
            async with fast_store(config, record_history=True,
                                  jitter=0.001, seed=seed) as store:
                await store.write("k", "seed", writer_index=0)  # arms it

                async def write_all():
                    for writer_index, value in plan:
                        await store.write("k", value,
                                          writer_index=writer_index)

                async def read_all():
                    for n in range(len(plan) + 2):
                        await store.read("k", reader_index=(n + 1) % 2)

                await asyncio.gather(write_all(), read_all())
                await store.read("k", reader_index=1)
                return store.history, store.stats()

        history, stats = run(scenario())
        check_mwmr_atomicity(history).assert_ok()
        check_fast_read_freshness(history).assert_ok()
        # Sanity: the machinery under test actually engaged.
        assert stats["fast_reads_enabled"]


# ---------------------------------------------------------------------------
# Rounds per operation, read from the recorded history
# ---------------------------------------------------------------------------


class TestRoundsPerOperation:
    def test_rounds_within_declared_bounds_under_stale_tag_forger(self):
        """A seeded 90/10 mix of two sessions over 64 preloaded keys, with
        replica 0 vouching for every lease: each fast read took one round,
        each other read at most the probe plus the classic worst case,
        each write at most the MWMR bound -- and writes arm the lease for
        both readers, so nearly every read is fast."""
        protocol = AtomicStorageProtocol()
        config = SystemConfig.optimal(t=1, b=1, num_readers=2,
                                      num_writers=2)
        keys = [f"key:{n}" for n in range(64)]
        rng = random.Random(1)
        plans = [[(rng.random() < 0.9, rng.choice(keys)) for _ in range(250)]
                 for _ in range(2)]

        async def scenario():
            async with Cluster(AtomicStorageProtocol, config, num_shards=1,
                               record_history=True,
                               fast_reads=True) as cluster:
                sessions = [cluster.session() for _ in plans]
                for client, session in enumerate(sessions):
                    await session.put_many(
                        {key: f"{key}|0" for key in keys[client::2]})
                honest = cluster.kv.store_for(keys[0]).object_automaton(0)
                cluster.admin().compromise_replica(
                    keys[0], 0, StaleTagForger(honest, config,
                                               forged_value="FORGED"))

                async def client_loop(client, session, plan):
                    for n, (is_get, key) in enumerate(plan):
                        if is_get:
                            assert await session.get(key) != "FORGED"
                        else:
                            await session.put(key, f"{key}|{client}|{n}")

                await asyncio.gather(*(
                    client_loop(client, session, plan)
                    for client, (session, plan)
                    in enumerate(zip(sessions, plans))))
                return cluster.history

        history = run(scenario())
        reads = history.reads(complete_only=True)
        fast = [op for op in reads if op.fast]
        assert len(reads) == sum(is_get for plan in plans
                                 for is_get, _ in plan)
        assert all(op.rounds_used == 1 for op in fast)
        assert all(op.rounds_used <= protocol.read_rounds_worst_case + 1
                   for op in reads if not op.fast)
        assert all(op.rounds_used <= protocol.write_rounds_bound(config)
                   for op in history.writes())
        assert len(fast) >= 0.95 * len(reads)
        check_per_register(history, check_mwmr_atomicity).assert_ok()
