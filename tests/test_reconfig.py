"""Live reconfiguration: epoch fences, shard handoff, replica repair."""

import asyncio
import time

import pytest

from repro.baselines import (AbdAtomicProtocol, AuthenticatedProtocol,
                             PassiveReaderProtocol)
from repro.config import SystemConfig
from repro.core.atomic import AtomicStorageProtocol
from repro.core.regular import CachedRegularStorageProtocol
from repro.core.regular.object import RegularObject
from repro.core.safe import SafeStorageProtocol
from repro.core.safe.object import SafeObject
from repro.errors import (BackpressureError, BusyRegisterError,
                          ConfigurationError, FencedWriteError)
from repro.messages import (EpochFence, EpochFenceAck, Pw, TagQuery, W,
                            WriteFenced, unbatch)
from repro.service import (HashRing, MultiRegisterStore,
                           ReconfigCoordinator, ShardedKVStore, owned_diff)
from repro.service.hashing import key_position
from repro.service.reconfig import FenceOperation
from repro.spec.checkers import (check_mwmr_atomicity,
                                 check_mwmr_regularity, check_per_register)
from repro.types import (TimestampValue, WriterTag, initial_write_tuple,
                         obj, writer)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def config() -> SystemConfig:
    return SystemConfig.optimal(t=1, b=1, num_readers=2)


# ---------------------------------------------------------------------------
# Object-level fencing
# ---------------------------------------------------------------------------


class TestEpochFenceAutomata:
    def _pw(self, ts, register_id="x", wid=0):
        pw = TimestampValue(ts, f"v{ts}", wid=wid)
        return Pw(ts=ts, pw=pw, w=initial_write_tuple(4, 2),
                  register_id=register_id, wid=wid)

    @pytest.mark.parametrize("object_cls", [SafeObject, RegularObject])
    def test_fence_rejects_stale_write_rounds(self, config, object_cls):
        automaton = object_cls(0, config)
        [(_, ack)] = automaton.on_message(
            writer(0), EpochFence(nonce=1, epoch=5, register_id="x",
                                  hard=True))
        assert isinstance(ack, EpochFenceAck) and ack.epoch == 5
        # A write round below the fence is refused with a report...
        [(_, nack)] = automaton.on_message(writer(0), self._pw(4))
        assert isinstance(nack, WriteFenced)
        assert nack.fence_epoch == 5 and nack.epoch == 4
        # ...and was not applied.
        assert "x" not in automaton.slots or automaton._slot("x").ts == 0
        # Every fence retires the register: no epoch passes it.
        [(_, reply)] = automaton.on_message(writer(0), self._pw(5))
        assert isinstance(reply, WriteFenced)

    def test_fence_is_per_register(self, config):
        automaton = RegularObject(0, config)
        automaton.on_message(writer(0),
                             EpochFence(nonce=1, epoch=9, register_id="x",
                                        hard=True))
        [(_, reply)] = automaton.on_message(
            writer(0), self._pw(1, register_id="y"))
        assert not isinstance(reply, WriteFenced)

    def test_fence_only_ratchets_upward(self, config):
        automaton = SafeObject(0, config)
        automaton.on_message(writer(0),
                             EpochFence(nonce=1, epoch=7, register_id="x",
                                        hard=True))
        [(_, ack)] = automaton.on_message(
            writer(0), EpochFence(nonce=2, epoch=3, register_id="x",
                                  hard=True))
        assert ack.epoch == 7  # lowering a fence is refused

    def test_frame_without_hard_flag_retires_nothing(self, config):
        """Soft fences (logged by earlier versions' heals) are inert."""
        automaton = RegularObject(0, config)
        automaton.on_message(writer(0),
                             EpochFence(nonce=1, epoch=9, register_id="x"))
        assert not automaton.fences
        [(_, reply)] = automaton.on_message(writer(0), self._pw(1))
        assert not isinstance(reply, WriteFenced)

    def test_w_round_fenced_too(self, config):
        automaton = SafeObject(0, config)
        automaton.on_message(writer(0),
                             EpochFence(nonce=1, epoch=5, register_id="x",
                                        hard=True))
        w = W(ts=2, pw=TimestampValue(2, "v"),
              w=initial_write_tuple(4, 2), register_id="x")
        [(_, nack)] = automaton.on_message(writer(0), w)
        assert isinstance(nack, WriteFenced)


# ---------------------------------------------------------------------------
# HashRing ownership transfer (satellite: moved fraction + exact diff)
# ---------------------------------------------------------------------------


class TestHashRingReconfig:
    KEYS = [f"key:{n}" for n in range(2000)]

    def test_add_shard_moves_bounded_fraction(self):
        before = HashRing(8)
        after = before.add_shard()
        moved = sum(1 for k in self.KEYS
                    if before.shard_for(k) != after.shard_for(k))
        # Ideal is 1/9 of the keyspace; allow up to 2/num_shards slack.
        assert 0 < moved <= len(self.KEYS) * 2 / before.num_shards
        # Every moved key lands on the new shard -- adding a shard only
        # pulls ring-adjacent arcs, it never shuffles third parties.
        for k in self.KEYS:
            if before.shard_for(k) != after.shard_for(k):
                assert after.shard_for(k) == 8

    def test_remove_shard_moves_only_its_keys(self):
        before = HashRing(8)
        after = before.remove_shard(3)
        for k in self.KEYS:
            if before.shard_for(k) != 3:
                assert after.shard_for(k) == before.shard_for(k)
            else:
                assert after.shard_for(k) != 3
        moved = sum(1 for k in self.KEYS if before.shard_for(k) == 3)
        assert 0 < moved <= len(self.KEYS) * 2 / before.num_shards

    def test_add_then_remove_is_identity(self):
        ring = HashRing(5)
        back = ring.add_shard(9).remove_shard(9)
        assert [back.shard_for(k) for k in self.KEYS[:500]] == \
            [ring.shard_for(k) for k in self.KEYS[:500]]

    def test_owned_diff_exact_against_brute_force(self):
        old = HashRing(4)
        for new in (old.add_shard(), old.remove_shard(1)):
            ranges = owned_diff(old, new)
            assert ranges == old.owned_diff(new)  # method alias
            for k in self.KEYS:
                pos = key_position(k)
                hits = [r for r in ranges if r.contains(pos)]
                if old.shard_for(k) == new.shard_for(k):
                    assert not hits, k
                else:
                    assert len(hits) == 1, k
                    assert hits[0].old_shard == old.shard_for(k)
                    assert hits[0].new_shard == new.shard_for(k)

    def test_owned_diff_of_identical_rings_is_empty(self):
        assert owned_diff(HashRing(4), HashRing(4)) == []

    def test_validation(self):
        ring = HashRing(2)
        with pytest.raises(ValueError):
            ring.add_shard(1)  # already present
        with pytest.raises(ValueError):
            ring.remove_shard(7)  # unknown
        with pytest.raises(ValueError):
            HashRing(1).remove_shard(0)  # last shard
        with pytest.raises(ValueError):
            HashRing(vnodes=8, shard_ids=[1, 1])

    def test_sparse_ids_equal_dense_prefix(self):
        # Ring identity depends only on the id set, not construction path.
        grown = HashRing(2).add_shard()
        dense = HashRing(3)
        assert [grown.shard_for(k) for k in self.KEYS[:300]] == \
            [dense.shard_for(k) for k in self.KEYS[:300]]


# ---------------------------------------------------------------------------
# Fence operation at the store level
# ---------------------------------------------------------------------------


class TestFenceOperation:
    def test_fence_then_stale_write_fails_fast(self, config):
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config) as store:
                await store.write("k", "v1")
                await store.write("k", "v2")
                await store.control_host().run(
                    FenceOperation(config, "k"), 5.0)
                with pytest.raises(FencedWriteError):
                    await store.write("k", "v3")
                # Reads are never fenced: the last value stays readable.
                assert await store.read("k") == "v2"
                # Only a lift (a hand-back) reopens the register.
                await store.control_host().run(
                    FenceOperation(config, "k", lift=True), 5.0)
                await store.write("k", "v4")
                return await store.read("k")

        assert run(scenario()) == "v4"

    def test_fence_on_safe_protocol(self, config):
        async def scenario():
            async with MultiRegisterStore(SafeStorageProtocol(),
                                          config) as store:
                await store.write("k", "v1")
                await store.control_host().run(
                    FenceOperation(config, "k"), 5.0)
                with pytest.raises(FencedWriteError):
                    await store.write("k", "v2")
                return await store.read("k")

        assert run(scenario()) == "v1"


# ---------------------------------------------------------------------------
# Shard handoff (the acceptance scenario)
# ---------------------------------------------------------------------------


class TestAddShard:
    def test_reshard_under_load_keeps_serving_and_checks_clean(self, config):
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2, seed=3, record_history=True)
            async with kv:
                keys = [f"user:{n}" for n in range(40)]
                for key in keys:
                    await kv.put(key, f"before-{key}")
                old_ring = kv.ring
                preview = old_ring.add_shard()
                moved = [k for k in keys
                         if preview.shard_for(k) != old_ring.shard_for(k)]
                unmoved = [k for k in keys if k not in moved]
                assert moved and unmoved

                # Concurrent load on unmoved keys throughout the handoff.
                stats = {"puts": 0, "gets": 0}
                done = asyncio.Event()

                async def load():
                    i = 0
                    while not done.is_set():
                        key = unmoved[i % len(unmoved)]
                        await kv.put(key, f"during-{i}")
                        stats["puts"] += 1
                        value = await kv.get(
                            unmoved[(i * 7) % len(unmoved)])
                        assert value is not None
                        stats["gets"] += 1
                        i += 1

                loader = asyncio.create_task(load())
                report = await ReconfigCoordinator(kv).add_shard()
                done.set()
                await loader

                # Routing flipped to 3 shard groups; the load progressed.
                assert kv.ring.shard_ids == (0, 1, 2)
                assert set(kv.shards) == {0, 1, 2}
                assert stats["puts"] > 0 and stats["gets"] > 0
                assert set(report.moved) == set(moved)
                # Moved keys read their last pre-handoff value at the new
                # home (served by the new shard group).
                for key in moved:
                    assert kv.shard_for(key) == 2
                    assert await kv.get(key) == f"before-{key}"

                # A stale-epoch write through the old source shard is
                # fenced -- rejected, not silently applied.
                stale_key = moved[0]
                source = kv.shards[old_ring.shard_for(stale_key)]
                with pytest.raises(FencedWriteError):
                    await source.write(stale_key, "stale")
                assert await kv.get(stale_key) == f"before-{stale_key}"

                # Post-flip writes to moved keys succeed at the new home.
                await kv.put(stale_key, "fresh")
                assert await kv.get(stale_key) == "fresh"

                # The recorded history spans the handoff and still checks
                # regular per register under the tag-based checker.
                result = check_per_register(kv.history,
                                            check_mwmr_regularity)
                assert result.ok, result.violations[:3]

        run(scenario())

    @pytest.mark.parametrize("factory", [AtomicStorageProtocol,
                                         CachedRegularStorageProtocol])
    def test_handoff_sends_do_not_grow_with_moved_keys(self, factory):
        """Fence, lift, read and install each move every key of one
        source/target pair in one vector round, so a handoff's sends
        are the same for 32 keys as for 256."""
        async def sends(keys):
            kv = ShardedKVStore(factory, SystemConfig.optimal(t=1, b=1),
                                num_shards=2, seed=1)
            async with kv:
                await kv.put_many({f"key:{n}": n for n in range(keys)})
                before = sum(s.network.messages_sent
                             for s in kv.shards.values())
                report = await ReconfigCoordinator(kv).add_shard()
                after = sum(s.network.messages_sent
                            for s in kv.shards.values())
                for n in range(keys):
                    assert await kv.get(f"key:{n}") == n
                return after - before, len(report.moved)

        few, few_moved = run(sends(32))
        many, many_moved = run(sends(256))
        assert few_moved < many_moved
        assert many == few < many_moved

    def test_explicit_store_and_shard_id(self, config):
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2, seed=1)
            async with kv:
                await kv.put("a", 1)
                custom = kv.make_shard_store(7)
                report = await ReconfigCoordinator(kv).add_shard(
                    shard_id=7, store=custom)
                assert report.shard_id == 7
                assert kv.shards[7] is custom
                assert kv.ring.shard_ids == (0, 1, 7)
                return await kv.get("a")

        assert run(scenario()) == 1

    def test_unwritten_keys_are_skipped_not_replayed(self, config):
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2, seed=2)
            async with kv:
                preview = kv.ring.add_shard()
                # Touch (read-only) keys until one would move.
                n = 0
                while True:
                    key = f"ghost:{n}"
                    if preview.shard_for(key) != kv.ring.shard_for(key):
                        break
                    n += 1
                assert await kv.get(key) is None  # known but never written
                report = await ReconfigCoordinator(kv).add_shard()
                assert key in report.skipped and key not in report.moved
                return await kv.get(key)

        assert run(scenario()) is None


class TestRemoveShard:
    def test_drain_scatters_keys_and_stops_store(self, config):
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=3, seed=5, record_history=True)
            async with kv:
                keys = [f"k:{n}" for n in range(30)]
                for key in keys:
                    await kv.put(key, f"v-{key}")
                drained_store = kv.shards[2]
                owned = [k for k in keys if kv.shard_for(k) == 2]
                assert owned
                report = await ReconfigCoordinator(kv).remove_shard(2)
                assert set(report.moved) == set(owned)
                assert kv.ring.shard_ids == (0, 1)
                assert 2 not in kv.shards
                assert not drained_store._started
                for key in keys:
                    assert await kv.get(key) == f"v-{key}"
                result = check_per_register(kv.history,
                                            check_mwmr_regularity)
                assert result.ok, result.violations[:3]

        run(scenario())

    def test_remove_validation(self, config):
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2)
            async with kv:
                coordinator = ReconfigCoordinator(kv)
                with pytest.raises(ConfigurationError):
                    await coordinator.remove_shard(9)

        run(scenario())


class TestMultiWriterHandoff:
    def test_mwmr_reshard_keeps_tag_order(self):
        config = SystemConfig.optimal(t=1, b=1, num_readers=2,
                                      num_writers=2)
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2, seed=11, record_history=True)
            async with kv:
                keys = [f"m:{n}" for n in range(16)]
                for i, key in enumerate(keys):
                    await kv.put(key, f"w0-{key}", writer_index=0)
                    await kv.put(key, f"w1-{key}", writer_index=1)
                report = await ReconfigCoordinator(kv).add_shard()
                assert report.moved  # something crossed shards
                for key in keys:
                    assert await kv.get(key) == f"w1-{key}"
                # Writers keep racing after the handoff; discovery must
                # land above the installed tags.
                for key in report.moved:
                    await kv.put(key, f"post-{key}", writer_index=1)
                    assert await kv.get(key) == f"post-{key}"
                result = check_per_register(kv.history,
                                            check_mwmr_atomicity)
                # Regularity is the contract; atomicity may legitimately
                # fail only through concurrency, absent here (sequential
                # ops), so assert the stronger property.
                assert result.ok, result.violations[:3]

        run(scenario())


    def test_write_in_flight_at_the_flip_takes_no_tag_reused_later(self):
        """A source write still discovering its tag when routing flips
        fails there; had it chosen a tag after the target's writer floor
        was seeded, the target's next write would take the same one."""
        config = SystemConfig.optimal(t=1, b=1, num_writers=2)

        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=1, record_history=True)
            async with kv:
                await kv.put("k", "v0")
                source = kv.shards[0]
                stale = []

                async def hook(stage, key):
                    if stage == "flip":
                        stale.append(asyncio.ensure_future(source.write(
                            "k", "stale", writer_index=1)))
                        await asyncio.sleep(0)  # admitted, discovering

                await ReconfigCoordinator(kv, chaos_hook=hook).add_shard()
                with pytest.raises(FencedWriteError):
                    await stale[0]
                await kv.put("k", "new", writer_index=1)
                assert await kv.get("k") == "new"
                tags = [w.tag for w in kv.history.writes()
                        if w.tag is not None]
                assert len(tags) == len(set(tags)), tags
                result = check_per_register(kv.history,
                                            check_mwmr_atomicity)
                assert result.ok, result.violations[:3]

        run(scenario())


# ---------------------------------------------------------------------------
# Replica replacement / repair
# ---------------------------------------------------------------------------


class TestHealReplica:
    def test_replacement_resyncs_and_survives_second_crash(self, config):
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2, seed=5)
            async with kv:
                keys = [f"k:{n}" for n in range(20)]
                for key in keys:
                    await kv.put(key, f"v-{key}")
                store = kv.shards[0]
                owned = [k for k in keys if kv.shard_for(k) == 0]
                store.crash_object(0)
                await kv.put(owned[0], "post-crash")  # quorum without s1
                report = await ReconfigCoordinator(kv).heal_replica(0, 0)
                assert set(report.moved) == set(owned)
                # The healed replica materialized every owned key.
                healed = store.object_automaton(0)
                assert set(owned) <= set(healed.registers())
                # Lose a *different* replica: quorums now depend on the
                # healed one actually holding data.
                store.crash_object(3)
                assert await kv.get(owned[0]) == "post-crash"
                for key in owned[1:4]:
                    assert await kv.get(key) == f"v-{key}"

        run(scenario())

    @pytest.mark.parametrize("factory, b, via", [
        pytest.param(factory, b, via, id=f"{factory.__name__}-{b}"
                     + ("" if via == "heal" else f"-{via}"))
        for via in ("heal", "add_shard") for factory, b in [
            (SafeStorageProtocol, 1), (CachedRegularStorageProtocol, 1),
            (AtomicStorageProtocol, 1), (AbdAtomicProtocol, 0),
            (AuthenticatedProtocol, 1), (PassiveReaderProtocol, 1)]])
    def test_heal_installs_the_original_tag(self, factory, b, via):
        """A heal, and a handoff (``"k"`` moves to the added shard),
        install the put's own tag, not a fresh one."""
        async def scenario():
            kv = ShardedKVStore(factory, SystemConfig.optimal(t=1, b=b),
                                num_shards=1)
            async with kv:
                await kv.put("k", "v1")
                if via == "heal":
                    kv.shards[0].crash_object(0)
                await kv.put("k", "v2")
                if via == "heal":
                    await ReconfigCoordinator(kv).heal_replica(0, 0)
                else:
                    await ReconfigCoordinator(kv).add_shard()
                    assert kv.shard_for("k") == 1
                healed = kv.store_for("k").object_automaton(0)
                [(_, ack)] = healed.on_message(
                    writer(0), TagQuery(nonce=1, register_id="k"))
                return ack.tag

        assert run(scenario()) == WriterTag(2, 0)

    def test_heal_needs_a_replica_index(self, config):
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=1)
            async with kv:
                with pytest.raises(ConfigurationError):
                    await ReconfigCoordinator(kv).heal_replica(0)

        run(scenario())

    def test_heal_sleeps_behind_a_stuck_read(self, config):
        """A heal whose read finds its register busy behind a read no
        quorum can finish awaits that call; it does not spin the loop
        until the deadline."""
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=1)
            async with kv:
                await kv.put("k", "v1")
                store = kv.shards[0]
                for index in range(config.t + 1):
                    store.crash_object(index)
                stuck = asyncio.ensure_future(store.read("k", timeout=0.2))
                await asyncio.sleep(0)
                cpu = time.process_time()
                report = await ReconfigCoordinator(kv).heal_replica(0, 0)
                spent = time.process_time() - cpu
                with pytest.raises(asyncio.TimeoutError):
                    await stuck
                assert set(report.moved) == {"k"}
                return spent

        assert run(scenario()) < 0.05

    def test_install_read_grants_no_lease(self):
        """A write whose W reached only b+1 replicas is what a heal's
        read may return; a lease on it would let a fast read return a
        value a later classic atomic read does not."""
        async def scenario():
            kv = ShardedKVStore(AtomicStorageProtocol,
                                SystemConfig.optimal(t=1, b=1),
                                num_shards=1, fast_reads=True)
            async with kv:
                await kv.put("k", "v1")
                assert await kv.get("k") == "v1"
                store = kv.shards[0]
                send = store.network.send

                def w_reaches_two(sender, receiver, payload):
                    if receiver in (obj(2), obj(3)) and any(
                            isinstance(part, W)
                            for part in unbatch(payload)):
                        return
                    send(sender, receiver, payload)

                store.network.send = w_reaches_two
                with pytest.raises(asyncio.TimeoutError):
                    await store.write("k", "v2", timeout=0.05)
                store.network.send = send
                await ReconfigCoordinator(kv).heal_replica(0, 3)
                # The heal's read returned the partial write: installed.
                assert WriterTag(2, 0) in \
                    store.object_automaton(3).slots["k"].history
                lease = store._states.leases.leases.get("k")
                return None if lease is None else lease.tag

        assert run(scenario()) != WriterTag(2, 0)

    def test_heal_progresses_under_gets_at_the_pending_cap(self, config):
        """Application gets keep reader 0 busy up to just below its
        pending cap; the heal reads what it can admit meanwhile."""
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=1, max_pending_per_host=4)
            async with kv:
                keys = [f"k{n}" for n in range(32)]
                for key in keys:
                    await kv.put(key, key)
                kv.shards[0].crash_object(0)
                done = asyncio.Event()

                async def gets(offset):
                    n = offset
                    while not done.is_set():
                        try:
                            assert await kv.get(keys[n % 32]) == keys[n % 32]
                        except (BusyRegisterError, BackpressureError):
                            await asyncio.sleep(0)
                        n += 3

                loaders = [asyncio.create_task(gets(i)) for i in range(3)]
                await asyncio.sleep(0)
                report = await asyncio.wait_for(
                    ReconfigCoordinator(kv).heal_replica(0, 0), 10)
                done.set()
                await asyncio.gather(*loaders)
                return set(report.moved), set(keys)

        moved, keys = run(scenario())
        assert moved == keys

    def test_heal_reads_beside_a_stuck_call_at_the_pending_cap(self,
                                                                config):
        """One stuck call holds reader 0's only other pending slot; the
        heal's reads fit in the room left instead of waiting it out."""
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2, seed=5,
                                max_pending_per_host=2)
            async with kv:
                keys = [f"k:{n}" for n in range(12)]
                for key in keys:
                    await kv.put(key, key)
                store = kv.shards[0]
                foreign = next(k for k in keys if kv.shard_for(k) == 1)
                for index in range(config.t + 1):
                    store.crash_object(index)
                stuck = asyncio.ensure_future(store.read(foreign,
                                                         timeout=30))
                await asyncio.sleep(0)
                report = await asyncio.wait_for(
                    ReconfigCoordinator(kv).heal_replica(0, 0), 5)
                stuck.cancel()
                return set(report.moved), {
                    k for k in keys if kv.shard_for(k) == 0}

        moved, owned = run(scenario())
        assert moved == owned

    def test_replace_object_inherits_inbox(self, config):
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config) as store:
                await store.write("k", "v1")
                # Wedge replica 0 (task stopped, pid not crashed): the
                # next write round parks in its inbox.
                store._object_hosts[0].stop()
                await store.write("k", "v2")  # completes via s2..s4
                assert store.network.inbox(obj(0)).qsize() > 0
                # Replacement takes over the queue and drains the backlog.
                store.replace_object(0)
                await asyncio.sleep(0.01)
                assert store.network.inbox(obj(0)).qsize() == 0
                healed = store.object_automaton(0)
                # The parked PW/W rounds for v2 reached the new automaton.
                assert "k" in healed.registers()
                return await store.read("k")

        assert run(scenario()) == "v2"


# ---------------------------------------------------------------------------
# Per-register checking helper
# ---------------------------------------------------------------------------


class TestCheckPerRegister:
    def test_merges_subhistory_results(self, config):
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config,
                                          record_history=True) as store:
                await store.write("a", 1)
                await store.write("b", 2)
                await store.read("a")
                await store.read("b")
                return store.history

        history = run(scenario())
        result = check_per_register(history, check_mwmr_regularity)
        assert result.ok and result.checked_reads == 2
        assert "check_mwmr_regularity" in result.property_name

    def test_violations_are_register_tagged(self):
        from repro.spec.histories import History
        history = History()
        history.record_invocation(1, writer(0), "WRITE", argument="x",
                                  register="r")
        history.record_completion(1, "OK", tag=WriterTag(1, 0))
        history.record_invocation(2, writer(0), "READ", register="r")
        history.record_completion(2, "forged", tag=WriterTag(9, 0))
        result = check_per_register(history, check_mwmr_regularity)
        assert not result.ok
        assert result.violations[0].startswith("[r]")


# ---------------------------------------------------------------------------
# Races found in review: mid-migration writes, heal lost-update, drain stop
# ---------------------------------------------------------------------------


class TestMidMigrationWrites:
    def test_key_first_written_during_migration_is_not_stranded(self,
                                                                config):
        """A put acknowledged while the handoff is in flight must be
        readable after the flip even if its key lands on a moved arc."""
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2, seed=3)
            async with kv:
                for n in range(25):
                    await kv.put(f"old:{n}", n)
                preview = kv.ring.add_shard()
                # Fresh keys the old ring owns but the new ring moves.
                fresh = [f"fresh:{n}" for n in range(200)
                         if preview.shard_for(f"fresh:{n}")
                         != kv.ring.shard_for(f"fresh:{n}")][:3]
                assert fresh

                async def write_mid_migration():
                    # Wait until the migration provably started (some
                    # source object carries a fence), then write keys
                    # the initial enumeration cannot have seen.
                    def fencing_started():
                        return any(
                            store.object_automaton(0).fences
                            for store in kv.shards.values())
                    while not fencing_started():
                        await asyncio.sleep(0)
                    written = []
                    for key in fresh:
                        try:
                            await kv.put(key, f"mid-{key}")
                            written.append(key)
                        except FencedWriteError:
                            pass  # already fenced: the put failed fast
                    return written

                writer_task = asyncio.create_task(write_mid_migration())
                await ReconfigCoordinator(kv).add_shard()
                written = await writer_task
                # Every acknowledged mid-migration put survives the flip.
                for key in written:
                    assert await kv.get(key) == f"mid-{key}", key
                return written

        # The scenario asserts internally; written may be empty only if
        # every fresh put lost the race, which the fence guarantees is
        # reported -- never silent.
        run(scenario())


class TestHealUnderLoad:
    def test_no_lost_update_during_heal(self, config):
        """An application write acknowledged during heal_replica must not
        be buried by the coordinator's re-install."""
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2, seed=5)
            async with kv:
                keys = [f"k:{n}" for n in range(12)]
                for key in keys:
                    await kv.put(key, "base")
                owned = [k for k in keys if kv.shard_for(k) == 0]
                store = kv.shards[0]
                store.crash_object(1)
                done = asyncio.Event()
                last_acked: dict = {}

                async def load():
                    i = 0
                    while not done.is_set():
                        key = owned[i % len(owned)]
                        try:
                            await kv.put(key, f"app-{i}")
                            last_acked[key] = f"app-{i}"
                        except (FencedWriteError, BusyRegisterError):
                            pass  # failed fast: nothing was acked
                        i += 1
                        await asyncio.sleep(0)

                loader = asyncio.create_task(load())
                report = await ReconfigCoordinator(kv).heal_replica(0, 1)
                done.set()
                await loader
                assert set(report.moved) == set(owned)
                for key, value in last_acked.items():
                    assert await kv.get(key) == value, key

        run(scenario())


def _parking_hook(at_key):
    """A chaos hook parking its heal at ``("snapshotted", at_key)``."""
    parked, resume = asyncio.Event(), asyncio.Event()

    async def hook(stage, key):
        if stage == "snapshotted" and key == at_key:
            parked.set()
            await resume.wait()

    return hook, parked, resume


async def _parked_heal(kv, replica, key):
    """Start healing ``replica`` of shard 0; return once it is parked at
    ``key``'s snapshot, with the task and the event that resumes it."""
    hook, parked, resume = _parking_hook(key)
    task = asyncio.create_task(
        ReconfigCoordinator(kv, chaos_hook=hook).heal_replica(0, replica))
    await parked.wait()
    return task, resume


class TestOverlappingHeals:
    """Heals overlapping each other, puts and shard-set changes: staged
    by the ``"snapshotted"`` hook, no sleeps."""

    MWMR = SystemConfig.optimal(t=1, b=1, num_writers=2)

    async def _seeded(self, kv, keys=10):
        for n in range(keys):
            await kv.put(f"k{n}", n)

    def _assert_atomic(self, kv):
        result = check_per_register(kv.history, check_mwmr_atomicity)
        assert result.ok, result.violations[:3]

    def test_acked_put_survives_a_parked_heal(self):
        async def scenario():
            kv = ShardedKVStore(AtomicStorageProtocol, self.MWMR,
                                num_shards=1, record_history=True)
            async with kv:
                await self._seeded(kv)
                heal_a, resume_a = await _parked_heal(kv, 0, "k5")
                await ReconfigCoordinator(kv).heal_replica(0, 1)
                await kv.put("k5", 105, writer_index=1, retries=5)
                resume_a.set()
                await heal_a
                assert await kv.get("k5") == 105
                self._assert_atomic(kv)

        run(scenario())

    def test_parked_heal_is_not_aborted_by_a_later_heal(self):
        async def scenario():
            kv = ShardedKVStore(AtomicStorageProtocol, self.MWMR,
                                num_shards=1, record_history=True)
            async with kv:
                await self._seeded(kv)
                heal_a, resume_a = await _parked_heal(kv, 0, "k5")
                await ReconfigCoordinator(kv).heal_replica(0, 1)
                await kv.put("k5", 105, writer_index=1, retries=5)
                heal_c, resume_c = await _parked_heal(kv, 2, "k5")
                resume_a.set()
                await heal_a  # no FencedWriteError escapes
                resume_c.set()
                await heal_c
                assert await kv.get("k5") == 105
                self._assert_atomic(kv)

        run(scenario())

    def test_heal_parked_on_a_moving_key_resyncs_every_later_key(self):
        async def scenario():
            kv = ShardedKVStore(AtomicStorageProtocol, self.MWMR,
                                num_shards=1, record_history=True)
            async with kv:
                await self._seeded(kv, keys=20)
                preview = kv.ring.add_shard()
                keys = kv.shards[0].registers()
                moving = next(k for k in keys
                              if preview.shard_for(k) != 0)
                later = [k for k in keys[keys.index(moving) + 1:]
                         if preview.shard_for(k) == 0]
                assert later
                heal, resume = await _parked_heal(kv, 0, moving)
                await ReconfigCoordinator(kv).add_shard()
                resume.set()
                await heal  # no FencedWriteError escapes
                healed = kv.shards[0].object_automaton(0)
                for key in later:
                    history = healed.slots[key].history
                    assert any(entry.w is not None
                               and entry.w.tsval.value == int(key[1:])
                               for entry in history.values()), key
                self._assert_atomic(kv)

        run(scenario())


class TestShardSetChangesSerialise:
    """``add_shard`` parked mid-handoff while ``remove_shard`` starts:
    the second change waits for the first and derives its ring from the
    one the first left.  Staged by the ``"snapshotted"`` hook; the only
    waiting is on events and loop turns."""

    MWMR = SystemConfig.optimal(t=1, b=1, num_writers=2)

    def test_remove_waits_for_a_parked_add(self):
        async def scenario():
            kv = ShardedKVStore(AtomicStorageProtocol, self.MWMR,
                                num_shards=2, record_history=True)
            async with kv:
                acked = {}
                for n in range(20):
                    await kv.put(f"k{n}", n, writer_index=n % 2)
                    acked[f"k{n}"] = n
                grown = kv.ring.add_shard()
                both = next(k for k in sorted(acked)
                            if kv.shard_for(k) == 0
                            and grown.shard_for(k) == 2)
                hook, parked, resume = _parking_hook(both)
                add = asyncio.create_task(
                    ReconfigCoordinator(kv, chaos_hook=hook).add_shard())
                await parked.wait()
                remove = asyncio.create_task(
                    ReconfigCoordinator(kv).remove_shard(0))
                # Let the drain run as far as it can without the add.
                for _ in range(200):
                    if remove.done():
                        break
                    await asyncio.sleep(0)
                resume.set()
                await add
                await remove
                assert set(kv.shards) == {1, 2}
                for key, value in acked.items():
                    assert await kv.get(key) == value, key
                result = check_per_register(kv.history,
                                            check_mwmr_atomicity)
                assert result.ok, result.violations[:3]

        run(scenario())


class TestDrainQuiesces:
    def test_reads_in_flight_at_flip_complete(self, config):
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=3, seed=7)
            async with kv:
                keys = [f"k:{n}" for n in range(30)]
                for key in keys:
                    await kv.put(key, f"v-{key}")
                draining = [k for k in keys if kv.shard_for(k) == 2]
                assert draining
                done = asyncio.Event()
                reads = {"ok": 0, "busy": 0}

                async def load():
                    i = 0
                    while not done.is_set():
                        key = draining[i % len(draining)]
                        try:
                            value = await kv.get(key, reader_index=1)
                            assert value == f"v-{key}"
                            reads["ok"] += 1
                        except BusyRegisterError:
                            reads["busy"] += 1
                        i += 1

                loader = asyncio.create_task(load())
                await ReconfigCoordinator(kv).remove_shard(2)
                done.set()
                await loader
                assert reads["ok"] > 0
                return reads

        run(scenario())


class TestHardFence:
    def test_hard_fence_rejects_any_epoch(self, config):
        """An epoch-only fence can be outrun by chained tag discoveries;
        a hard fence retires the register outright."""
        automaton = RegularObject(0, config)
        automaton.on_message(writer(0), EpochFence(
            nonce=1, epoch=5, register_id="x", hard=True))
        pw = Pw(ts=10**9, pw=TimestampValue(10**9, "late"),
                w=initial_write_tuple(4, 2), register_id="x")
        [(_, nack)] = automaton.on_message(writer(0), pw)
        assert isinstance(nack, WriteFenced)

    def test_migration_installs_hard_fences(self, config):
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2, seed=3)
            async with kv:
                for n in range(20):
                    await kv.put(f"k:{n}", n)
                old_ring = kv.ring
                report = await ReconfigCoordinator(kv).add_shard()
                moved_key = next(iter(report.moved))
                source = kv.shards[old_ring.shard_for(moved_key)]
                fenced = source.object_automaton(0).fences
                assert moved_key in fenced
                # Even an epoch far above the fence cannot write the
                # retired register at the source.
                source.seed_writer_epoch(moved_key, 10**6)
                with pytest.raises(FencedWriteError):
                    await source.write(moved_key, "chained-past-margin")

        run(scenario())


class TestRetiredIdsNotReused:
    def test_add_after_draining_highest_id_picks_fresh_id(self, config):
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=3, seed=7)
            async with kv:
                await kv.put("a", 1)
                coordinator = ReconfigCoordinator(kv)
                await coordinator.remove_shard(2)
                assert kv.retired_shard_ids == {2}
                report = await coordinator.add_shard()
                assert report.shard_id == 3  # not the retired 2
                assert set(kv.shards) == {0, 1, 3}
                return await kv.get("a")

        assert run(scenario()) == 1


class TestHandBack:
    def test_move_back_to_former_owner_lifts_hard_fence(self, config):
        """add_shard then remove_shard routes keys back to stores that
        hard-fenced them; the hand-back must lift those fences."""
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2, seed=3, record_history=True)
            async with kv:
                keys = [f"k:{n}" for n in range(25)]
                for key in keys:
                    await kv.put(key, f"v-{key}")
                coordinator = ReconfigCoordinator(kv)
                grown = await coordinator.add_shard()
                assert grown.moved
                # Drain the shard we just added: every key it received
                # goes back to a store that hard-fenced it.
                drained = await coordinator.remove_shard(grown.shard_id)
                assert set(drained.moved) == set(grown.moved)
                for key in keys:
                    assert await kv.get(key) == f"v-{key}", key
                # The keys are writable again at their (re)current home.
                for key in list(grown.moved)[:3]:
                    await kv.put(key, f"back-{key}")
                    assert await kv.get(key) == f"back-{key}"
                result = check_per_register(kv.history,
                                            check_mwmr_regularity)
                assert result.ok, result.violations[:3]

        run(scenario())

    def test_hand_back_put_lands_above_the_installed_tag(self):
        """Single writer: the key's tag rises at its new group, then the
        hand-back installs that tag at the old home.  The old home's
        writer counter is seeded past it, so its next put is not buried
        below the installed tuple."""
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol,
                                SystemConfig.optimal(t=1, b=1),
                                num_shards=1, record_history=True)
            async with kv:
                await kv.put("k", "v0")
                coordinator = ReconfigCoordinator(kv)
                grown = await coordinator.add_shard()
                assert kv.shard_for("k") == grown.shard_id
                for n in range(1, 4):
                    await kv.put("k", f"v{n}")
                await coordinator.remove_shard(grown.shard_id)
                assert kv.shard_for("k") == 0
                await kv.put("k", "home", timeout=2.0)
                assert await kv.get("k") == "home"
                result = check_per_register(kv.history,
                                            check_mwmr_regularity)
                assert result.ok, result.violations[:3]

        run(scenario())

    @pytest.mark.parametrize("factory", [SafeStorageProtocol,
                                         CachedRegularStorageProtocol])
    def test_hand_back_reads_after_reads_elsewhere(self, config, factory):
        """Reads at the new group raise its objects' reader timestamps,
        which the key's next write records in its tuple.  Handed back,
        that tuple must not read as an accusation against every object
        of the old home, whose reader timestamps are lower."""
        async def scenario():
            kv = ShardedKVStore(factory, config, num_shards=1)
            async with kv:
                await kv.put("k", "v0")
                coordinator = ReconfigCoordinator(kv)
                grown = await coordinator.add_shard()
                for _ in range(4):
                    await kv.get("k")
                await kv.put("k", "v1")
                await coordinator.remove_shard(grown.shard_id)
                return await kv.get("k", timeout=2.0)

        assert run(scenario()) == "v1"

    def test_lift_clears_both_fences_at_object(self, config):
        automaton = RegularObject(0, config)
        automaton.on_message(writer(0), EpochFence(
            nonce=1, epoch=5, register_id="x", hard=True))
        assert automaton._fence_rejects("x")
        automaton.on_message(writer(0), EpochFence(
            nonce=2, epoch=0, register_id="x", lift=True))
        assert not automaton._fence_rejects("x")
        assert "x" not in automaton.fences


class TestReconfigOnBaselines:
    def test_abd_store_reshards(self):
        """Fencing must work on protocol families with their own
        discovery vocabulary (ABD speaks AbdQuery, not TagQuery)."""
        config = SystemConfig.optimal(t=1, b=0, num_readers=2)
        from repro.baselines.abd import AbdRegularProtocol

        async def scenario():
            kv = ShardedKVStore(AbdRegularProtocol, config,
                                num_shards=2, seed=3)
            async with kv:
                keys = [f"k:{n}" for n in range(20)]
                for key in keys:
                    await kv.put(key, f"v-{key}")
                report = await ReconfigCoordinator(kv).add_shard()
                assert report.moved
                for key in keys:
                    assert await kv.get(key) == f"v-{key}", key
                stale = next(iter(report.moved))
                src = report.moved[stale][0]
                with pytest.raises(FencedWriteError):
                    await kv.shards[src].write(stale, "stale")

        run(scenario())

    def test_authenticated_store_reshards(self):
        config = SystemConfig.optimal(t=1, b=1, num_readers=2)
        from repro.baselines.authenticated import AuthenticatedProtocol

        async def scenario():
            kv = ShardedKVStore(AuthenticatedProtocol, config,
                                num_shards=2, seed=4)
            async with kv:
                keys = [f"k:{n}" for n in range(12)]
                for key in keys:
                    await kv.put(key, f"v-{key}")
                report = await ReconfigCoordinator(kv).add_shard()
                assert report.moved
                for key in keys:
                    assert await kv.get(key) == f"v-{key}", key

        run(scenario())
