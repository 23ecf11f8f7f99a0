"""Service tier: MultiRegisterStore, ShardedKVStore, HashRing, batching."""

import asyncio
import random
import time

import pytest

from repro.adversary.byzantine import ValueForger
from repro.config import SystemConfig
from repro.core.regular import CachedRegularStorageProtocol, RegularObject
from repro.core.safe import SafeStorageProtocol
from repro.errors import FencedWriteError, TransportError
from repro.messages import Batch, WriteAck
from repro.runtime import MuxClientHost, coalesce_outgoing
from repro.service import HashRing, MultiRegisterStore, ShardedKVStore
from repro.types import BOTTOM, obj


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def config() -> SystemConfig:
    return SystemConfig.optimal(t=1, b=1, num_readers=2)


class TestHashRing:
    def test_stable_placement(self):
        ring = HashRing(4)
        keys = [f"key:{n}" for n in range(100)]
        first = [ring.shard_for(k) for k in keys]
        second = [HashRing(4).shard_for(k) for k in keys]
        assert first == second  # deterministic across instances

    def test_covers_all_shards(self):
        ring = HashRing(4)
        owners = {ring.shard_for(f"key:{n}") for n in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_consistency_on_growth(self):
        """Adding a shard moves only a fraction of the keyspace."""
        keys = [f"key:{n}" for n in range(500)]
        before = HashRing(4)
        after = HashRing(5)
        moved = sum(1 for k in keys
                    if before.shard_for(k) != after.shard_for(k))
        # Ideal is ~1/5 of keys; allow generous slack for small rings.
        assert moved < len(keys) // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)


class TestCoalescing:
    def test_groups_per_receiver(self):
        a, b = obj(0), obj(1)
        out = coalesce_outgoing([
            (a, WriteAck(ts=1, object_index=0, register_id="x")),
            (b, WriteAck(ts=1, object_index=1, register_id="x")),
            (a, WriteAck(ts=2, object_index=0, register_id="y")),
        ])
        assert len(out) == 2
        batched = dict(out)[a]
        assert isinstance(batched, Batch) and len(batched.messages) == 2
        assert not isinstance(dict(out)[b], Batch)  # singleton stays bare

    def test_raw_payloads_never_batched(self):
        a = obj(0)
        out = coalesce_outgoing([(a, "probe1"), (a, "probe2")])
        assert out == [(a, "probe1"), (a, "probe2")]


class TestMultiRegisterStore:
    def test_write_read_many_registers(self, config):
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config) as store:
                for n in range(20):
                    await store.write(f"reg{n}", f"value{n}")
                return [await store.read(f"reg{n}", reader_index=n % 2)
                        for n in range(20)]

        assert run(scenario()) == [f"value{n}" for n in range(20)]

    def test_batched_write_many_read_many(self, config):
        async def scenario():
            async with MultiRegisterStore(SafeStorageProtocol(),
                                          config) as store:
                await store.write_many(
                    {f"k{n}": n * n for n in range(32)})
                values = await store.read_many([f"k{n}" for n in range(32)])
                return values, store.network.messages_sent

        values, messages = run(scenario())
        assert values == {f"k{n}": n * n for n in range(32)}
        # Batching: far fewer envelopes than ops x objects x rounds
        # (32 registers x 4 objects x 4 rounds = 512 unbatched sends
        # client-side alone).
        assert messages < 200

    def test_read_many_dedupes_register_ids(self, config):
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config) as store:
                await store.write("x", 1)
                return await store.read_many(["x", "x", "x"])

        assert run(scenario()) == {"x": 1}

    def test_unread_register_returns_bottom(self, config):
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config) as store:
                return await store.read("never-written")

        assert run(scenario()) is BOTTOM

    def test_replica_set_is_shared(self, config):
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config) as store:
                await store.write_many({f"k{n}": n for n in range(10)})
                automaton = store.object_automaton(0)
                return len(automaton.registers())

        assert run(scenario()) == 10  # one automaton holds all slots

    def test_byzantine_replica_affects_no_register(self, config):
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config) as store:
                await store.write_many({f"k{n}": f"true{n}"
                                        for n in range(8)})
                store.make_byzantine(1, ValueForger(
                    store.object_automaton(1), config,
                    forged_value="$EVIL$", ts_boost=10**6))
                return await store.read_many([f"k{n}" for n in range(8)])

        values = run(scenario())
        assert values == {f"k{n}": f"true{n}" for n in range(8)}

    def test_crashed_replica_tolerated(self, config):
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config) as store:
                await store.write("k", "v1")
                store.crash_object(3)
                await store.write("k", "v2")
                return await store.read("k")

        assert run(scenario()) == "v2"

    def test_same_register_concurrency_rejected(self, config):
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config) as store:
                await store.write_many({})  # empty batch is a no-op
                operations = [
                    store.protocol.make_write_to(
                        store._states.writer("dup"), n, "dup")
                    for n in range(2)
                ]
                with pytest.raises(TransportError):
                    await store._writer_host(0).run_many(operations)
                # The failed batch must roll back cleanly: the register is
                # usable again immediately.
                await store.write("dup", "recovered")
                return await store.read("dup")

        assert run(scenario()) == "recovered"


class TestShardedKVStore:
    def test_put_get_across_shards(self, config):
        async def scenario():
            async with ShardedKVStore(CachedRegularStorageProtocol, config,
                                      num_shards=3) as kv:
                await kv.put_many({f"user:{n}": n for n in range(30)})
                singles = await kv.get("user:7")
                many = await kv.get_many([f"user:{n}" for n in range(30)])
                shards = {kv.shard_for(f"user:{n}") for n in range(30)}
                return singles, many, shards

        single, many, shards = run(scenario())
        assert single == 7
        assert many == {f"user:{n}": n for n in range(30)}
        assert len(shards) > 1  # keys actually spread out

    def test_duplicate_keys_in_get_many(self, config):
        async def scenario():
            async with ShardedKVStore(CachedRegularStorageProtocol, config,
                                      num_shards=2) as kv:
                await kv.put("dup", 42)
                return await kv.get_many(["dup", "dup", "dup"])

        assert run(scenario()) == {"dup": 42}

    def test_missing_key_is_none(self, config):
        async def scenario():
            async with ShardedKVStore(CachedRegularStorageProtocol, config,
                                      num_shards=2) as kv:
                return await kv.get("missing")

        assert run(scenario()) is None

    def test_survives_replica_compromise(self, config):
        async def scenario():
            async with ShardedKVStore(CachedRegularStorageProtocol, config,
                                      num_shards=2) as kv:
                await kv.put("victim", "truth")
                store = kv.store_for("victim")
                kv.compromise_replica("victim", 0, ValueForger(
                    store.object_automaton(0), config,
                    forged_value="$TAMPERED$", ts_boost=10**6))
                first = await kv.get("victim")
                await kv.put("victim", "still-true")
                second = await kv.get("victim", reader_index=1)
                return first, second

        assert run(scenario()) == ("truth", "still-true")

    def test_get_many_preserves_caller_key_order(self, config):
        """Regression: merged results must iterate in caller order, not
        shard-chunk order."""
        async def scenario():
            async with ShardedKVStore(CachedRegularStorageProtocol, config,
                                      num_shards=2) as kv:
                keys = [f"ord:{n}" for n in range(16)]
                # Interleave shards so chunk order != caller order.
                assert len({kv.shard_for(k) for k in keys}) > 1
                await kv.put_many({k: k.upper() for k in keys})
                forward = await kv.get_many(keys)
                backward = await kv.get_many(list(reversed(keys)))
                return keys, forward, backward

        keys, forward, backward = run(scenario())
        assert list(forward) == keys
        assert list(backward) == list(reversed(keys))
        assert forward == {k: k.upper() for k in keys}

    def test_get_many_order_with_missing_keys(self, config):
        async def scenario():
            async with ShardedKVStore(CachedRegularStorageProtocol, config,
                                      num_shards=2) as kv:
                await kv.put("present", 1)
                result = await kv.get_many(["nope:a", "present", "nope:b"])
                return result

        result = run(scenario())
        assert list(result) == ["nope:a", "present", "nope:b"]
        assert result == {"nope:a": None, "present": 1, "nope:b": None}


class TestReadMessageCounts:
    """An uncontended read decides on round-1 evidence and sends no
    round 2: one request and one ack per replica, per key or per frame."""

    def test_single_key_get_costs_two_s_sends(self, config):
        async def scenario():
            async with ShardedKVStore(CachedRegularStorageProtocol, config,
                                      num_shards=1) as kv:
                await kv.put("k", "v")
                network = kv.store_for("k").network
                before = network.messages_sent
                value = await kv.get("k")
                return value, network.messages_sent - before

        assert run(scenario()) == ("v", 2 * config.num_objects)

    def test_get_many_costs_s_request_plus_s_ack_frames(self, config):
        async def scenario():
            async with ShardedKVStore(CachedRegularStorageProtocol, config,
                                      num_shards=1) as kv:
                items = {f"k{n}": n for n in range(64)}
                await kv.put_many(items)
                network = kv.store_for("k0").network
                before = network.messages_sent
                values = await kv.get_many(list(items))
                return values == items, network.messages_sent - before

        assert run(scenario()) == (True, 2 * config.num_objects)

    def test_seeded_uncontended_run_sends_no_round_two(self, config,
                                                       monkeypatch):
        rounds = []
        read_reply = RegularObject._read_reply
        monkeypatch.setattr(
            RegularObject, "_read_reply",
            lambda self, message: (rounds.append(message.round_index),
                                   read_reply(self, message))[1])

        async def scenario():
            rng = random.Random(11)
            async with ShardedKVStore(CachedRegularStorageProtocol, config,
                                      num_shards=2) as kv:
                for n in range(60):
                    key = f"k{rng.randrange(8)}"
                    if rng.random() < 0.5:
                        await kv.put(key, n)
                    else:
                        await kv.get(key, reader_index=rng.randrange(2))
                await kv.get_many([f"k{i}" for i in range(8)])

        run(scenario())
        assert rounds.count(1) > 0
        assert rounds.count(2) == 0


class TestLifecycle:
    """start()/stop() idempotency and leak-freedom (service tier)."""

    def test_multi_register_store_stop_is_idempotent(self, config):
        async def scenario():
            store = MultiRegisterStore(CachedRegularStorageProtocol(),
                                       config)
            await store.start()
            await store.start()  # idempotent
            await store.write("k", "v")
            await store.stop()
            await store.stop()  # idempotent, must not touch fresh state
            with pytest.raises(TransportError):
                await store.write("k", "v2")
            # Restart: object hosts and pumps come back lazily.
            await store.start()
            await store.write("k", "v2")
            value = await store.read("k")
            await store.stop()
            return value

        assert run(scenario()) == "v2"

    def test_writer_host_not_created_after_stop(self, config):
        async def scenario():
            store = MultiRegisterStore(CachedRegularStorageProtocol(),
                                       config)
            await store.start()
            await store.stop()
            with pytest.raises(TransportError):
                store._writer_host(0)
            with pytest.raises(TransportError):
                store.control_host()

        run(scenario())

    def test_stop_leaves_no_running_tasks(self, config):
        async def scenario():
            store = MultiRegisterStore(CachedRegularStorageProtocol(),
                                       config)
            await store.start()
            await store.write_many({f"k{n}": n for n in range(8)})
            await store.read_many([f"k{n}" for n in range(8)])
            store.control_host()  # materialize the control identity too
            await store.stop()
            await asyncio.sleep(0)  # let cancellations land
            others = [t for t in asyncio.all_tasks()
                      if t is not asyncio.current_task()]
            return others

        assert run(scenario()) == []

    def test_quiesce_sleeps_behind_a_stuck_operation(self, config):
        """A drain behind an operation no quorum can finish awaits the
        call's future; it does not spin the loop until the deadline."""
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config) as store:
                await store.write("k", "v1")
                for index in range(config.t + 1):
                    store.crash_object(index)
                stuck = asyncio.ensure_future(
                    store.write("k", "v2", timeout=0.2))
                await asyncio.sleep(0)
                assert store._writer_hosts[0]._pending
                cpu = time.process_time()
                await store.quiesce()
                spent = time.process_time() - cpu
                with pytest.raises(asyncio.TimeoutError):
                    await stuck
                return spent

        assert run(scenario()) < 0.05

    def test_sharded_stop_is_idempotent_and_guarded(self, config):
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2)
            await kv.stop()  # never started: a silent no-op
            await kv.start()
            await kv.put("k", 1)
            await kv.stop()
            await kv.stop()
            await kv.start()
            await kv.put("k", 2)
            value = await kv.get("k")
            await kv.stop()
            await asyncio.sleep(0)
            assert [t for t in asyncio.all_tasks()
                    if t is not asyncio.current_task()] == []
            return value

        assert run(scenario()) == 2


class TestInboxHandover:
    """Replica replacement must not drop in-flight messages."""

    def test_reregistration_hands_over_queue(self):
        from repro.runtime.memnet import AsyncNetwork
        from repro.types import obj as obj_pid

        async def scenario():
            network = AsyncNetwork()
            first = network.register(obj_pid(0))
            network.send(obj_pid(0), obj_pid(0), "in-flight")
            second = network.register(obj_pid(0))
            assert second is first  # the queue survives re-registration
            return second.qsize()

        assert run(scenario()) == 1

    def test_make_byzantine_preserves_in_flight_messages(self, config):
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config) as store:
                await store.write("k", "v1")
                # Wedge replica 2's pump; traffic keeps piling into its
                # inbox (the pid is alive, just slow).
                store._object_hosts[2].stop()
                await store.write("k", "v2")
                parked = store.network.inbox(obj(2)).qsize()
                assert parked > 0
                # The Byzantine replacement inherits the backlog.
                store.make_byzantine(2, ValueForger(
                    store.object_automaton(2), config,
                    forged_value="$EVIL$", ts_boost=10**6))
                await asyncio.sleep(0.01)
                drained = store.network.inbox(obj(2)).qsize()
                value = await store.read("k")
                return parked, drained, value

        parked, drained, value = run(scenario())
        assert parked > 0 and drained == 0
        assert value == "v2"


class TestBatchFailurePropagation:
    """A failing member of a batch must fail the batch fast -- and leave
    no sibling task or pending operation dangling."""

    def test_get_many_propagates_first_failure_and_cancels_siblings(
            self, config):
        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2)
            async with kv:
                keys = [f"k:{n}" for n in range(12)]
                assert len({kv.shard_for(k) for k in keys}) == 2
                await kv.put_many({key: key for key in keys})
                broken = kv.shards[0]
                await broken.stop()  # one shard group down
                with pytest.raises(TransportError):
                    await kv.get_many(keys)
                # The healthy shard's per-key reads were cancelled and
                # drained, not left running detached.
                healthy = kv.shards[1]
                for _ in range(5):
                    await asyncio.sleep(0)
                assert all(not host._pending
                           for host in healthy._reader_hosts)
                # The healthy group still serves normally afterwards.
                alive = [k for k in keys if kv.shard_for(k) == 1]
                assert await kv.get(alive[0]) == alive[0]
        run(scenario())

    def test_read_many_timeout_leaves_no_pending_operations(self, config):
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          config) as store:
                await store.write_many({"a": 1, "b": 2})
                # Two crashed replicas leave only 2 < quorum=3 alive:
                # reads cannot complete and must time out.
                store.crash_object(0)
                store.crash_object(1)
                with pytest.raises(asyncio.TimeoutError):
                    await store.read_many(["a", "b"], timeout=0.05)
                assert all(not host._pending
                           for host in store._reader_hosts)
        run(scenario())

    def test_put_retries_resolve_routing_after_fence_clears(self, config):
        """`put(retries=N)` absorbs FencedWriteError and succeeds once
        routing recovers (here: the fence is lifted, as a completed
        reconfiguration's hand-back would)."""
        from repro.service.reconfig import FenceOperation

        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2)
            async with kv:
                await kv.put("k", "v0")
                store = kv.store_for("k")
                fence = FenceOperation(store.config, "k")
                await store.control_host().run(fence, 5.0)
                with pytest.raises(FencedWriteError):
                    await kv.put("k", "v1")  # retries=0: fail fast

                async def lift_soon():
                    await asyncio.sleep(0.002)
                    lift = FenceOperation(store.config, "k", lift=True)
                    await store.control_host().run(lift, 5.0)

                lifter = asyncio.create_task(lift_soon())
                await kv.put("k", "v2", retries=100)
                await lifter
                assert await kv.get("k") == "v2"
        run(scenario())

    def test_put_retries_exhausted_reraises(self, config):
        from repro.service.reconfig import FenceOperation

        async def scenario():
            kv = ShardedKVStore(CachedRegularStorageProtocol, config,
                                num_shards=2)
            async with kv:
                await kv.put("k", "v0")
                store = kv.store_for("k")
                fence = FenceOperation(store.config, "k")
                await store.control_host().run(fence, 5.0)
                with pytest.raises(FencedWriteError):
                    await kv.put("k", "v1", retries=3)
        run(scenario())
