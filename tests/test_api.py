"""Client API: Cluster/Session, writer leases, retry policies, snapshots."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (Cluster, Consistency, RetryPolicy, Snapshot,
                       WriterLeaseAllocator)
from repro.config import SystemConfig
from repro.core.atomic import AtomicStorageProtocol
from repro.core.regular import CachedRegularStorageProtocol
from repro.core.safe import SafeStorageProtocol
from repro.errors import (ConsistencyError, FencedWriteError,
                          RetryExhaustedError, SnapshotContentionError,
                          TransportError, WriterLeaseExhaustedError)
from repro.service.reconfig import FenceOperation
from repro.spec.checkers import (check_mwmr_regularity,
                                 check_snapshot_consistency)
from repro.spec.histories import History, WRITE
from repro.types import TAG0, WriterTag, reader, writer


def run(coro):
    return asyncio.run(coro)


CONFIG = SystemConfig.optimal(t=1, b=1, num_readers=2)
MWMR = SystemConfig.optimal(t=1, b=1, num_readers=2, num_writers=4)


def make_cluster(config=CONFIG, **kwargs):
    kwargs.setdefault("num_shards", 2)
    return Cluster(CachedRegularStorageProtocol, config, **kwargs)


async def hard_fence(cluster, key):
    """Retire ``key`` at its current shard group, as a handoff would."""
    store = cluster.kv.store_for(key)
    operation = FenceOperation(store.config, key)
    return await store.control_host().run(operation, 5.0)


async def lift_fence(cluster, key):
    store = cluster.kv.store_for(key)
    operation = FenceOperation(store.config, key, lift=True)
    await store.control_host().run(operation, 5.0)


# ---------------------------------------------------------------------------
# Writer leases
# ---------------------------------------------------------------------------


class TestWriterLeaseAllocator:
    def test_exclusive_until_released(self):
        pool = WriterLeaseAllocator(3)
        a, b, c = pool.acquire("a"), pool.acquire("b"), pool.acquire("c")
        assert sorted([a, b, c]) == [0, 1, 2]
        with pytest.raises(WriterLeaseExhaustedError):
            pool.acquire("d")
        pool.release(b)
        assert pool.acquire("e") == b  # lowest free index first
        with pytest.raises(TransportError):
            pool.release(b + 10)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=60))
    def test_never_double_leases(self, ops):
        """Property: no index is ever leased to two holders at once, and
        acquisition past the pool size always raises the typed error."""
        pool = WriterLeaseAllocator(3)
        leased = set()
        for op in ops:
            if op <= 2:  # acquire
                if len(leased) == pool.num_writers:
                    with pytest.raises(WriterLeaseExhaustedError):
                        pool.acquire()
                else:
                    index = pool.acquire()
                    assert index not in leased
                    assert 0 <= index < pool.num_writers
                    leased.add(index)
            elif leased:  # release one deterministically
                index = sorted(leased)[op % len(leased)]
                pool.release(index)
                leased.discard(index)
            assert set(pool.leased) == leased
            assert pool.available == pool.num_writers - len(leased)

    def test_sessions_lease_distinct_indices(self):
        async def scenario():
            async with make_cluster(MWMR) as cluster:
                sessions = [cluster.session() for _ in
                            range(MWMR.num_writers)]
                indices = {s.writer_index for s in sessions}
                assert indices == set(range(MWMR.num_writers))
                extra = cluster.session()
                with pytest.raises(WriterLeaseExhaustedError):
                    await extra.put("k", "v")
                # A read-only session never consumed a lease.
                assert not extra.writes_leased
                assert await extra.get("nope") is None
                # Closing releases; the identity is reusable.
                sessions[0].close()
                assert extra.writer_index == 0
        run(scenario())

    def test_close_is_idempotent_and_refuses_operations(self):
        async def scenario():
            async with make_cluster() as cluster:
                session = cluster.session()
                await session.put("k", 1)
                session.close()
                session.close()
                with pytest.raises(TransportError):
                    await session.get("k")
                with pytest.raises(TransportError):
                    session.writer_index
        run(scenario())

    def test_close_defers_release_until_inflight_write_settles(self):
        """Closing a session mid-write must not hand its writer identity
        to another session while the write is still running."""
        async def scenario():
            async with make_cluster() as cluster:
                session = cluster.session(retry=RetryPolicy.none())
                await session.put("k", 1)
                await hard_fence(cluster, "k")  # the next put will abort
                index = session.writer_index
                put = asyncio.create_task(session.put("k", 2))
                await asyncio.sleep(0)  # put is now in flight
                session.close()
                # Closed, but the identity is still held by the write.
                assert cluster._leases.holder_of(index) is session
                fresh = cluster.session()
                with pytest.raises(WriterLeaseExhaustedError):
                    fresh.writer_index
                with pytest.raises(FencedWriteError):
                    await put
                # Settled: the lease returned to the pool.
                assert cluster._leases.holder_of(index) is None
                assert fresh.writer_index == index
        run(scenario())

    def test_cluster_stop_closes_sessions(self):
        async def scenario():
            cluster = make_cluster()
            async with cluster:
                session = cluster.session()
                await session.put("k", 1)
            assert session.closed
            assert cluster.open_sessions == 0
        run(scenario())


# ---------------------------------------------------------------------------
# Consistency levels
# ---------------------------------------------------------------------------


class TestConsistency:
    def test_levels_are_ordered(self):
        assert Consistency.SAFE < Consistency.REGULAR < Consistency.ATOMIC

    def test_declaring_more_than_provided_fails(self):
        async def scenario():
            async with make_cluster() as cluster:  # regular protocol
                assert cluster.provides is Consistency.REGULAR
                cluster.session(Consistency.SAFE)
                cluster.session(Consistency.REGULAR)
                with pytest.raises(ConsistencyError):
                    cluster.session(Consistency.ATOMIC)
        run(scenario())

    def test_per_call_override_is_validated(self):
        async def scenario():
            async with make_cluster() as cluster:
                session = cluster.session()
                await session.put("k", 1)
                assert await session.get(
                    "k", consistency=Consistency.SAFE) == 1
                with pytest.raises(ConsistencyError):
                    await session.get("k",
                                      consistency=Consistency.ATOMIC)
        run(scenario())

    def test_atomic_protocol_allows_atomic_sessions(self):
        async def scenario():
            cluster = Cluster(AtomicStorageProtocol, CONFIG, num_shards=2)
            async with cluster:
                session = cluster.session(Consistency.ATOMIC)
                await session.put("k", "v")
                assert await session.get("k") == "v"
        run(scenario())

    def test_safe_protocol_caps_default_and_refuses_snapshots(self):
        async def scenario():
            cluster = Cluster(SafeStorageProtocol, CONFIG, num_shards=2)
            async with cluster:
                session = cluster.session()
                assert session.consistency is Consistency.SAFE
                await session.put("k", "v")
                with pytest.raises(ConsistencyError):
                    await session.snapshot(["k"])
        run(scenario())


# ---------------------------------------------------------------------------
# Retry policies
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_backoff_schedule_is_capped(self):
        policy = RetryPolicy(backoff=0.01, multiplier=2.0,
                             max_backoff=0.03)
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == \
            [0.01, 0.02, 0.03, 0.03]

    def test_none_fails_fast_on_fence(self):
        async def scenario():
            async with make_cluster() as cluster:
                session = cluster.session(retry=RetryPolicy.none())
                await session.put("k", 1)
                await hard_fence(cluster, "k")
                with pytest.raises(FencedWriteError):
                    await session.put("k", 2)
        run(scenario())

    def test_exhaustion_raises_typed_error_with_cause(self):
        async def scenario():
            async with make_cluster() as cluster:
                session = cluster.session(
                    retry=RetryPolicy(attempts=3, backoff=0.0))
                await session.put("k", 1)
                await hard_fence(cluster, "k")
                with pytest.raises(RetryExhaustedError) as excinfo:
                    await session.put("k", 2)
                assert excinfo.value.attempts == 3
                assert isinstance(excinfo.value.last_error,
                                  FencedWriteError)
        run(scenario())

    def test_fence_absorbed_once_routing_recovers(self):
        """A fence that clears mid-retry (as a reconfiguration flip does)
        is absorbed: the session's put succeeds without the caller ever
        seeing FencedWriteError."""
        async def scenario():
            async with make_cluster() as cluster:
                session = cluster.session(
                    retry=RetryPolicy(attempts=10, backoff=0.001))
                await session.put("k", 1)
                await hard_fence(cluster, "k")

                async def clear():
                    await asyncio.sleep(0.003)
                    await lift_fence(cluster, "k")

                clearer = asyncio.create_task(clear())
                await session.put("k", 2)
                await clearer
                assert await session.get("k") == 2
        run(scenario())

    def test_backpressure_absorbed(self):
        async def scenario():
            async with make_cluster(
                    max_pending_per_host=1) as cluster:
                session = cluster.session()
                keys = [f"k:{n}" for n in range(6)]
                await asyncio.gather(*(session.put(key, key)
                                       for key in keys))
                for key in keys:
                    assert await session.get(key) == key
        run(scenario())

    def test_busy_register_absorbed(self):
        async def scenario():
            async with make_cluster() as cluster:
                session = cluster.session()
                await session.put("hot", "v")
                values = await asyncio.gather(
                    session.get("hot"), session.get("hot"),
                    session.get("hot"))
                assert values == ["v", "v", "v"]
        run(scenario())


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


class TestSnapshot:
    def test_cut_over_quiet_keys(self):
        async def scenario():
            async with make_cluster(record_history=True) as cluster:
                session = cluster.session()
                await session.put_many({f"k:{n}": n for n in range(8)})
                snap = await session.snapshot([f"k:{n}" for n in range(8)]
                                              + ["missing"])
                assert isinstance(snap, Snapshot)
                assert snap.rounds == 2  # propose + certify
                assert snap["missing"] is None
                assert snap.tags["missing"] == TAG0
                for n in range(8):
                    assert snap[f"k:{n}"] == n
                    assert snap.tags[f"k:{n}"] == WriterTag(1, 0)
                assert cluster.admin().check().ok
        run(scenario())

    def test_defaults_to_known_keys_and_context_manager_form(self):
        async def scenario():
            async with make_cluster() as cluster:
                session = cluster.session()
                await session.put_many({"a": 1, "b": 2})
                async with session.snapshot() as snap:
                    assert dict(snap) == {"a": 1, "b": 2}
        run(scenario())

    def test_empty_snapshot_is_trivial(self):
        async def scenario():
            async with make_cluster(record_history=True) as cluster:
                session = cluster.session()
                snap = await session.snapshot([])
                assert len(snap) == 0 and snap.rounds == 0
                assert cluster.admin().check().ok
        run(scenario())

    def test_contention_raises_after_bounded_rounds(self):
        """If some key's tag moves between every pair of collects the
        snapshot gives up with the typed error naming the movers."""
        async def scenario():
            async with make_cluster() as cluster:
                session = cluster.session()
                await session.put_many({"hot": 0, "cold": 0})
                epoch = [0]
                real = cluster.kv.get_many_tagged

                async def always_moving(keys, **kwargs):
                    collect = await real(keys, **kwargs)
                    epoch[0] += 1
                    collect["hot"] = (epoch[0], WriterTag(epoch[0], 0))
                    return collect

                cluster.kv.get_many_tagged = always_moving
                with pytest.raises(SnapshotContentionError) as excinfo:
                    await session.snapshot(["hot", "cold"], max_rounds=4)
                assert excinfo.value.rounds == 4
                assert excinfo.value.unstable_keys == ["hot"]
        run(scenario())

    def test_snapshot_needs_two_collects(self):
        async def scenario():
            async with make_cluster() as cluster:
                session = cluster.session()
                with pytest.raises(ValueError):
                    session.snapshot(["k"], max_rounds=1)
        run(scenario())

    def test_consistent_under_multi_writer_load(self):
        """Concurrent writers race on keys spanning both shard groups;
        every certified snapshot must pass the cut checker."""
        async def scenario():
            async with make_cluster(MWMR, record_history=True,
                                    seed=11) as cluster:
                keys = [f"k:{n}" for n in range(10)]
                assert len({cluster.kv.shard_for(k) for k in keys}) == 2
                writers = [cluster.session() for _ in range(3)]
                snapper = cluster.session()
                await writers[0].put_many({key: "init" for key in keys})
                done = asyncio.Event()

                async def write_load(session, w):
                    i = 0
                    while not done.is_set():
                        await session.put(keys[(i * 3 + w) % len(keys)],
                                          f"w{w}-{i}")
                        i += 1
                        # Paced load: continuous back-to-back writes on
                        # every key would leave no quiet window for any
                        # snapshot to certify a cut in.
                        await asyncio.sleep(0.002)

                tasks = [asyncio.create_task(write_load(s, w))
                         for w, s in enumerate(writers)]
                taken = contended = 0
                for _ in range(12):
                    try:
                        snap = await snapper.snapshot(keys,
                                                      max_rounds=12)
                        taken += 1
                        assert set(snap) == set(keys)
                    except SnapshotContentionError:
                        contended += 1
                done.set()
                await asyncio.gather(*tasks)
                assert taken >= 1, f"all {contended} snapshots contended"
                result = cluster.admin().check(check_mwmr_regularity)
                assert result.ok, result.violations
                assert len(cluster.history.snapshots()) == taken
        run(scenario())

    def test_snapshot_spans_reconfiguration(self):
        """Acceptance: snapshots stay consistent while an add_shard
        migration is in flight; the session retry policy absorbs the
        fences the migration installs."""
        async def scenario():
            async with make_cluster(MWMR, record_history=True,
                                    seed=23) as cluster:
                keys = [f"k:{n}" for n in range(12)]
                assert len({cluster.kv.shard_for(k) for k in keys}) == 2
                writer_s = cluster.session(
                    retry=RetryPolicy(attempts=50, backoff=0.001))
                snapper = cluster.session(
                    retry=RetryPolicy(attempts=50, backoff=0.001))
                await writer_s.put_many({key: "init" for key in keys})
                done = asyncio.Event()

                async def write_load():
                    i = 0
                    while not done.is_set():
                        # The retry policy must absorb every fence the
                        # migration installs: no FencedWriteError may
                        # reach this call site.
                        await writer_s.put(keys[i % len(keys)],
                                           f"v-{i}")
                        i += 1
                        await asyncio.sleep(0.002)  # paced, see above
                    return i

                async def snapshot_load():
                    taken = 0
                    while not done.is_set():
                        try:
                            snap = await snapper.snapshot(
                                keys, max_rounds=16)
                            taken += 1
                            assert set(snap) == set(keys)
                        except SnapshotContentionError:
                            pass
                        await asyncio.sleep(0)
                    return taken

                loader = asyncio.create_task(write_load())
                snaps = asyncio.create_task(snapshot_load())
                report = await cluster.admin().add_shard()
                await asyncio.sleep(0.01)
                done.set()
                writes, taken = await loader, await snaps
                assert report.moved, "migration moved no key"
                assert writes > 0 and taken > 0
                result = cluster.admin().check(check_mwmr_regularity)
                assert result.ok, result.violations
                snapshots = cluster.history.snapshots()
                assert len(snapshots) >= taken
        run(scenario())


# ---------------------------------------------------------------------------
# The snapshot cut checker itself
# ---------------------------------------------------------------------------


def record_write(history, op_id, register, value, tag,
                 client=writer(0)):
    history.record_invocation(op_id, client, WRITE, argument=value,
                              register=register)
    history.record_completion(op_id, result=None, tag=tag)


class TestSnapshotChecker:
    def test_accepts_consistent_cut(self):
        h = History()
        record_write(h, 1, "a", "a1", WriterTag(1, 0))
        begin = h.mark()
        record_write(h, 2, "b", "b1", WriterTag(1, 1), client=writer(1))
        h.record_snapshot(begin,
                          {"a": WriterTag(1, 0), "b": WriterTag(1, 1)},
                          {"a": "a1", "b": "b1"})
        assert check_snapshot_consistency(h).ok

    def test_rejects_stale_key(self):
        h = History()
        record_write(h, 1, "a", "a1", WriterTag(1, 0))
        begin = h.mark()  # the write completed before this
        h.record_snapshot(begin, {"a": TAG0}, {"a": None})
        result = check_snapshot_consistency(h)
        assert not result.ok and "stale" in result.violations[0]

    def test_rejects_torn_cut_across_registers(self):
        """The snapshot reflects w2 but excludes w1 although w1 completed
        before w2 was even invoked -- not a consistent cut."""
        h = History()
        begin = h.mark()  # snapshot starts before either write
        record_write(h, 1, "a", "a1", WriterTag(5, 0))           # w1
        record_write(h, 2, "b", "b1", WriterTag(1, 1),           # w2
                     client=writer(1))
        h.record_snapshot(begin,
                          {"a": TAG0, "b": WriterTag(1, 1)},
                          {"a": None, "b": "b1"})
        result = check_snapshot_consistency(h)
        assert not result.ok
        assert "not a consistent cut" in "".join(result.violations)

    def test_rejects_uninstalled_tag_and_wrong_value(self):
        h = History()
        record_write(h, 1, "a", "a1", WriterTag(1, 0))
        begin = h.mark()
        h.record_snapshot(begin, {"a": WriterTag(9, 9)}, {"a": "a1"})
        assert not check_snapshot_consistency(h).ok

        h2 = History()
        begin = h2.mark()
        record_write(h2, 1, "a", "a1", WriterTag(1, 0))
        h2.record_snapshot(begin, {"a": WriterTag(1, 0)},
                           {"a": "forged"})
        result = check_snapshot_consistency(h2)
        assert not result.ok and "installed" in result.violations[0]

    def test_concurrent_write_may_be_included_or_excluded(self):
        h = History()
        begin = h.mark()
        # Invoked but not completed: genuinely concurrent with the cut.
        h.record_invocation(1, writer(0), WRITE, argument="a1",
                            register="a")
        h.record_snapshot(begin, {"a": TAG0}, {"a": None})
        assert check_snapshot_consistency(h).ok

    def test_record_keeping(self):
        h = History()
        begin = h.mark()
        h.record_snapshot(begin, {"a": TAG0}, client=reader(1))
        (snap,) = h.snapshots()
        assert snap.snapshot_id == 1
        assert snap.client == reader(1)
        assert snap.invoked_seq < snap.completed_seq
        assert "SNAPSHOT#1" in snap.describe()


# ---------------------------------------------------------------------------
# Tag-returning reads (service tier)
# ---------------------------------------------------------------------------


class TestTaggedReads:
    def test_get_tagged_reports_version(self):
        async def scenario():
            async with make_cluster() as cluster:
                kv = cluster.kv
                value, tag = await kv.get_tagged("k")
                assert value is None and tag == TAG0
                await kv.put("k", "v1")
                value, tag = await kv.get_tagged("k")
                assert (value, tag) == ("v1", WriterTag(1, 0))
                await kv.put("k", "v2")
                value, tag = await kv.get_tagged("k")
                assert (value, tag) == ("v2", WriterTag(2, 0))
        run(scenario())

    def test_get_many_tagged_caller_order_across_shards(self):
        async def scenario():
            async with make_cluster() as cluster:
                kv = cluster.kv
                keys = [f"k:{n}" for n in range(12)]
                assert len({kv.shard_for(k) for k in keys}) == 2
                await kv.put_many({key: key.upper() for key in keys})
                tagged = await kv.get_many_tagged(reversed(keys))
                assert list(tagged) == list(reversed(keys))
                for key, (value, tag) in tagged.items():
                    assert value == key.upper()
                    assert tag == WriterTag(1, 0)
        run(scenario())

    def test_session_get_tagged(self):
        async def scenario():
            async with make_cluster() as cluster:
                session = cluster.session()
                await session.put("k", 7)
                assert await session.get_tagged("k") == \
                    (7, WriterTag(1, 0))
        run(scenario())
