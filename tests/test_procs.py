"""Multi-process replica serving (:mod:`repro.service.procs`).

Covers the deployment switch, put/get over supervised child processes,
kill -9 + WAL/snapshot recovery gated on the MWMR atomicity checker,
the session-level conditional write, and the typed reconnect error of
the TCP client.

The process-spawning tests use ``granularity="group"`` (one child per
replica set) wherever the scenario allows, keeping spawn costs to one
interpreter per test.
"""

import asyncio

import pytest

from repro.api.cluster import Cluster
from repro.api.policy import RETRYABLE, RetryPolicy
from repro.config import SystemConfig
from repro.core.atomic import AtomicStorageProtocol
from repro.core.regular import RegularStorageProtocol
from repro.errors import (ConfigurationError, PreconditionFailedError,
                          ReplicaUnavailableError)
from repro.messages import Pw, TagQuery
from repro.runtime.tcp import (TcpObjectServer, TcpStorageClient,
                               _frame_binary)
from repro.runtime.wal import ReplicaDurability, durable_records, pack_frame
from repro.service import procs
from repro.service.procs import ProcMultiRegisterStore
from repro.service.sharded import ShardedKVStore
from repro.spec.checkers import check_mwmr_atomicity
from repro.types import TimestampValue, TsrArray, WRITER, WriteTuple


def run(coro):
    return asyncio.run(coro)


MULTIPROC = SystemConfig.optimal(t=1, b=1).with_deployment("multiproc")


# ---------------------------------------------------------------------------
# deployment switch
# ---------------------------------------------------------------------------


class TestDeploymentSwitch:
    def test_multiproc_config_builds_proc_stores(self, tmp_path):
        kv = ShardedKVStore(RegularStorageProtocol, MULTIPROC,
                            num_shards=2, data_dir=str(tmp_path))
        assert all(isinstance(shard, ProcMultiRegisterStore)
                   for shard in kv.shards.values())
        # per-shard durability directories are disjoint
        dirs = {shard.supervisor.data_dir for shard in kv.shards.values()}
        assert len(dirs) == 2

    def test_inproc_config_builds_plain_stores(self):
        kv = ShardedKVStore(RegularStorageProtocol,
                            SystemConfig.optimal(t=1, b=1), num_shards=2)
        assert not any(isinstance(shard, ProcMultiRegisterStore)
                       for shard in kv.shards.values())

    def test_granularity_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ProcMultiRegisterStore(RegularStorageProtocol, MULTIPROC,
                                   str(tmp_path), granularity="thread")


# ---------------------------------------------------------------------------
# serving over child processes
# ---------------------------------------------------------------------------


class TestMultiprocServing:
    def test_put_get_over_processes(self, tmp_path):
        async def scenario():
            store = ProcMultiRegisterStore(
                RegularStorageProtocol, MULTIPROC, str(tmp_path),
                granularity="group")
            async with store:
                await store.write("k1", "v1")
                assert await store.read("k1") == "v1"
                await store.write_many({f"b{i}": i for i in range(16)})
                got = await store.read_many([f"b{i}" for i in range(16)])
                assert got == {f"b{i}": i for i in range(16)}
            # a second stop is idempotent
            await store.stop()

        run(scenario())

    def test_one_socket_write_per_client_and_child_drain(self, tmp_path):
        """Whatever a client has queued for a child leaves in one socket
        write, and a round to the whole replica set is one frame of it:
        a solo write is two rounds, so two writes -- not two per replica.
        """
        async def scenario(monkeypatch):
            socket_writes = []
            write = asyncio.StreamWriter.write
            monkeypatch.setattr(
                asyncio.StreamWriter, "write",
                lambda self, data: (socket_writes.append(len(data)),
                                    write(self, data))[1])
            store = ProcMultiRegisterStore(
                RegularStorageProtocol, MULTIPROC, str(tmp_path),
                granularity="group")
            async with store:
                await store.write("solo", 0)
                link, = store.network.links()  # one client, one child
                assert (link.writes, link.frames_written) == (2, 2)
                assert store.network.messages_sent == 2 * 4
                # Concurrent operations enqueue their frames before the
                # link's writer task gets a turn, so drains see queues of
                # more than one frame.
                await asyncio.gather(
                    *(store.write(f"c{i}", i) for i in range(16)))
                await asyncio.gather(
                    *(store.read(f"c{i}") for i in range(16)))
                links = store.network.links()
                assert len(links) == 2  # the writer's and the reader's
                # only links write to sockets in this process
                assert len(socket_writes) == sum(l.writes for l in links)
                return (sum(l.frames_written for l in links),
                        len(socket_writes))

        with pytest.MonkeyPatch.context() as monkeypatch:
            frames, writes = run(scenario(monkeypatch))
        assert 0 < writes < frames

    def test_multiproc_fault_verbs(self, tmp_path):
        async def scenario():
            store = ProcMultiRegisterStore(
                RegularStorageProtocol, MULTIPROC, str(tmp_path),
                granularity="group")
            async with store:
                with pytest.raises(ConfigurationError):
                    store.make_byzantine(0, object())
                with pytest.raises(ConfigurationError):
                    store.replace_object(0, automaton=object())
                # replacement-is-restart: hands back a fresh automaton
                assert store.replace_object(0) is not None

        run(scenario())


# ---------------------------------------------------------------------------
# the child's write-ahead logs (no process needed)
# ---------------------------------------------------------------------------


class TestChildDurability:
    @staticmethod
    def _pw(ts):
        tsval = TimestampValue(ts, f"v{ts}")
        tsr = TsrArray(((0,),) * MULTIPROC.num_objects)
        return Pw(ts=ts, pw=tsval, w=WriteTuple(tsval, tsr))

    def _stores(self, tmp_path):
        return {index: ReplicaDurability(str(tmp_path / f"replica-{index}"),
                                         fsync="never")
                for index in range(3)}

    def test_one_payload_per_frame_shared_by_every_replica(
            self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(
            procs, "durable_records",
            lambda *args: built.append(args) or durable_records(*args))
        stores = self._stores(tmp_path)
        log = procs._ChildLog(stores)
        for ts in (1, 2):
            message = self._pw(ts)
            wire = pack_frame(WRITER, message)
            for index in stores:
                assert log(index, WRITER, message, wire) is None
        assert len(built) == 2  # per frame, not per (frame, replica)
        for store in stores.values():
            assert store.wal.replay() == [pack_frame(WRITER, self._pw(1)),
                                          pack_frame(WRITER, self._pw(2))]
            store.close()

    def test_at_most_one_snapshot_per_tick(self, tmp_path):
        stores = self._stores(tmp_path)
        for store in stores.values():
            for ts in range(1, 6):
                store.log(WRITER, self._pw(ts))
        for taken in (1, 2, 3, 3):
            procs._snapshot_one_due(stores, snapshot_every=5)
            assert sum(store.records_since_snapshot == 0
                       for store in stores.values()) == taken
        for store in stores.values():
            store.close()


# ---------------------------------------------------------------------------
# kill -9 and recover (WAL + snapshot + heal), atomicity-checked
# ---------------------------------------------------------------------------


class TestKillAndRecover:
    @staticmethod
    async def _await_restart(shard, index):
        for _ in range(400):
            if shard.supervisor.restarts.get(index):
                break
            await asyncio.sleep(0.05)
        assert shard.supervisor.restarts.get(index) == 1

    def test_kill_recover_preserves_atomicity(self, tmp_path):
        """SIGKILL one replica mid-load; recovery must leave zero
        violations under :func:`check_mwmr_atomicity`."""

        async def scenario():
            config = SystemConfig.optimal(
                t=1, b=1, num_writers=2).with_deployment("multiproc")
            cluster = Cluster(AtomicStorageProtocol, config, num_shards=1,
                              granularity="replica", record_history=True,
                              data_dir=str(tmp_path))
            async with cluster:
                shard = next(iter(cluster.kv.shards.values()))
                async with cluster.session() as session:
                    for i in range(6):
                        await session.put(f"k{i}", i)
                    cluster.kv.crash_replica("k0", 1)  # real SIGKILL
                    for i in range(6, 12):
                        await session.put(f"k{i}", i)
                    await self._await_restart(shard, 1)
                    await asyncio.sleep(0.3)  # let auto-heal settle
                    for i in range(12):
                        assert await session.get(f"k{i}") == i
                result = cluster.admin().check(check_mwmr_atomicity)
                assert result.checked_reads > 0
                assert not result.violations, result.violations

        run(scenario())

    def test_group_child_serves_again_right_after_its_restart(
            self, tmp_path):
        """``granularity="group"``: the kill takes the whole replica set
        down, so nothing can complete until the supervisor has restarted
        it -- and then everything must, at once.  The client's link
        learns of the death from its reader (EOF); if its writer kept
        the dead socket, the first frames after the restart (auto-heal's
        first round) would be lost and every later ``put`` to a healed
        key would fail against the register the hung heal still holds.
        """

        async def scenario():
            config = SystemConfig.optimal(
                t=1, b=1, num_writers=2).with_deployment("multiproc")
            cluster = Cluster(AtomicStorageProtocol, config, num_shards=1,
                              granularity="group", record_history=True,
                              data_dir=str(tmp_path))
            async with cluster:
                shard = next(iter(cluster.kv.shards.values()))
                async with cluster.session() as session:
                    for i in range(6):
                        await session.put(f"k{i}", i)
                    cluster.kv.crash_replica("k0", 1)
                    await self._await_restart(shard, 1)
                    # acknowledged before the kill: in the WAL, so back
                    for i in range(6):
                        assert await asyncio.wait_for(
                            session.get(f"k{i}"), 10) == i
                    for i in range(12):
                        await asyncio.wait_for(
                            session.put(f"k{i}", i + 100), 10)
                    for i in range(12):
                        assert await session.get(f"k{i}") == i + 100
                result = cluster.admin().check(check_mwmr_atomicity)
                assert result.checked_reads > 0
                assert not result.violations, result.violations

        run(scenario())


# ---------------------------------------------------------------------------
# conditional writes
# ---------------------------------------------------------------------------


class TestPutIf:
    def _cluster(self):
        return Cluster(RegularStorageProtocol,
                       SystemConfig.optimal(t=1, b=1, num_writers=2),
                       num_shards=2)

    def test_put_if_matches_and_chains(self):
        async def scenario():
            async with self._cluster() as cluster:
                async with cluster.session() as s:
                    tag1 = await s.put_if("a", 1, None)  # fresh key
                    assert tag1 is not None
                    tag2 = await s.put_if("a", 2, tag1)
                    assert tag2 > tag1
                    assert await s.get("a") == 2

        run(scenario())

    def test_put_if_mismatch_raises_without_writing(self):
        async def scenario():
            async with self._cluster() as cluster:
                async with cluster.session() as s:
                    await s.put("a", 1)
                    _, tag = await s.get_tagged("a")
                    with pytest.raises(PreconditionFailedError) as exc:
                        await s.put_if("a", 99, None)
                    assert exc.value.expected is None
                    assert exc.value.observed == tag
                    assert await s.get("a") == 1  # untouched
                    # stale tag (pre-bump) also refused
                    await s.put("a", 2)
                    with pytest.raises(PreconditionFailedError):
                        await s.put_if("a", 99, tag)
                    assert await s.get("a") == 2

        run(scenario())

    def test_precondition_failure_is_not_retried(self):
        assert not any(issubclass(PreconditionFailedError, cls)
                       for cls in RETRYABLE)
        assert not RetryPolicy().handles(
            PreconditionFailedError("x", None, None))


# ---------------------------------------------------------------------------
# typed reconnect error
# ---------------------------------------------------------------------------


class TestReplicaUnavailable:
    def test_policy_absorbs_unavailability(self):
        assert ReplicaUnavailableError in RETRYABLE
        assert RetryPolicy().handles(ReplicaUnavailableError("gone"))
        assert not RetryPolicy(retry_unavailable=False).handles(
            ReplicaUnavailableError("gone"))

    def test_broken_pipe_maps_to_typed_error_then_reconnects(self):
        async def scenario():
            protocol = RegularStorageProtocol()
            config = SystemConfig.optimal(t=1, b=1)
            automaton = protocol.make_objects(config)[0]
            server = TcpObjectServer(automaton)
            port = await server.start()
            client = TcpStorageClient(WRITER, [("127.0.0.1", port)])
            await client.connect()
            frame = _frame_binary(WRITER, TagQuery(nonce=0))
            try:
                # the replica dies: listener gone, connection reset
                await server.stop()
                client._connections[0][1].transport.abort()
                await asyncio.sleep(0)
                with pytest.raises(ReplicaUnavailableError):
                    # dead peer: one reconnect attempt, then typed error
                    await client._write_frame(0, frame)
                # replica back on the same port: the write path recovers
                server2 = TcpObjectServer(automaton, port=port)
                await server2.start()
                try:
                    await client._write_frame(0, frame)
                finally:
                    await server2.stop()
            finally:
                await client.close()

        run(scenario())
