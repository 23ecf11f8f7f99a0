"""Multi-process replica serving: supervised child processes + WAL.

The in-proc deployment runs every replica, client host and shard group
on one asyncio loop -- the GIL caps the whole cluster at one core.
This module promotes replicas to **child OS processes**, each serving
its object automata through one
:class:`~repro.runtime.tcp.TcpObjectServer` on the binary wire format,
with the paper's fault model upgraded from crash-stop to
crash-*recovery*:

* :class:`ReplicaProcess` -- one spawned child hosting one replica (or a
  whole shard group, see ``granularity``), reporting its listen port
  back over a pipe;
* :class:`ReplicaProcessSupervisor` -- spawn, liveness monitoring
  (``is_alive`` + optional TCP health pings), ``kill -9`` fault
  injection and automatic restart.  A restarted replica recovers its
  durable state from WAL + snapshot
  (:class:`~repro.runtime.wal.ReplicaDurability`) before it starts
  serving, and the supervisor's ``on_restart`` hook lets the service
  tier run :meth:`~repro.service.reconfig.ReconfigCoordinator.
  heal_replica` to top up whatever the replica missed while dead;
* :class:`ProcNetwork` -- an :class:`~repro.runtime.memnet.AsyncNetwork`
  drop-in whose object-bound sends travel real sockets: one link per
  (client, child) that encodes each payload once per broadcast and
  ships it as one *addressed* frame listing the replicas it is for (one
  protocol round = one socket write each way), queues frames while the
  child is down (crash semantics: the replicas never saw them) and
  transparently reconnects to the child's *new* port after a restart;
* :class:`ProcMultiRegisterStore` -- a
  :class:`~repro.service.store.MultiRegisterStore` whose base objects
  live in the supervised children.  Client hosts, per-register states,
  vector rounds, fences and the reconfiguration machinery are inherited
  unchanged -- the deployment switch (``SystemConfig.deployment``)
  only swaps the transport underneath them.

Children are started with the ``spawn`` context: a fresh interpreter
per replica (no inherited event loop or fds), the price being ~0.5 s of
import time per child -- paid once per process lifetime.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import multiprocessing.connection
import os
import signal
from dataclasses import dataclass
from typing import (Any, Awaitable, Callable, Dict, List, Optional,
                    Tuple)

from ..automata.base import Sink, resolve_batch_handler
from ..config import SystemConfig
from ..errors import ConfigurationError, TransportError
from ..messages import TagQuery
from ..protocols import StorageProtocol
from ..runtime.memnet import AsyncEnvelope, AsyncNetwork
from ..runtime.tcp import (MAX_DESTINATIONS, TcpObjectServer, _frame_binary,
                           pack_addressed, read_frame)
from ..runtime.wal import ReplicaDurability, durable_records
from ..types import ProcessId, reader
from .store import MultiRegisterStore

_log = logging.getLogger(__name__)

#: Seconds between supervisor liveness sweeps.
MONITOR_INTERVAL = 0.05
#: Consecutive failed health pings before a live-but-wedged child is
#: killed and restarted (generous: a busy single-core box must not get
#: its replicas shot for scheduling latency).
PING_FAILURE_THRESHOLD = 5


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything a child process needs to serve its replicas.

    Must stay picklable (``spawn`` ships it to the child): the protocol
    travels as a zero-argument *factory* (typically the protocol class
    itself), never as an instance.
    """

    protocol_factory: Callable[[], StorageProtocol]
    config: SystemConfig
    #: object indices this child hosts (one for ``granularity="replica"``,
    #: all of them for ``granularity="group"``).
    indices: Tuple[int, ...]
    data_dir: str
    host: str = "127.0.0.1"
    #: durable records between automatic snapshots.
    snapshot_every: int = 512


class _ChildLog:
    """The write-ahead logs of one child, as its server's frame hook.

    Every hosted replica keeps its own log, but they all log the same
    records: the payloads of one inbound frame are built once
    (:func:`~repro.runtime.wal.durable_records`) and shared.
    """

    def __init__(self, stores: Dict[int, ReplicaDurability]):
        self.stores = stores
        #: single-entry memo; the strong ref makes the identity check safe.
        self._message: Any = None
        self._records: Any = ()

    def __call__(self, index: int, sender: ProcessId, message: Any,
                 wire: bytes) -> Optional[Awaitable[None]]:
        if message is not self._message:
            self._message = message
            self._records = durable_records(sender, message, wire)
        return self.stores[index].log_records(sender, self._records)


def _snapshot_one_due(stores: Dict[int, ReplicaDurability],
                      snapshot_every: int) -> None:
    """Snapshot at most one replica whose WAL has grown long enough.

    The replicas of a child log the same records, so they all come due
    in the same monitor tick; taking them one tick apart keeps the
    serving loop from stalling behind every replica's fsyncs back to
    back.
    """
    for store in stores.values():
        if store.records_since_snapshot >= snapshot_every:
            store.take_snapshot()
            return


async def _serve_replicas(spec: ReplicaSpec,
                          conn: "multiprocessing.connection.Connection"
                          ) -> None:
    """Child-side serving loop: recover, listen, report the port, run.

    Runs until the parent sends anything on the pipe (graceful stop) or
    the pipe breaks (parent died) -- children never outlive their
    supervisor.
    """
    protocol = spec.protocol_factory()
    automata = protocol.make_objects(spec.config)
    durability: Dict[int, ReplicaDurability] = {}
    for index in spec.indices:
        store = ReplicaDurability(
            os.path.join(spec.data_dir, f"replica-{index}"),
            fsync=spec.config.wal_fsync)
        handler = resolve_batch_handler(automata[index])
        for sender, message in store.recover():
            sink: Sink = []  # recovery replies go nowhere
            handler(sender, (message,), sink)
        durability[index] = store
    server = TcpObjectServer([automata[index] for index in spec.indices],
                             host=spec.host, port=0,
                             frame_hook=_ChildLog(durability))
    conn.send(await server.start())
    try:
        while True:
            await asyncio.sleep(MONITOR_INTERVAL)
            if conn.poll():
                break  # any parent message means stop
            _snapshot_one_due(durability, spec.snapshot_every)
    except (EOFError, OSError):
        pass  # parent is gone; fall through to cleanup
    finally:
        await server.stop()
        for store in durability.values():
            store.take_snapshot()
            store.close()


def _replica_child_main(spec: ReplicaSpec,
                        conn: "multiprocessing.connection.Connection"
                        ) -> None:
    try:
        asyncio.run(_serve_replicas(spec, conn))
    except KeyboardInterrupt:
        pass


class ReplicaProcess:
    """One supervised child process hosting ``spec.indices``."""

    def __init__(self, spec: ReplicaSpec):
        self.spec = spec
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.conn: Optional[
            "multiprocessing.connection.Connection"] = None
        #: the child's TCP port, valid once :meth:`start` returns.
        self.port: Optional[int] = None

    async def start(self, timeout: float = 30.0) -> int:
        """Spawn the child and await its port report."""
        # The previous incarnation's port is stale the moment a new
        # child spawns; clear it so port_of() reports the replicas as
        # down (not at a dead -- or recycled -- port) until the new
        # port report lands.
        self.port = None
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_replica_child_main, args=(self.spec, child_conn),
            daemon=True)
        loop = asyncio.get_running_loop()
        # A "spawn" start forks + execs a fresh interpreter (~0.5s); off
        # the loop so gather()ed sibling spawns overlap instead of
        # serializing behind each other's exec.
        await loop.run_in_executor(None, self.process.start)
        child_conn.close()
        self.conn = parent_conn
        deadline = loop.time() + timeout
        while not parent_conn.poll():
            if not self.process.is_alive():
                raise TransportError(
                    f"replica child for objects {self.spec.indices} died "
                    f"during startup (exit code "
                    f"{self.process.exitcode})")
            if loop.time() > deadline:
                self.process.kill()  # reprolint: ok[blocking-async] -- one SIGKILL syscall, no wait
                raise TransportError(
                    f"replica child for objects {self.spec.indices} did "
                    f"not report its port within {timeout}s")
            await asyncio.sleep(0.01)
        self.port = parent_conn.recv()
        return self.port

    def is_alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def kill(self) -> None:
        """``kill -9``: no flush, no goodbye -- the crash being modeled."""
        if self.process is not None and self.process.pid is not None:
            try:
                os.kill(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    async def stop(self, timeout: float = 5.0) -> None:
        """Graceful stop: the child snapshots and exits on its own."""
        process = self.process
        if process is None:
            return
        # Claim the pipe before the first suspension: a concurrent stop
        # then sees None and cannot double-send or double-close it.
        conn, self.conn = self.conn, None
        try:
            if conn is not None:
                conn.send("stop")
        except (BrokenPipeError, OSError):
            pass
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while process.is_alive() and loop.time() < deadline:
            await asyncio.sleep(0.01)
        if process.is_alive():
            process.kill()  # reprolint: ok[blocking-async] -- one SIGKILL syscall, no wait
        # join() blocks until the child is reaped; off the loop.
        await loop.run_in_executor(None, process.join, 1.0)
        if conn is not None:
            conn.close()


class ReplicaProcessSupervisor:
    """Spawns, watches and restarts the replica children of one store.

    ``granularity`` decides the process layout: ``"replica"`` gives
    every base object its own child (independent failure domains, the
    paper's model), ``"group"`` puts the whole replica set in one child
    (one spawn per shard group, and one socket write each way per
    protocol round).  The monitor task restarts any dead child; a restarted
    child recovers from WAL + snapshot before reporting ports, and
    ``on_restart(index)`` then fires once per hosted object index so
    the service tier can run its ``heal_replica`` catch-up.

    ``ping_interval`` (seconds, ``None`` disables) adds active health
    checks: a live child that fails :data:`PING_FAILURE_THRESHOLD`
    consecutive TCP pings is presumed wedged, killed, and restarted
    through the same path as a crash.
    """

    def __init__(self, protocol_factory: Callable[[], StorageProtocol],
                 config: SystemConfig, data_dir: str,
                 granularity: str = "group",
                 host: str = "127.0.0.1",
                 snapshot_every: int = 512,
                 ping_interval: Optional[float] = None,
                 on_restart: Optional[
                     Callable[[int], Awaitable[None]]] = None):
        if granularity not in ("replica", "group"):
            raise ConfigurationError(
                f"unknown process granularity {granularity!r}; "
                f"expected 'replica' or 'group'")
        self.config = config
        self.data_dir = data_dir
        self.granularity = granularity
        self.host = host
        self.ping_interval = ping_interval
        self.on_restart = on_restart
        if granularity == "replica":
            index_groups: List[Tuple[int, ...]] = [
                (i,) for i in range(config.num_objects)]
        else:
            index_groups = [tuple(range(config.num_objects))]
        self._procs: List[ReplicaProcess] = [
            ReplicaProcess(ReplicaSpec(
                protocol_factory=protocol_factory, config=config,
                indices=indices, data_dir=data_dir, host=host,
                snapshot_every=snapshot_every))
            for indices in index_groups
        ]
        self._proc_of: Dict[int, ReplicaProcess] = {
            index: proc for proc in self._procs
            for index in proc.spec.indices
        }
        self._monitor_task: Optional[asyncio.Task] = None
        self._started = False
        #: object index -> restarts performed by the monitor.
        self.restarts: Dict[int, int] = {}
        self._ping_failures: Dict[int, int] = {}

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "ReplicaProcessSupervisor":
        if self._started:
            return self
        # Claim the flag before suspending: a second start() arriving
        # while the spawns are in flight must not spawn a duplicate
        # fleet of children.
        self._started = True
        try:
            await asyncio.gather(*(proc.start() for proc in self._procs))
        except BaseException:
            self._started = False
            raise
        self._monitor_task = asyncio.get_running_loop().create_task(
            self._monitor())
        return self

    async def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            self._monitor_task = None
        await asyncio.gather(*(proc.stop() for proc in self._procs))

    # -- topology -----------------------------------------------------------
    def _hosting(self, index: int) -> ReplicaProcess:
        proc = self._proc_of.get(index)
        if proc is None:
            raise ConfigurationError(f"no replica process hosts {index}")
        return proc

    def port_of(self, index: int) -> Optional[int]:
        """The current TCP port of the child hosting object ``index``
        (``None`` if down)."""
        proc = self._proc_of.get(index)
        if proc is None or not proc.is_alive():
            return None
        return proc.port

    def hosted_with(self, index: int) -> Tuple[int, ...]:
        """Every object index served by the child that hosts ``index``."""
        return self._hosting(index).spec.indices

    # -- fault injection ----------------------------------------------------
    def kill_replica(self, index: int) -> None:
        """SIGKILL the child hosting ``index``; the monitor restarts it."""
        self._hosting(index).kill()

    # -- health -------------------------------------------------------------
    async def ping(self, index: int, timeout: float = 2.0) -> bool:
        """One TCP round-trip through the serving loop of ``index``'s child.

        A :class:`~repro.messages.TagQuery` on a reserved register id:
        cheap, read-only, and answered by every protocol's object
        automaton -- a reply proves the child's event loop is serving,
        not merely that the process exists.
        """
        port = self.port_of(index)
        if port is None:
            return False
        try:
            reader_s, writer_s = await asyncio.wait_for(
                asyncio.open_connection(self.host, port), timeout)
        except (OSError, asyncio.TimeoutError):
            return False
        try:
            probe = TagQuery(nonce=0, register_id="__health__")
            writer_s.write(_frame_binary(reader(0), probe))
            await writer_s.drain()
            parsed = await asyncio.wait_for(read_frame(reader_s), timeout)
            return parsed is not None
        except (OSError, asyncio.TimeoutError, TransportError):
            return False
        finally:
            writer_s.close()

    async def _monitor(self) -> None:
        loop = asyncio.get_running_loop()
        next_ping = (loop.time() + self.ping_interval
                     if self.ping_interval is not None else None)
        while True:
            await asyncio.sleep(MONITOR_INTERVAL)
            for proc in self._procs:
                if not proc.is_alive():
                    try:
                        await self._restart(proc)
                    except Exception:
                        # A failed respawn (child died during startup,
                        # port-report deadline) must not kill the
                        # monitor: the child is still dead, so the next
                        # sweep retries.
                        _log.exception(
                            "restart of replica child %s failed; "
                            "retrying on the next sweep",
                            proc.spec.indices)
            if next_ping is not None and loop.time() >= next_ping:
                next_ping = loop.time() + self.ping_interval
                try:
                    await self._ping_sweep()
                except Exception:
                    _log.exception("health-ping sweep failed")

    async def _ping_sweep(self) -> None:
        for proc in self._procs:
            if not proc.is_alive():
                continue  # the liveness check owns dead children
            index = proc.spec.indices[0]  # one serving loop per child
            if await self.ping(index):
                self._ping_failures[index] = 0
                continue
            failures = self._ping_failures.get(index, 0) + 1
            self._ping_failures[index] = failures
            if failures >= PING_FAILURE_THRESHOLD:
                self._ping_failures[index] = 0
                # wedged: the liveness sweep restarts it
                proc.kill()  # reprolint: ok[blocking-async] -- one SIGKILL syscall, no wait

    async def _restart(self, proc: ReplicaProcess) -> None:
        proc.process.join(timeout=0)  # reprolint: ok[blocking-async] -- timeout=0 reaps the corpse without waiting
        if proc.conn is not None:
            proc.conn.close()
        await proc.start()
        for index in proc.spec.indices:
            self.restarts[index] = self.restarts.get(index, 0) + 1
        if self.on_restart is not None:
            for index in proc.spec.indices:
                try:
                    await self.on_restart(index)
                except Exception:
                    # The child itself is up; a failed catch-up hook
                    # leaves it merely slow-but-correct (WAL-recovered),
                    # which the protocols tolerate.
                    _log.exception(
                        "on_restart hook failed for object %d", index)


class _ChildLink:
    """One client's socket to one replica child, with reconnect-on-restart.

    Sends are fire-and-forget from the caller's perspective (matching
    :meth:`AsyncNetwork.send`): frames queue here with the replicas they
    are for, and a writer task drains the whole queue in one socket
    write of addressed frames.  While the child is down the queue simply
    grows -- those frames reach the replicas after restart, interleaved
    exactly as a slow network would deliver them -- and frames written
    into a dying socket are lost, which is precisely the crash semantics
    the protocols tolerate.  Replies pump straight into the owning
    client's inbox.
    """

    __slots__ = ("network", "client", "index", "queue", "wakeup", "task",
                 "writes", "frames_written")

    def __init__(self, network: "ProcNetwork", client: ProcessId,
                 index: int):
        self.network = network
        self.client = client
        self.index = index  # any replica of the child: they share a port
        #: (binary frame, the object indices it is addressed to)
        self.queue: List[Tuple[bytes, List[int]]] = []
        self.wakeup = asyncio.Event()
        self.writes = 0
        self.frames_written = 0
        self.task = asyncio.get_running_loop().create_task(self._run())

    def enqueue(self, index: int, frame: bytes) -> None:
        """Queue ``frame`` for replica ``index``.

        A broadcast sends the same frame object to replica after
        replica; those sends merge into one addressed frame.
        """
        queue = self.queue
        if (queue and queue[-1][0] is frame
                and len(queue[-1][1]) < MAX_DESTINATIONS):
            queue[-1][1].append(index)
        else:
            queue.append((frame, [index]))
            self.wakeup.set()

    def close(self) -> None:
        self.task.cancel()

    async def _run(self) -> None:
        while True:
            port = self.network.port_of(self.index)
            if port is None:
                await asyncio.sleep(0.05)  # child down or restarting
                continue
            try:
                reader_s, writer_s = await asyncio.open_connection(
                    self.network.host, port)
            except OSError:
                await asyncio.sleep(0.05)
                continue
            pump = asyncio.get_running_loop().create_task(
                self._pump(reader_s))
            # The reader is the first to learn that the child died (EOF);
            # a write into the dead socket would still succeed, and lose
            # the frame.  So its end wakes the writer ...
            pump.add_done_callback(lambda _: self.wakeup.set())
            try:
                while True:
                    if not self.queue:
                        self.wakeup.clear()
                        await self.wakeup.wait()
                    if pump.done():
                        break  # ... which reconnects, its queue intact
                    queued, self.queue = self.queue, []
                    writer_s.write(b"".join(
                        [pack_addressed(dests, frame)
                         for frame, dests in queued]))
                    self.writes += 1
                    self.frames_written += len(queued)
                    await writer_s.drain()
            except OSError:
                pass  # child died mid-write: reconnect loop takes over
            finally:
                pump.cancel()
                writer_s.close()

    async def _pump(self, reader_s: asyncio.StreamReader) -> None:
        try:
            while True:
                parsed = await read_frame(reader_s)
                if parsed is None:
                    return
                sender, message = parsed
                self.network.deliver_local(sender, self.client, message)
        except (TransportError, OSError):
            return


class ProcNetwork(AsyncNetwork):
    """The in-memory network's interface over real replica sockets.

    Client pids keep ordinary in-memory mailboxes (client hosts are
    unchanged); sends *to object pids* are encoded once and queued on
    the sender's :class:`_ChildLink` to the child hosting the object.
    Port lookups go through the supervisor on every (re)connect, so a
    child coming back on a fresh port is picked up without any rewiring.
    """

    def __init__(self, supervisor: ReplicaProcessSupervisor,
                 jitter: float = 0.0, seed: int = 0):
        super().__init__(jitter=0.0, seed=seed)  # real sockets jitter
        self.supervisor = supervisor
        self.host = supervisor.host
        #: (client, object index) -> the client's link to the child
        #: hosting that object; replicas of one child share the link.
        self._links: Dict[Tuple[ProcessId, int], _ChildLink] = {}
        #: single-entry encode memo: a vector broadcast sends the *same*
        #: payload object to every replica -- encode it once, not S
        #: times.  The strong payload ref makes the identity check safe.
        self._memo: Optional[Tuple[ProcessId, Any, bytes]] = None

    def port_of(self, index: int) -> Optional[int]:
        return self.supervisor.port_of(index)

    def links(self) -> List[_ChildLink]:
        """Every open link, once."""
        return list(set(self._links.values()))

    def deliver_local(self, sender: ProcessId, receiver: ProcessId,
                      message: Any) -> None:
        if receiver in self._crashed:
            return
        mailbox = self._mailboxes.get(receiver)
        if mailbox is not None:
            self._post(mailbox, AsyncEnvelope(sender, receiver, message))

    def send(self, sender: ProcessId, receiver: ProcessId,
             payload: Any) -> None:
        if not receiver.is_object:
            super().send(sender, receiver, payload)
            return
        self.messages_sent += 1
        if receiver in self._crashed:
            return
        memo = self._memo
        if memo is not None and memo[0] == sender and memo[1] is payload:
            frame = memo[2]
        else:
            frame = _frame_binary(sender, payload)
            self._memo = (sender, payload, frame)
        index = receiver.index
        link = self._links.get((sender, index))
        if link is None:
            hosted = self.supervisor.hosted_with(index)
            link = _ChildLink(self, sender, index)
            for sibling in hosted:
                self._links[(sender, sibling)] = link
        link.enqueue(index, frame)

    def close(self) -> None:
        for link in self.links():
            link.close()
        self._links.clear()


class ProcMultiRegisterStore(MultiRegisterStore):
    """A multi-register store whose replicas are supervised processes.

    The client half (multiplexed hosts, per-register states, vector
    rounds, epoch seeding) is inherited; the object half is replaced by
    a :class:`ReplicaProcessSupervisor` + :class:`ProcNetwork` pair.
    Fault verbs map onto process verbs: :meth:`crash_object` is a real
    ``kill -9``, :meth:`replace_object` relies on the supervisor's
    restart (state recovered from WAL + snapshot), and
    :meth:`make_byzantine` is refused -- automata cannot be swapped
    inside a child; compromise modeling stays an in-proc concern.
    """

    def __init__(self, protocol_factory: Callable[[], StorageProtocol],
                 config: SystemConfig, data_dir: str,
                 granularity: str = "group",
                 jitter: float = 0.0, seed: int = 0,
                 default_timeout: Optional[float] = 30.0,
                 max_pending_per_host: Optional[int] = None,
                 record_history: bool = False,
                 history=None,
                 snapshot_every: int = 512,
                 ping_interval: Optional[float] = None,
                 on_replica_restart: Optional[
                     Callable[[int], Awaitable[None]]] = None):
        self._on_replica_restart = on_replica_restart
        self.supervisor = ReplicaProcessSupervisor(
            protocol_factory, config, data_dir,
            granularity=granularity, snapshot_every=snapshot_every,
            ping_interval=ping_interval,
            on_restart=self._handle_restart)
        super().__init__(protocol_factory(), config, jitter=jitter,
                         seed=seed, default_timeout=default_timeout,
                         max_pending_per_host=max_pending_per_host,
                         record_history=record_history, history=history)

    # -- deployment hooks ---------------------------------------------------
    def _make_network(self, jitter: float, seed: int) -> AsyncNetwork:
        return ProcNetwork(self.supervisor, jitter=jitter, seed=seed)

    def _make_object_hosts(self) -> List:
        return []  # the objects live in the supervised children

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "ProcMultiRegisterStore":
        if self._started:
            return self
        # Claim-first, as in the supervisor: a concurrent start() during
        # the spawn await must not drive a second supervisor.start().
        self._started = True
        try:
            await self.supervisor.start()
        except BaseException:
            self._started = False
            raise
        return self

    async def stop(self) -> None:
        if not self._started:
            return
        await super().stop()  # flips the flag, stops the client hosts
        await self.supervisor.stop()
        self.network.close()

    # -- faults & repair ----------------------------------------------------
    def crash_object(self, index: int) -> None:
        """A real crash: SIGKILL the child (the supervisor restarts it,
        recovering from WAL + snapshot -- crash-recovery, not
        crash-stop)."""
        self.supervisor.kill_replica(index)

    def make_byzantine(self, index: int, automaton) -> None:
        raise ConfigurationError(
            "multiproc replicas cannot be made Byzantine in place: "
            "automata live inside child processes; model compromise "
            "with the inproc deployment")

    def replace_object(self, index: int, automaton=None):
        """Under process supervision, replacement *is* restart.

        The supervisor's monitor respawns a dead child automatically;
        this method only validates the request and hands back a fresh
        automaton instance for interface parity with the in-proc
        store.  Client traffic queued on the links to the object's
        child flushes once the child reports its new port.
        """
        if automaton is not None:
            raise ConfigurationError(
                "multiproc replicas recover their own state from WAL + "
                "snapshot; a replacement automaton cannot be injected")
        return self.protocol.make_objects(self.config)[index]

    # -- restart plumbing ---------------------------------------------------
    async def _handle_restart(self, index: int) -> None:
        if self._on_replica_restart is not None:
            await self._on_replica_restart(index)

    def describe(self) -> str:
        return (f"ProcMultiRegisterStore({self.protocol.describe()}; "
                f"{self.config.describe()}; "
                f"{len(self.supervisor._procs)} replica process(es), "
                f"granularity={self.supervisor.granularity!r})")


__all__ = [
    "ProcMultiRegisterStore",
    "ProcNetwork",
    "ReplicaProcess",
    "ReplicaProcessSupervisor",
    "ReplicaSpec",
]
