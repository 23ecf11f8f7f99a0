"""One replica set, many registers: the multiplexed asyncio store.

:class:`MultiRegisterStore` is the paper's deployment done right at
scale: a *fixed* set of ``S`` commodity base objects (one
:class:`~repro.runtime.hosts.ObjectHost` each) serves arbitrarily
many registers -- SWMR by default, MWMR when the config declares several
writers (each writer gets its own multiplexed client host and the
protocols arbitrate with ``(epoch, writer_id)`` tags).  Contrast with one
:class:`~repro.runtime.storage.AsyncStorage` per key, which builds ``S``
object hosts, ``S`` mailboxes and a client host *per register* -- at 10k
keys that is 40k+ hosts doing the work these same ``S`` hosts do here.

Per-register protocol state lives in the object automata's register
slots (server side) and in lazily created writer/reader states (client
side).  Client processes are multiplexed too: one
:class:`~repro.runtime.hosts.MuxClientHost` per process drives one
operation per register concurrently and coalesces same-step messages to
the same object into single :class:`~repro.messages.Batch` envelopes --
the service tier's write batching.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..automata.base import ObjectAutomaton
from ..config import SystemConfig
from ..errors import ConfigurationError, TransportError
from ..protocols import StorageProtocol
from ..runtime.hosts import MuxClientHost, ObjectHost
from ..runtime.memnet import AsyncNetwork
from ..spec.histories import History
from ..types import WRITER, WriterTag, obj, reader, writer

#: Writer index of the out-of-band control identity (fence/reconfig
#: traffic).  Far above any plausible ``config.num_writers`` so it never
#: collides with an application writer host.
CONTROL_WRITER_INDEX = 1 << 20


class MultiRegisterStore:
    """Many registers multiplexed over one replica set (asyncio).

    Registers are MWMR when the config declares several writers: any
    writer host may write any register (the protocols arbitrate with
    ``(epoch, writer_id)`` tags).  ``record_history=True`` captures every
    operation into a shared :class:`~repro.spec.histories.History` whose
    event order is the event loop's, feeding the consistency checkers.
    ``max_pending_per_host`` bounds each client host's concurrently
    pending registers (see :class:`~repro.errors.BackpressureError`).
    """

    def __init__(self, protocol: StorageProtocol, config: SystemConfig,
                 jitter: float = 0.0, seed: int = 0,
                 default_timeout: Optional[float] = 30.0,
                 batching: bool = True,
                 max_pending_per_host: Optional[int] = None,
                 record_history: bool = False,
                 history: Optional[History] = None,
                 fast_reads: bool = False):
        protocol.validate_config(config)
        self.protocol = protocol
        self.config = config
        self.network = self._make_network(jitter, seed)
        self.default_timeout = default_timeout
        self.history: Optional[History] = (
            history if history is not None
            else (History() if record_history else None))
        self._batching = batching
        self._max_pending = max_pending_per_host
        self._object_hosts: List[ObjectHost] = self._make_object_hosts()
        self._states = protocol.client_states(config)
        if fast_reads:
            self._states.enable_fast_reads()
        self._writer_hosts: Dict[int, MuxClientHost] = {
            0: self._make_client_host(WRITER)}
        self._reader_hosts = [
            self._make_client_host(reader(j))
            for j in range(config.num_readers)
        ]
        self._control_host: Optional[MuxClientHost] = None
        self._started = False

    # -- deployment hooks ---------------------------------------------------
    # Subclasses (the multiproc deployment) override these to swap the
    # transport underneath the unchanged client machinery.
    def _make_network(self, jitter: float, seed: int) -> AsyncNetwork:
        return AsyncNetwork(jitter=jitter, seed=seed)

    def _make_object_hosts(self) -> List[ObjectHost]:
        return [ObjectHost(automaton, self.network)
                for automaton in self.protocol.make_objects(self.config)]

    def _make_client_host(self, pid) -> MuxClientHost:
        return MuxClientHost(pid, self.network, batching=self._batching,
                             max_pending=self._max_pending,
                             history=self.history)

    def _writer_host(self, writer_index: int = 0) -> MuxClientHost:
        """The host of writer ``writer_index`` (created lazily).

        Lazy creation is gated on the store being started: a host
        created after ``stop()`` would attach a consumer nothing ever
        detaches again.
        """
        self._require_started()
        if not 0 <= writer_index < self.config.num_writers:
            raise TransportError(
                f"writer index {writer_index} out of range for "
                f"{self.config.num_writers} writer(s)")
        host = self._writer_hosts.get(writer_index)
        if host is None:
            host = self._writer_hosts[writer_index] = \
                self._make_client_host(writer(writer_index))
        return host

    def control_host(self) -> MuxClientHost:
        """The out-of-band control host (fence/reconfig operations).

        One per store, shared by every coordinator, so two coordinators
        can never double-bind the control identity's inbox.  Control
        traffic bypasses history recording -- fences are not register
        operations.
        """
        self._require_started()
        if self._control_host is None:
            self._control_host = MuxClientHost(
                writer(CONTROL_WRITER_INDEX), self.network,
                batching=self._batching)
        return self._control_host

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "MultiRegisterStore":
        if not self._started:
            for host in self._object_hosts:
                host.start()
            self._started = True
        return self

    async def stop(self) -> None:
        if not self._started:
            return  # idempotent: a second stop must not touch fresh hosts
        # Flip the flag first so concurrent writers cannot lazily create
        # a host (and attach it) between the sweep and the return.
        self._started = False
        for host in self._object_hosts:
            host.stop()
        for host in list(self._writer_hosts.values()):
            host.stop()
        for host in self._reader_hosts:
            host.stop()
        if self._control_host is not None:
            self._control_host.stop()

    async def quiesce(self) -> None:
        """Wait until no client host has an operation in flight.

        Used before retiring a store (shard drain): operations admitted
        earlier complete normally instead of being evicted by
        ``stop()``.  New admissions are the caller's responsibility to
        prevent (e.g. by flipping routing away first).
        """
        hosts = list(self._writer_hosts.values()) + self._reader_hosts
        if self._control_host is not None:
            hosts.append(self._control_host)
        while any(host._pending for host in hosts):
            await asyncio.sleep(0)

    async def __aenter__(self) -> "MultiRegisterStore":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    def _require_started(self) -> None:
        if not self._started:
            raise TransportError("store not started; use 'async with'")

    # -- per-register client states ------------------------------------------
    def registers(self) -> List[str]:
        """Register ids written or read so far through this store."""
        return self._states.registers()

    # -- tag leases (fast reads) ---------------------------------------------
    @property
    def fast_reads(self) -> bool:
        return self._states.leases.enabled

    def enable_fast_reads(self) -> None:
        """Turn the lease-probe fast path on (capable protocols only)."""
        self._states.enable_fast_reads()

    def disable_fast_reads(self) -> None:
        """Classic-only reads from here on; existing leases are dropped."""
        self._states.leases.enabled = False
        self._states.leases.leases.clear()

    def drop_leases(self, register_ids: Optional[Iterable[str]] = None
                    ) -> None:
        """Drop read leases (all registers, or just ``register_ids``).

        Called on routing flips and fence-aborted writes: a lease earned
        under the old configuration may point into a retired replica set.
        """
        self._states.leases.drop(register_ids)

    def grant_read_leases(
            self, entries: Mapping[str, Tuple[Any, Any]]) -> None:
        """Seed leases from certified ``{register: (tag, value)}`` pairs.

        The caller vouches that each pair was returned by a *completed*
        read (e.g. a snapshot's confirming collect), which is exactly the
        evidence a lease needs; grants are monotone, so a stale entry is
        a no-op.
        """
        grant = self._states.leases.grant
        for register_id, (tag, value) in entries.items():
            grant(register_id, tag, value)

    def stats(self) -> Dict[str, Any]:
        """Operational counters (first slice of the observability item)."""
        hosts = list(self._writer_hosts.values()) + self._reader_hosts
        return {
            "fast_reads_enabled": self._states.leases.enabled,
            "fast_reads_taken": sum(h.fast_reads_taken for h in hosts),
            "fast_read_fallbacks": sum(h.fast_read_fallbacks
                                       for h in hosts),
            "lease_invalidations": self._states.leases.invalidations,
            "messages_sent": self.network.messages_sent,
        }

    # -- single operations ----------------------------------------------------
    async def write(self, register_id: str, value: Any,
                    timeout: Optional[float] = None,
                    writer_index: int = 0, record: bool = True) -> Any:
        self._require_started()
        operation = self.protocol.make_write_to(
            self._states.writer(register_id, writer_index), value,
            register_id)
        result = await self._writer_host(writer_index).run(
            operation, timeout or self.default_timeout, record=record)
        # The completed write's ack certifies (tag, value) quorum-held.
        self._states.leases.grant(register_id, operation.tag, value)
        return result

    async def write_tagged(self, register_id: str, value: Any,
                           timeout: Optional[float] = None,
                           writer_index: int = 0, record: bool = True
                           ) -> Tuple[Any, Optional[WriterTag]]:
        """WRITE and report the ``(epoch, writer_id)`` tag installed.

        ``record=False`` keeps the write out of the shared history --
        the reconfiguration coordinator uses this for replays, recording
        a *republication* alias instead (the replay duplicates a value
        whose original write is already on record).
        """
        self._require_started()
        operation = self.protocol.make_write_to(
            self._states.writer(register_id, writer_index), value,
            register_id)
        result = await self._writer_host(writer_index).run(
            operation, timeout or self.default_timeout, record=record)
        self._states.leases.grant(register_id, operation.tag, value)
        return result, operation.tag

    async def read(self, register_id: str, reader_index: int = 0,
                   timeout: Optional[float] = None) -> Any:
        self._require_started()
        operation = self.protocol.make_read_from(
            self._states.reader(register_id, reader_index), register_id)
        return await self._reader_hosts[reader_index].run(
            operation, timeout or self.default_timeout)

    async def read_tagged(self, register_id: str, reader_index: int = 0,
                          timeout: Optional[float] = None
                          ) -> Tuple[Any, Optional[WriterTag]]:
        """READ one register and report the ``(epoch, writer_id)`` tag.

        The tag is the version the read observed (``TAG0`` for ⊥) --
        already discovered by every protocol's read path, exposed here
        instead of discarded.  Cross-shard snapshot reads
        (:meth:`~repro.api.Session.snapshot`) cut against these tags;
        no extra round and no new wire frame is involved.
        """
        self._require_started()
        operation = self.protocol.make_read_from(
            self._states.reader(register_id, reader_index), register_id)
        value = await self._reader_hosts[reader_index].run(
            operation, timeout or self.default_timeout)
        return value, operation.tag

    # -- batched operations ----------------------------------------------------
    async def write_many(self, items: Mapping[str, Any],
                         timeout: Optional[float] = None,
                         writer_index: int = 0) -> Dict[str, Any]:
        """WRITE a batch of registers concurrently over the one replica set.

        Batches are driven as *vector rounds*
        (:meth:`~repro.runtime.hosts.MuxClientHost.run_many`): every
        protocol step of the whole batch leaves as a single
        :class:`~repro.messages.Batch` frame per base object
        (``len(items)`` registers cost ``S`` frames per round instead of
        ``len(items) * S``), and per-register quorum conditions are
        evaluated once per inbound burst instead of once per ack.
        """
        self._require_started()
        operations = [
            self.protocol.make_write_to(
                self._states.writer(register_id, writer_index), value,
                register_id)
            for register_id, value in items.items()
        ]
        results = await self._writer_host(writer_index).run_many(
            operations, timeout or self.default_timeout)
        leases = self._states.leases
        if leases.enabled:
            for operation, (register_id, value) in zip(operations,
                                                       items.items()):
                leases.grant(register_id, operation.tag, value)
        return dict(zip(items.keys(), results))

    async def read_many(self, register_ids: Iterable[str],
                        reader_index: int = 0,
                        timeout: Optional[float] = None) -> Dict[str, Any]:
        """READ a batch of registers concurrently; returns id -> value.

        Rides the same vector rounds as :meth:`write_many`: one frame
        per (replica, step) for the whole batch.
        """
        self._require_started()
        # Dedupe while preserving order: a repeated id is one read, not a
        # same-register concurrency violation.
        register_ids = list(dict.fromkeys(register_ids))
        operations = [
            self.protocol.make_read_from(
                self._states.reader(register_id, reader_index),
                register_id)
            for register_id in register_ids
        ]
        results = await self._reader_hosts[reader_index].run_many(
            operations, timeout or self.default_timeout)
        return dict(zip(register_ids, results))

    async def read_many_tagged(self, register_ids: Iterable[str],
                               reader_index: int = 0,
                               timeout: Optional[float] = None
                               ) -> Dict[str, Tuple[Any,
                                                    Optional[WriterTag]]]:
        """Batched :meth:`read_tagged`: id -> (value, observed tag)."""
        self._require_started()
        register_ids = list(dict.fromkeys(register_ids))
        operations = [
            self.protocol.make_read_from(
                self._states.reader(register_id, reader_index),
                register_id)
            for register_id in register_ids
        ]
        results = await self._reader_hosts[reader_index].run_many(
            operations, timeout or self.default_timeout)
        return {register_id: (value, operation.tag)
                for register_id, value, operation
                in zip(register_ids, results, operations)}

    # -- faults & repair ----------------------------------------------------
    def crash_object(self, index: int) -> None:
        """Crash one base object for *every* register it serves."""
        self.network.crash(obj(index))
        self._object_hosts[index].stop()

    def make_byzantine(self, index: int,
                       automaton: ObjectAutomaton) -> None:
        """Replace one replica's automaton (affects all registers at once).

        The replacement host takes over the replica's existing mailbox
        (:meth:`~repro.runtime.memnet.AsyncNetwork.register` hands it
        over), so messages in flight to the replica survive the swap;
        the old host detaches before the new one attaches.
        """
        self._object_hosts[index].stop()
        host = ObjectHost(automaton, self.network)
        self._object_hosts[index] = host
        if self._started:
            host.start()

    def replace_object(self, index: int,
                       automaton: Optional[ObjectAutomaton] = None
                       ) -> ObjectAutomaton:
        """Replace a (crashed) base object with a fresh replica.

        The replacement starts from the automaton's initial state (or
        ``automaton`` if given), inherits the replica's surviving inbox,
        and receives network traffic again even if the pid had been
        crashed.  The new replica is *stale* until it observes writes;
        :meth:`~repro.service.reconfig.ReconfigCoordinator.heal_replica`
        re-installs current values on top of this swap.
        """
        if automaton is None:
            automaton = self.protocol.make_objects(self.config)[index]
        self.network.restore(obj(index))
        self.make_byzantine(index, automaton)  # same swap, honest automaton
        return automaton

    def object_automaton(self, index: int) -> ObjectAutomaton:
        return self._object_hosts[index].automaton

    # -- reconfiguration support --------------------------------------------
    def seed_writer_epoch(self, register_id: str, epoch: int,
                          writer_index: int = 0) -> None:
        """Raise a register's writer epoch floor (shard handoff replay).

        The next WRITE to ``register_id`` by that writer uses an epoch
        ``> epoch``: single-writer protocols bump the seeded counter,
        multi-writer tag discovery uses it as its floor.  Replaying a
        moved register into its target shard seeds the *fence* epoch
        here so the replayed value's tag exceeds every pre-handoff tag.
        """
        state = self._states.writer(register_id, writer_index)
        if not hasattr(state, "ts"):
            raise ConfigurationError(
                f"{self.protocol.name} writer state exposes no epoch "
                f"counter; cannot seed a handoff epoch")
        state.ts = max(state.ts, epoch)

    # -- observability -----------------------------------------------------
    def describe(self) -> str:
        return (f"MultiRegisterStore({self.protocol.describe()}; "
                f"{self.config.describe()}; "
                f"{len(self.registers())} registers)")
