"""Live replica-set reconfiguration: epoch-fenced shard handoff.

The paper's protocols assume a *static* set of base objects.  This
module closes the gap between that model and a deployable store: shard
groups can be **added** to and **drained** from a running
:class:`~repro.service.sharded.ShardedKVStore`, and crashed base objects
inside a :class:`~repro.service.store.MultiRegisterStore` can be
**replaced**, all while the store keeps serving traffic on unaffected
keys.

The epoch-fencing contract
==========================

Handoff of one register from a *source* replica set to a *target* uses
the MWMR ``(epoch, writer_id)`` tags as a fencing primitive.  For each
moved key the :class:`ReconfigCoordinator` runs:

1. **Discover** -- a quorum of source objects reports the highest tag it
   holds (:class:`~repro.messages.TagQuery`); let ``E`` be the maximum
   epoch observed.
2. **Fence** -- the coordinator installs a **hard** fence at a quorum
   (:class:`~repro.messages.EpochFence` with ``hard=True``, recorded at
   epoch ``F = E + 2``).  From then on, correct fenced objects *refuse
   every write round on this register* -- whatever its epoch -- and
   answer with :class:`~repro.messages.WriteFenced`; the handoff cannot
   rely on an epoch threshold alone, because chained concurrent tag
   discoveries (each writer observing the previous one's in-flight tag)
   can mint epochs past any finite margin.  A fenced write can gather
   at most ``t + b < S - t`` acknowledgments, so it aborts with
   :class:`~repro.errors.FencedWriteError` after ``b + 1`` fence
   reports.  Consequently **no write completes at the source after the
   fence quorum is installed** -- clients observe an explicit failure,
   never a silently lost write.
3. **Snapshot** -- a regular READ at the source.  Regular semantics
   guarantee the snapshot returns a value at least as fresh as every
   write that *completed* before the snapshot began; together with (2),
   the snapshot captures the register's last pre-handoff value.
4. **Replay** -- the coordinator seeds the target's writer-epoch floor
   to ``F - 1`` and writes the snapshot through the target's normal
   write path, so the replayed value carries tag epoch ``>= F`` --
   strictly above every pre-handoff tag.  Post-handoff writes continue above
   ``F``, keeping per-register tag order (and hence the multi-writer
   checkers, :func:`~repro.spec.checkers.check_mwmr_regularity`) intact
   across the handoff.
5. **Flip** -- after *all* moved keys are replayed, routing flips
   atomically (:meth:`~repro.service.sharded.ShardedKVStore.
   apply_reconfiguration`); reads of moved keys now observe the
   replayed value at the target.

During steps 1-4 puts/gets on unmoved keys proceed untouched (their
shard groups never see a fence), reads of moved keys keep being served
by the source, and writes to moved keys fail fast with
:class:`~repro.errors.FencedWriteError` (retry after the flip).

Known limits: a ``put_many`` batch that mixes a moving key with unmoved
ones aborts the whole batch when the moving key is fenced -- issue
single puts around a planned reconfiguration.  Reads racing the
snapshot on the *same reader index* are serialized by retrying on
:class:`~repro.errors.BusyRegisterError`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..automata.base import ClientOperation, ObjectAutomaton, Outgoing
from ..automata.rounds import TagDiscovery
from ..config import SystemConfig
from ..errors import (BackpressureError, BusyRegisterError,
                      ConfigurationError)
from ..messages import EpochFence, EpochFenceAck, TagQuery, TagQueryAck
from ..types import ProcessId, _Bottom, obj, writer
from .hashing import HashRing, key_position, owned_diff
from .sharded import ShardedKVStore
from .store import CONTROL_WRITER_INDEX, MultiRegisterStore

#: Epochs skipped above the discovered maximum.  ``+1`` covers writers
#: that finished tag discovery before the fence landed (they pick
#: ``E + 1``); the fence itself then sits one above that.
FENCE_MARGIN = 2


class FenceOperation(ClientOperation):
    """Retire one register at one replica set.

    Two rounds over the source objects: discover the maximum installed
    tag from a quorum, then fence every object at epoch ``max_epoch +
    FENCE_MARGIN`` and collect a quorum of fence acks.  Completes with
    the installed fence epoch.  Fenced objects refuse every later write
    round, whatever its epoch: concurrent multi-writer tag discoveries
    can chain past any finite margin (each writer observes the previous
    one's in-flight tag and picks one higher), but none outruns a fence.

    ``lift=True`` inverts the operation: one round clearing the fence
    at a quorum (no discovery), used when a reconfiguration hands a
    register back to a replica set that fenced it in an earlier
    handoff.  Completes with ``0``.
    """

    kind = "FENCE"

    def __init__(self, config: SystemConfig, register_id: str,
                 lift: bool = False):
        super().__init__(writer(CONTROL_WRITER_INDEX), register_id)
        self.config = config
        self.lift = lift
        self.phase = "discover"
        self.fence_epoch: Optional[int] = None
        self.discovery = TagDiscovery(
            nonce=self.operation_id,
            quorum=config.quorum_size,
            writer_id=0,
        )
        self._fence_ackers: set = set()

    def start(self) -> Outgoing:
        if self.lift:
            self.phase = "fence"
            self.fence_epoch = 0
            self.begin_round()
            fence = EpochFence(nonce=self.operation_id, epoch=0,
                               register_id=self.register_id, lift=True)
            return [(obj(i), fence)
                    for i in range(self.config.num_objects)]
        self.begin_round()
        query = TagQuery(nonce=self.operation_id,
                         register_id=self.register_id)
        return [(obj(i), query) for i in range(self.config.num_objects)]

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if self.done or not sender.is_object:
            return []
        if (self.phase == "discover"
                and isinstance(message, TagQueryAck)
                and message.register_id == self.register_id):
            self.discovery.offer(sender.index, message.nonce, message.tag)
            if self.discovery.ready():
                return self._start_fence_round()
            return []
        if (self.phase == "fence"
                and isinstance(message, EpochFenceAck)
                and message.nonce == self.operation_id
                and message.register_id == self.register_id
                and message.epoch >= (self.fence_epoch or 0)):
            # An ack reporting a lower fence than requested cannot come
            # from a correct object; it does not count toward the quorum.
            self._fence_ackers.add(sender.index)
            if len(self._fence_ackers) >= self.config.quorum_size:
                return self.complete(self.fence_epoch)
        return []

    def _start_fence_round(self) -> Outgoing:
        self.phase = "fence"
        self.fence_epoch = self.discovery.max_tag.epoch + FENCE_MARGIN
        self.begin_round()
        fence = EpochFence(nonce=self.operation_id,
                           epoch=self.fence_epoch,
                           register_id=self.register_id, hard=True)
        return [(obj(i), fence) for i in range(self.config.num_objects)]


class InstallOperation(ClientOperation):
    """Send replica ``index`` the tuple a completed read returned; any
    reply from it echoing this operation's id as nonce completes it (an
    ack, or a fence report from a register retired there meanwhile).
    ``frame`` is ``None`` when the read returned the initial value."""

    kind = "INSTALL"

    def __init__(self, read: ClientOperation, index: int):
        super().__init__(writer(CONTROL_WRITER_INDEX), read.register_id)
        self.config = read.config
        self.replica = obj(index)
        self.frame = read.install_frame(self.operation_id)

    def start(self) -> Outgoing:
        self.begin_round()
        return [(self.replica, self.frame)]

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if (sender == self.replica
                and getattr(message, "nonce", None) == self.operation_id):
            self.complete(None)
        return []


@dataclass
class ReconfigReport:
    """What one reconfiguration did, for logs, tests and dashboards."""

    operation: str                     # "add-shard" | "remove-shard" | ...
    shard_id: int
    #: key -> (source shard id, target shard id) per replayed (or, for a
    #: heal, installed) key.
    moved: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: key -> fence epoch installed at its source replica set.
    fence_epochs: Dict[str, int] = field(default_factory=dict)
    #: keys owned by a moved range but never written (nothing to replay).
    skipped: List[str] = field(default_factory=list)

    def describe(self) -> str:
        return (f"{self.operation}(shard {self.shard_id}): "
                f"{len(self.moved)} key(s) moved, "
                f"{len(self.skipped)} empty, fences "
                f"{sorted(set(self.fence_epochs.values()))}")


class ReconfigCoordinator:
    """Drives live reconfigurations of one :class:`ShardedKVStore`.

    The coordinator is stateless between operations; all durable state
    lives in the store (ring, shard map, object automata).  Fence
    traffic runs over each shard store's shared control host, so any
    number of coordinators may exist without double-binding inboxes --
    but do not run two shard-set changes *concurrently*.  Heals may
    overlap each other, application traffic and shard-set changes.

    Failure semantics: if a shard-set change raises midway (e.g. a
    timeout), routing has *not* flipped and fences remain installed on
    the keys already processed -- writes to those keys keep failing
    fast with :class:`~repro.errors.FencedWriteError` until the
    reconfiguration is **retried to completion** (every step is safe to
    repeat: fences ratchet, snapshots are reads, replays just write
    again).  Reads are never affected by a partial reconfiguration.

    ``chaos_hook`` is the chaos harness's entry point: a callable (sync
    or async) invoked as ``hook(stage, key)`` at every handoff stage --
    ``"fenced"``, ``"snapshotted"``, ``"replayed"`` per key, ``"flip"``
    once before routing flips -- and at a heal's ``"snapshotted"`` per
    key, after its read and before its install.  The hook may crash
    replicas, delay, or raise; the coordinator makes no attempt to
    survive hook exceptions beyond its normal failure semantics above.
    Production code leaves it ``None`` (a no-op).
    """

    def __init__(self, kv: ShardedKVStore,
                 chaos_hook: Optional[Any] = None):
        self.kv = kv
        self.chaos_hook = chaos_hook

    async def _maybe_hook(self, stage: str, key: Optional[str]) -> None:
        if self.chaos_hook is None:
            return
        result = self.chaos_hook(stage, key)
        if asyncio.iscoroutine(result):
            await result

    # -- shard-set changes --------------------------------------------------
    async def add_shard(self, shard_id: Optional[int] = None,
                        store: Optional[MultiRegisterStore] = None
                        ) -> ReconfigReport:
        """Grow the ring by one shard group, migrating the moved keys.

        The new group serves exactly the ring arcs consistent hashing
        assigns it (~``1/(n+1)`` of the keyspace); every other key stays
        where it is and keeps serving throughout.
        """
        kv = self.kv
        if shard_id is None:
            # Never implicitly reuse a drained group's id: external state
            # keyed by shard id (reports, logs, seeds) must not conflate
            # a retired group with a fresh one.
            shard_id = max(set(kv.shards) | kv.retired_shard_ids) + 1
        new_ring = kv.ring.add_shard(shard_id)
        sid = (set(new_ring.shard_ids) - set(kv.ring.shard_ids)).pop()
        created = store is None
        store = store if store is not None else kv.make_shard_store(sid)
        await store.start()
        shards_after = dict(kv.shards)
        shards_after[sid] = store
        report = ReconfigReport(operation="add-shard", shard_id=sid)
        try:
            await self._migrate(new_ring, shards_after, report)
        except BaseException:
            if created:  # don't leak the replica tasks we spawned
                await store.stop()
            raise
        await self._maybe_hook("flip", None)
        kv.apply_reconfiguration(new_ring, shards_after)
        return report

    async def remove_shard(self, shard_id: int) -> ReconfigReport:
        """Drain one shard group and retire it.

        Its keys scatter to their ring neighbours; once routing has
        flipped the drained store is stopped.
        """
        kv = self.kv
        if shard_id not in kv.shards:
            raise ConfigurationError(f"no shard group {shard_id}")
        new_ring = kv.ring.remove_shard(shard_id)
        shards_after = {sid: s for sid, s in kv.shards.items()
                        if sid != shard_id}
        report = ReconfigReport(operation="remove-shard", shard_id=shard_id)
        await self._migrate(new_ring, shards_after, report)
        await self._maybe_hook("flip", None)
        drained = kv.shards[shard_id]
        kv.apply_reconfiguration(new_ring, shards_after)
        # Operations admitted to the drained group before the flip must
        # finish before its hosts go away, or they would fail spuriously.
        await drained.quiesce()
        await drained.stop()
        return report

    # -- replica repair -----------------------------------------------------
    async def heal_replica(self, shard_id: int, index: int,
                           automaton: Optional[ObjectAutomaton] = None
                           ) -> ReconfigReport:
        """Replace one (crashed) base object and install current tuples.

        The swap inherits the replica's inbox and lifts any crash on its
        pid.  Then classic vector reads of the keys the shard owns, each
        of as many as reader 0 (which application gets share) admits at
        the time, each followed by one vector frame from the control
        host to the replaced replica only, carrying per written key
        exactly the tuple the read returned, under its original tag; the
        heal waits for that replica's acks.  Objects arbitrate an
        install by tag like the writer's own message arriving late, so
        it buries nothing: every write completed before the call is
        installed, and a concurrent write may leave the replica one
        write behind, like any slow replica.  Heals overlap puts, gets,
        heals and shard-set changes.
        """
        kv = self.kv
        store = kv.shards[shard_id]
        store.replace_object(index, automaton)
        report = ReconfigReport(operation="heal-replica", shard_id=shard_id)
        # Stale client state may name keys moved elsewhere since.
        keys = [key for key in store.registers()
                if kv.ring.shard_for(key) == shard_id]
        control = store.control_host()
        while keys:
            reads = await store.read_for_install(keys)
            installs = []
            for read in reads:
                install = InstallOperation(read, index)
                if install.frame is None:
                    report.skipped.append(read.register_id)  # no tuple
                    continue
                await self._maybe_hook("snapshotted", read.register_id)
                installs.append(install)
                report.moved[read.register_id] = (shard_id, shard_id)
            await self._with_retry(store, lambda: control.run_many(
                installs, store.default_timeout))
            done = {read.register_id for read in reads}
            keys = [key for key in keys if key not in done]
        return report

    # -- handoff machinery --------------------------------------------------
    async def _migrate(self, new_ring: HashRing,
                       shards_after: Dict[int, MultiRegisterStore],
                       report: ReconfigReport) -> None:
        """Fence, snapshot and replay every key whose owner changes.

        Runs to a *fixpoint*: keys first written while the migration is
        in flight (and therefore absent from the initial enumeration)
        are picked up by another sweep, so an acknowledged put on a
        moved arc can never be stranded at the source.  The final,
        empty sweep returns without awaiting, and the callers flip
        routing immediately after -- on the single-threaded event loop
        no new key can appear between that check and the flip.
        """
        kv = self.kv
        old_ring = kv.ring
        ranges = owned_diff(old_ring, new_ring)
        while True:
            pending = [
                key for key in kv.known_keys()
                if key not in report.fence_epochs
                and any(r.contains(key_position(key)) for r in ranges)
            ]
            if not pending:
                return
            for key in pending:
                moved_range = next(r for r in ranges
                                   if r.contains(key_position(key)))
                src, dst = moved_range.old_shard, moved_range.new_shard
                source = kv.shards[src]
                target = shards_after[dst]
                # The fence *retires* the register at the source: no
                # write completes there from now on.
                fence_epoch = await self._fence(source, key)
                report.fence_epochs[key] = fence_epoch
                await self._maybe_hook("fenced", key)
                # The target may have fenced this key itself when an
                # earlier reconfiguration moved it *away*; lift that
                # fence or the hand-back replay (and all later writes)
                # would be refused forever.
                await self._fence(target, key, lift=True)
                value, pre_tag = await self._with_retry(
                    source, lambda: source.read_tagged(key))
                await self._maybe_hook("snapshotted", key)
                if isinstance(value, _Bottom):
                    # Fenced while unwritten: it can never gain a value
                    # at the source, so one visit is enough.
                    report.skipped.append(key)
                    continue
                target.seed_writer_epoch(key, fence_epoch - 1)
                await self._replay(target, key, value, pre_tag)
                await self._maybe_hook("replayed", key)
                report.moved[key] = (src, dst)

    async def _replay(self, target: MultiRegisterStore, key: str,
                      value: Any, pre_tag) -> None:
        """Re-install ``value`` at ``target`` under the seeded epoch.

        The replay is control-plane traffic: it duplicates a value whose
        original write is already on record, so it is kept *out* of the
        shared history and registered as a **republication** alias (new
        tag -> ``pre_tag``) instead.  Recording it as an application
        write would make the checkers demand that reads served by the
        source during the pre-flip window already observe the replay's
        fresher tag -- a staleness that no client can distinguish,
        since the value is identical.
        """
        _, new_tag = await self._with_retry(
            target, lambda: target.write_tagged(key, value, record=False))
        if (target.history is not None and new_tag is not None
                and pre_tag is not None):
            target.history.record_republication(key, new_tag, pre_tag)

    async def _fence(self, store: MultiRegisterStore, key: str,
                     lift: bool = False) -> int:
        operation = FenceOperation(store.config, key, lift=lift)
        return await self._with_retry(
            store, lambda: store.control_host().run(operation,
                                                    store.default_timeout))

    @staticmethod
    async def _with_retry(store: MultiRegisterStore, run):
        """Retry an operation that lost a transient admission race.

        One client host drives at most one operation per register
        (:class:`~repro.errors.BusyRegisterError`) and may cap its
        concurrently pending registers
        (:class:`~repro.errors.BackpressureError`); the coordinator
        competes with application traffic like any client, so it
        retries instead of aborting over contention -- each time after
        one of ``store``'s calls in flight (the blocker among them)
        finishes, so waiting behind a stuck call costs no CPU.
        """
        while True:
            try:
                return await run()
            except (BusyRegisterError, BackpressureError):
                await asyncio.wait(store.in_flight(),
                                   return_when=asyncio.FIRST_COMPLETED)


__all__ = [
    "FENCE_MARGIN",
    "FenceOperation",
    "ReconfigCoordinator",
    "ReconfigReport",
]
