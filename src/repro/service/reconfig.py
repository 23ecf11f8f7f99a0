"""Live replica-set reconfiguration: fenced shard handoff and repair.

The paper's protocols assume a *static* set of base objects.  This
module closes the gap between that model and a deployable store: shard
groups can be **added** to and **drained** from a running
:class:`~repro.service.sharded.ShardedKVStore`, and crashed base objects
inside a :class:`~repro.service.store.MultiRegisterStore` can be
**replaced**, all while the store keeps serving traffic on unaffected
keys.

State transfer
==============

Both operations move register state through one loop
(:meth:`ReconfigCoordinator._transfer`): a classic vector READ of the
keys (:meth:`~repro.service.store.MultiRegisterStore.read_for_install`),
then one vector frame (:class:`InstallOperation`) carrying per written
key exactly the tuple the read returned, under its *original* tag.
Objects arbitrate an install by tag like that write's own message
arriving late, so it buries no newer write.  A heal installs at the
replaced replicas; a handoff moves the keys whose owner changes from a
*source* replica set to a *target*, each sweep in one vector round per
step:

1. **Fence** at the source: a hard :class:`~repro.messages.EpochFence`
   per key at a quorum.  Fenced objects refuse every write round on the
   register, so a write gathers at most ``t + b < S - t`` acks and
   aborts with :class:`~repro.errors.FencedWriteError` after ``b + 1``
   fence reports: **no write completes at the source after the fence
   quorum** -- clients see an explicit failure, never a lost write.
2. **Lift** at the target the fence an earlier handoff left there.
3. **Read** at the source: with (1), every completed write is in it.
4. **Install** at every target object, done at a quorum of acks.
5. **Flip** routing atomically (:meth:`ReconfigCoordinator._flip`)
   once *all* moved keys are installed, handing each key's writers
   over to the target first.

Until the flip no client reaches the target, reads of moved keys are
served by the source, writes to moved keys fail fast (retry after the
flip), and unmoved keys never see a fence.  The README's "Live
resharding" section gives the safety argument.

Known limits: a ``put_many`` batch that mixes a moving key with unmoved
ones aborts the whole batch when the moving key is fenced -- issue
single puts around a planned reconfiguration.  The install reads share
reader 0 with application gets; a get meeting one retries on
:class:`~repro.errors.BusyRegisterError`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from ..automata.base import ClientOperation, Outgoing
from ..config import SystemConfig
from ..errors import (BackpressureError, BusyRegisterError,
                      ConfigurationError, FencedWriteError)
from ..messages import EpochFence, Message
from ..types import ProcessId, obj, writer
from .hashing import HashRing, key_position, owned_diff
from .sharded import ShardedKVStore
from .store import CONTROL_WRITER_INDEX, MultiRegisterStore


class ControlRound(ClientOperation):
    """One control-plane round: :attr:`frame` (set by the subclass) to
    ``replicas``, done once ``acks`` of them replied echoing this
    operation's id as nonce."""

    def __init__(self, config: SystemConfig, register_id: str,
                 replicas: Iterable[int], acks: int):
        super().__init__(writer(CONTROL_WRITER_INDEX), register_id)
        self.config = config
        self.replicas = [obj(i) for i in replicas]
        self.acks = acks
        self.frame: Optional[Message] = None
        self._ackers: set = set()

    def start(self) -> Outgoing:
        self.begin_round()
        return [(replica, self.frame) for replica in self.replicas]

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if (sender in self.replicas
                and getattr(message, "nonce", None) == self.operation_id):
            self._ackers.add(sender)
            if len(self._ackers) >= self.acks:
                return self.complete(None)
        return []


class FenceOperation(ControlRound):
    """Retire one register at one replica set: a hard
    :class:`~repro.messages.EpochFence` to every object, done at a
    quorum of acks.  Fenced objects refuse every later write round on
    the register, whatever its tag.  Objects compare no fence epochs,
    so the frame's epoch field (kept for the wire layout and the logs of
    older data directories) goes out as 0.

    ``lift=True`` clears the fence instead, used when a reconfiguration
    hands a register back to a replica set that fenced it in an earlier
    handoff.
    """

    kind = "FENCE"

    def __init__(self, config: SystemConfig, register_id: str,
                 lift: bool = False):
        super().__init__(config, register_id, range(config.num_objects),
                         config.quorum_size)
        self.frame = EpochFence(nonce=self.operation_id, epoch=0,
                                register_id=register_id, hard=not lift,
                                lift=lift)


class InstallOperation(ControlRound):
    """Send ``replicas`` the tuple a completed read returned, under its
    original tag (:attr:`tag`); a reply is an ack, or a fence report
    from a register retired there meanwhile.  ``frame`` is ``None`` when
    the read returned the initial value.  ``relocated`` marks an install
    at another replica set than the read's (see ``install_frame``)."""

    kind = "INSTALL"

    def __init__(self, read: ClientOperation, replicas: Iterable[int],
                 acks: int, relocated: bool = False):
        super().__init__(read.config, read.register_id, replicas, acks)
        self.tag = read.tag
        self.frame = read.install_frame(self.operation_id, relocated)


@dataclass
class ReconfigReport:
    """What one reconfiguration did, for logs, tests and dashboards."""

    operation: str                     # "add-shard" | "remove-shard" | ...
    shard_id: int
    #: key -> (source shard id, target shard id) per installed key.
    moved: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: keys whose read returned the initial value (nothing to install).
    skipped: List[str] = field(default_factory=list)

    def describe(self) -> str:
        return (f"{self.operation}(shard {self.shard_id}): "
                f"{len(self.moved)} key(s) moved, "
                f"{len(self.skipped)} empty")


def _grouped(moves: Dict[str, Tuple[int, int]],
             side: Optional[int] = None) -> Dict[Hashable, List[str]]:
    """Moved keys per ``(source, target)`` pair, or per ``move[side]``."""
    groups: Dict[Hashable, List[str]] = {}
    for key, move in moves.items():
        groups.setdefault(move if side is None else move[side],
                          []).append(key)
    return groups


class ReconfigCoordinator:
    """Drives live reconfigurations of one :class:`ShardedKVStore`.

    The coordinator is stateless between operations; all durable state
    lives in the store (ring, shard map, object automata).  Fence and
    install traffic runs over each shard store's shared control host, so
    any number of coordinators may exist without double-binding inboxes.
    Heals and application traffic may overlap each other and a handoff.
    Shard-set changes run one after another: each holds the store's
    ``shard_set_lock`` from deriving its new ring until its flip (and,
    for a drain, until the drained group stopped), so a second change
    waits and then starts from the ring the first one left.

    Failure semantics: if a shard-set change raises midway (e.g. a
    timeout), routing has *not* flipped and fences remain installed on
    the keys already processed -- writes to those keys keep failing
    fast with :class:`~repro.errors.FencedWriteError` until the
    reconfiguration is **retried to completion** (every step is safe to
    repeat: fences and lifts are idempotent, reads are reads, and an
    install is arbitrated by its original tag).  Reads are never
    affected by a partial reconfiguration.

    ``chaos_hook`` is the chaos harness's entry point: a callable (sync
    or async) invoked as ``hook(stage, key)`` at every handoff stage --
    ``"fenced"``, ``"snapshotted"`` (after the read, before the install)
    and ``"installed"`` per key, ``"flip"`` once before routing flips --
    and at a heal's ``"snapshotted"`` and ``"installed"`` per key.  The
    hook may crash replicas, delay, or raise; the coordinator makes no
    attempt to survive hook exceptions beyond its normal failure
    semantics above.  Production code leaves it ``None`` (a no-op).
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
        async with kv.shard_set_lock:
            if shard_id is None:
                # Never implicitly reuse a drained group's id: external
                # state keyed by shard id (reports, logs, seeds) must not
                # conflate a retired group with a fresh one.
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
            self._flip(new_ring, shards_after, report)
        return report

    async def remove_shard(self, shard_id: int) -> ReconfigReport:
        """Drain one shard group and retire it.

        Its keys scatter to their ring neighbours; once routing has
        flipped the drained store is stopped.
        """
        kv = self.kv
        async with kv.shard_set_lock:
            if shard_id not in kv.shards:
                raise ConfigurationError(f"no shard group {shard_id}")
            new_ring = kv.ring.remove_shard(shard_id)
            shards_after = {sid: s for sid, s in kv.shards.items()
                            if sid != shard_id}
            report = ReconfigReport(operation="remove-shard",
                                    shard_id=shard_id)
            await self._migrate(new_ring, shards_after, report)
            await self._maybe_hook("flip", None)
            drained = kv.shards[shard_id]
            self._flip(new_ring, shards_after, report)
            # Operations admitted to the drained group before the flip
            # must finish before its hosts go away, or they would fail
            # spuriously.
            await drained.quiesce()
            await drained.stop()
        return report

    # -- replica repair -----------------------------------------------------
    async def heal_replica(self, shard_id: int,
                           *indices: int) -> ReconfigReport:
        """Replace (crashed) base objects ``indices`` of one shard group
        and install current tuples at them.

        Each swap inherits the replica's inbox and lifts any crash on its
        pid.  Then the shared read-then-install loop over the keys the
        shard owns: classic vector reads, each of as many keys as reader
        0 (which application gets share) admits at the time, each
        followed by one vector frame from the control host to the
        replaced replicas only, carrying per written key exactly the
        tuple the read returned, under its original tag; the heal waits
        for every replaced replica's ack.  One read serves every index,
        so healing a whole replica child costs one heal.  A concurrent
        write may leave a replica one write behind, like any slow
        replica.  Heals overlap puts, gets, heals and shard-set changes.
        """
        if not indices:
            raise ConfigurationError("heal_replica needs a replica index")
        kv = self.kv
        store = kv.shards[shard_id]
        for index in indices:
            store.replace_object(index)
        report = ReconfigReport(operation="heal-replica", shard_id=shard_id)
        # Stale client state may name keys moved elsewhere since.
        keys = [key for key in store.registers()
                if kv.ring.shard_for(key) == shard_id]
        await self._transfer(store, store, keys, indices, len(indices),
                             report, (shard_id, shard_id))
        return report

    # -- state transfer -----------------------------------------------------
    async def _transfer(self, source: MultiRegisterStore,
                        target: MultiRegisterStore, keys: List[str],
                        replicas: Iterable[int], acks: int,
                        report: ReconfigReport,
                        move: Tuple[int, int]) -> None:
        """Read ``keys`` at ``source``; install each returned tuple at
        ``target``'s ``replicas``, ``acks`` of them acknowledging."""
        replicas = list(replicas)
        relocated = source is not target
        control = target.control_host()
        while keys:
            reads = await source.read_for_install(keys)
            installs = []
            for read in reads:
                install = InstallOperation(read, replicas, acks, relocated)
                if install.frame is None:
                    report.skipped.append(read.register_id)  # no tuple
                    continue
                await self._maybe_hook("snapshotted", read.register_id)
                installs.append(install)
            await self._with_retry(target, lambda: control.run_many(
                installs, target.default_timeout))
            for install in installs:
                report.moved[install.register_id] = move
                await self._maybe_hook("installed", install.register_id)
            done = {read.register_id for read in reads}
            keys = [key for key in keys if key not in done]

    async def _migrate(self, new_ring: HashRing,
                       shards_after: Dict[int, MultiRegisterStore],
                       report: ReconfigReport) -> None:
        """Fence, lift and transfer every key whose owner changes.

        Runs to a *fixpoint*: keys first written while the migration is
        in flight (and therefore absent from the initial enumeration)
        are picked up by another sweep, so an acknowledged put on a
        moved arc can never be stranded at the source.  The final,
        empty sweep returns without awaiting, and the callers flip
        routing immediately after -- on the single-threaded event loop
        no new key can appear between that check and the flip.
        """
        kv = self.kv
        ranges = owned_diff(kv.ring, new_ring)
        while True:
            moves: Dict[str, Tuple[int, int]] = {}
            for key in kv.known_keys():
                if key in report.moved or key in report.skipped:
                    continue
                position = key_position(key)
                arc = next((r for r in ranges if r.contains(position)),
                           None)
                if arc is not None:
                    moves[key] = (arc.old_shard, arc.new_shard)
            if not moves:
                return
            # The fence *retires* the registers at the source: no write
            # completes there from now on.
            for src, keys in _grouped(moves, 0).items():
                await self._fence(kv.shards[src], keys)
            for key in moves:
                await self._maybe_hook("fenced", key)
            # A target may have fenced a key itself when an earlier
            # reconfiguration moved it *away*; lift that fence or the
            # hand-back install (and all later writes) would be refused.
            for dst, keys in _grouped(moves, 1).items():
                await self._fence(shards_after[dst], keys, lift=True)
            for (src, dst), keys in _grouped(moves).items():
                target = shards_after[dst]
                await self._transfer(
                    kv.shards[src], target, keys,
                    range(target.config.num_objects),
                    target.config.quorum_size, report, (src, dst))

    def _flip(self, new_ring: HashRing,
              shards_after: Dict[int, MultiRegisterStore],
              report: ReconfigReport) -> None:
        """Hand each moved key's writers over, then flip routing.

        No await: writes still in flight at a source on a moved key fail
        here with :class:`~repro.errors.FencedWriteError`, as the fence
        would fail them, so none of them chooses a tag after this.  Each
        target writer's floor is then raised to the epoch that writer
        last chose (or was seeded with) at the source.  That is at least
        the installed tag's epoch when the writer chose that tag, and
        single-writer protocols neither discover nor check tags, so a
        post-flip put lands above the installed tag.  It also takes no
        tag a refused source write took.  Seeding creates the key's
        client state at the target, which later heals enumerate.
        """
        kv = self.kv
        for (src, dst), keys in _grouped(report.moved).items():
            source, target = kv.shards[src], shards_after[dst]
            source.abort_writes(keys, FencedWriteError(
                f"{len(keys)} key(s) moved from shard {src} to {dst} "
                f"mid-write"))
            for key in keys:
                for index in range(target.config.num_writers):
                    target.seed_writer_epoch(
                        key, source.writer_epoch(key, index), index)
        kv.apply_reconfiguration(new_ring, shards_after)

    async def _fence(self, store: MultiRegisterStore, keys: List[str],
                     lift: bool = False) -> None:
        operations = [FenceOperation(store.config, key, lift=lift)
                      for key in keys]
        control = store.control_host()
        await self._with_retry(store, lambda: control.run_many(
            operations, store.default_timeout))

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
    "FenceOperation",
    "ReconfigCoordinator",
    "ReconfigReport",
]
