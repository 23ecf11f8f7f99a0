"""A sharded Byzantine-tolerant key-value service.

:class:`ShardedKVStore` consistent-hashes keys across shard groups, each
one an independent :class:`~repro.service.store.MultiRegisterStore` (its
own replica set, its own fault budget ``t``/``b``).  Keys are SWMR
regular registers; the API speaks dictionary (``put``/``get``, ``None``
for missing keys) and maps straight onto register writes and reads
underneath.

Capacity therefore scales two ways at once:

* *vertically* -- each shard multiplexes arbitrarily many keys over its
  fixed replica set (no per-key tasks);
* *horizontally* -- adding shard groups divides the keyspace, and the
  consistent ring keeps almost all keys in place when the shard count
  changes.

Shard groups are keyed by integer shard id (``self.shards`` is a dict),
matching the ring's id set so groups can be added and drained *live*:
:class:`~repro.service.reconfig.ReconfigCoordinator` fences, snapshots
and replays the moved keys, then calls :meth:`apply_reconfiguration` to
flip routing atomically.
"""

from __future__ import annotations

import asyncio
import logging
import os
import shutil
import tempfile
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

from ..automata.base import ObjectAutomaton
from ..config import SystemConfig
from ..errors import FencedWriteError, ReproError
from ..protocols import StorageProtocol
from ..spec.histories import History
from ..types import WriterTag, _Bottom
from .hashing import HashRing
from .store import MultiRegisterStore

_log = logging.getLogger(__name__)


async def _gather_abort_siblings(coros: List[Any]) -> List[Any]:
    """Gather per-shard chunks; on the first failure, cancel the rest.

    A plain ``asyncio.gather`` raises on the first failed chunk but lets
    its siblings run on detached -- operations nobody will ever await.
    Here the siblings are cancelled and drained before the first failure
    re-raises, so a failed batch leaves no orphaned per-key work behind.
    """
    tasks = [asyncio.ensure_future(coro) for coro in coros]
    try:
        return await asyncio.gather(*tasks)
    except BaseException:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        raise


class ShardedKVStore:
    """Consistent-hash sharding over multiplexed replica sets.

    Keys are MWMR registers when the config declares several writers: any
    client host may ``put`` any key (``writer_index`` selects the writing
    identity) and the underlying protocols arbitrate concurrent writes
    with ``(epoch, writer_id)`` tags.  ``record_history=True`` captures
    every operation of every shard into one shared history for the
    consistency checkers (a key lives wholly in one shard at any moment,
    and reconfiguration replays carry strictly larger tags, so
    per-register checks stay exact across a handoff).
    """

    def __init__(self, protocol_factory: Callable[[], StorageProtocol],
                 config: SystemConfig, num_shards: int = 2,
                 jitter: float = 0.0, seed: int = 0, vnodes: int = 64,
                 default_timeout: Optional[float] = 30.0,
                 batching: bool = True,
                 max_pending_per_host: Optional[int] = None,
                 record_history: bool = False,
                 data_dir: Optional[str] = None,
                 granularity: str = "group",
                 auto_heal: bool = True,
                 fast_reads: bool = False):
        """``protocol_factory`` builds one protocol instance per shard so
        shard groups share no mutable protocol state (e.g. signer keys).

        With ``config.deployment == "multiproc"`` each shard group's
        replicas run as supervised child processes with WAL + snapshot
        durability under ``data_dir`` (a fresh temp dir if omitted);
        ``granularity`` picks one child per replica or per shard group,
        and ``auto_heal`` runs
        :meth:`~repro.service.reconfig.ReconfigCoordinator.heal_replica`
        on every restarted replica so recovered-but-stale state is
        topped up before the replica matters to quorums again.
        """
        self.config = config
        self.ring = HashRing(num_shards, vnodes=vnodes)
        self.history: Optional[History] = \
            History() if record_history else None
        self._protocol_factory = protocol_factory
        self._jitter = jitter
        self._seed = seed
        self._default_timeout = default_timeout
        self._batching = batching
        self._max_pending = max_pending_per_host
        self._granularity = granularity
        self._auto_heal = auto_heal
        self._fast_reads = fast_reads
        self._owns_data_dir = False
        if data_dir is None and config.deployment == "multiproc":
            data_dir = tempfile.mkdtemp(prefix="repro-multiproc-")
            self._owns_data_dir = True
        self.data_dir = data_dir
        self.shards: Dict[int, MultiRegisterStore] = {
            shard: self.make_shard_store(shard)
            for shard in self.ring.shard_ids
        }
        #: ids of drained shard groups -- never implicitly reused, so
        #: logs/reports/seeds keyed by shard id stay unambiguous.
        self.retired_shard_ids: set = set()
        self._started = False

    def make_shard_store(self, shard_id: int) -> MultiRegisterStore:
        """A fresh shard group wired like the originals (reconfiguration).

        The store is *not* started and *not* routed to; a coordinator
        starts it, replays moved keys into it, and flips routing via
        :meth:`apply_reconfiguration`.

        This is the deployment switch: ``config.deployment`` selects
        in-proc object hosts or supervised replica processes
        (:class:`~repro.service.procs.ProcMultiRegisterStore`) -- the
        client machinery above is identical either way.
        """
        if self.config.deployment == "multiproc":
            from functools import partial

            from .procs import ProcMultiRegisterStore
            store = ProcMultiRegisterStore(
                self._protocol_factory, self.config,
                os.path.join(self.data_dir, f"shard-{shard_id}"),
                granularity=self._granularity,
                jitter=self._jitter, seed=self._seed + shard_id,
                default_timeout=self._default_timeout,
                batching=self._batching,
                max_pending_per_host=self._max_pending,
                history=self.history,
                on_replica_restart=(
                    partial(self._heal_after_restart, shard_id)
                    if self._auto_heal else None))
        else:
            store = MultiRegisterStore(self._protocol_factory(), self.config,
                                       jitter=self._jitter,
                                       seed=self._seed + shard_id,
                                       default_timeout=self._default_timeout,
                                       batching=self._batching,
                                       max_pending_per_host=self._max_pending,
                                       history=self.history)
        if self._fast_reads and store.protocol.supports_fast_reads:
            store.enable_fast_reads()
        return store

    async def _heal_after_restart(self, shard_id: int, index: int) -> None:
        """Top up a restarted replica: WAL recovery + protocol healing.

        The restarted child already replayed its snapshot + WAL, so it
        rejoins *almost* current -- missing only what was acked while it
        was dead.  ``heal_replica`` closes that gap with the paper's own
        machinery (fence, snapshot reads, replay at higher tags), after
        which the replica counts toward quorums without any special
        casing.  *Expected* failures -- a heal losing a race with
        another kill, a fenced or timed-out round, a dropped socket --
        are logged and swallowed: they leave the replica where WAL
        recovery put it, a slow replica, which the protocols tolerate
        by design.  Programming errors propagate instead (the
        supervisor's monitor logs them and keeps sweeping).
        """
        store = self.shards.get(shard_id)
        if store is None or not self._started:
            return
        from .reconfig import ReconfigCoordinator  # avoid import cycle
        try:
            await ReconfigCoordinator(self).heal_replica(shard_id, index)
        except (ReproError, asyncio.TimeoutError, OSError) as exc:
            _log.warning(
                "heal of shard %d replica %d after restart failed "
                "(%s: %s); replica rejoins with WAL-recovered state",
                shard_id, index, type(exc).__name__, exc)

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "ShardedKVStore":
        if self._started:
            return self
        # Claim the flag before the first await: a concurrent start()
        # must not double-start the shard stores (each spawns hosts,
        # and under multiproc deployment, child processes).
        self._started = True
        try:
            for shard in self.shards.values():
                await shard.start()
        except BaseException:
            self._started = False
            raise
        return self

    async def stop(self) -> None:
        if not self._started:
            return  # idempotent, like the shard stores underneath
        self._started = False
        for shard in self.shards.values():
            await shard.stop()
        if self._owns_data_dir and self.data_dir is not None:
            # We created this temp dir; a stopped store's WAL/snapshots
            # have no further reader (restart recreates per-replica
            # dirs on demand).  Deleting a tree of WAL segments can take
            # hundreds of milliseconds -- off the loop.
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: shutil.rmtree(self.data_dir,
                                            ignore_errors=True))

    async def __aenter__(self) -> "ShardedKVStore":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # -- placement -----------------------------------------------------------
    def shard_for(self, key: str) -> int:
        return self.ring.shard_for(key)

    def store_for(self, key: str) -> MultiRegisterStore:
        return self.shards[self.shard_for(key)]

    def apply_reconfiguration(
            self, ring: HashRing,
            shards: Dict[int, MultiRegisterStore]) -> None:
        """Atomically flip routing to a new ring + shard map.

        No awaits: on the single-threaded event loop every operation
        routed before this call used the old placement end to end, and
        every one after it the new -- there is no torn state in between.
        The coordinator is responsible for having migrated the moved
        keys first.
        """
        if set(ring.shard_ids) != set(shards):
            raise ValueError(
                f"ring ids {ring.shard_ids} do not match shard map ids "
                f"{sorted(shards)}")
        self.retired_shard_ids |= set(self.shards) - set(shards)
        self.ring = ring
        self.shards = shards
        # A routing flip retires every pre-flip read lease: migrated keys
        # were replayed into their new shard group at strictly larger
        # tags, so a lease minted against the old placement could serve a
        # value the handoff has already superseded.  Dropping all leases
        # is coarse but the flip is rare; the next write or classic read
        # of each key re-arms it.
        for shard in shards.values():
            shard.drop_leases()

    # -- KV API -------------------------------------------------------------
    async def put(self, key: str, value: Any,
                  timeout: Optional[float] = None,
                  writer_index: int = 0, retries: int = 0) -> None:
        """PUT one key.

        ``retries`` bounds how many :class:`~repro.errors.
        FencedWriteError` aborts are absorbed by re-resolving the key's
        routing and writing again: a fence means the key is (or was)
        mid-handoff, and once the coordinator flips routing the retry
        lands on the key's new shard group.  A short sleep between
        attempts gives the in-flight migration wall-clock time to reach
        its flip (a bare event-loop yield would burn the whole budget in
        a few turns).  ``retries=0`` (the default) keeps the historical
        fail-fast behaviour; for policy-shaped backoff use the session
        API (:class:`~repro.api.RetryPolicy`), which this sugar
        deliberately does not duplicate.
        """
        while True:
            store = self.store_for(key)
            try:
                await store.write(key, value, timeout=timeout,
                                  writer_index=writer_index)
                return
            except FencedWriteError:
                # The key is mid-handoff: any lease this shard group holds
                # on it describes pre-fence state, and the retry may land
                # on a different group entirely.
                store.drop_leases([key])
                if retries <= 0:
                    raise
                retries -= 1
                await asyncio.sleep(0.001)

    async def put_tagged(self, key: str, value: Any,
                         timeout: Optional[float] = None,
                         writer_index: int = 0
                         ) -> Optional[WriterTag]:
        """PUT one key and report the ``(epoch, writer_id)`` tag installed.

        The conditional-write path (:meth:`~repro.api.Session.put_if`)
        needs the tag the write actually got, so callers can chain
        compare-and-set style updates without an extra read.
        """
        _, tag = await self.store_for(key).write_tagged(
            key, value, timeout=timeout, writer_index=writer_index)
        return tag

    async def get(self, key: str, reader_index: int = 0,
                  timeout: Optional[float] = None) -> Optional[Any]:
        value = await self.store_for(key).read(key, reader_index=reader_index,
                                               timeout=timeout)
        return None if isinstance(value, _Bottom) else value

    async def get_tagged(self, key: str, reader_index: int = 0,
                         timeout: Optional[float] = None
                         ) -> Tuple[Optional[Any], Optional[WriterTag]]:
        """GET one key together with the version tag the read observed."""
        value, tag = await self.store_for(key).read_tagged(
            key, reader_index=reader_index, timeout=timeout)
        return (None if isinstance(value, _Bottom) else value), tag

    async def put_many(self, items: Mapping[str, Any],
                       timeout: Optional[float] = None,
                       writer_index: int = 0) -> None:
        """Batch-write: one vector round per (replica, step) per shard.

        Each shard group drives its chunk through the vector round
        engine -- a single frame per base object per protocol step.  A
        batch landing wholly in one shard skips the per-shard task
        fan-out.
        """
        by_shard: Dict[int, Dict[str, Any]] = {}
        for key, value in items.items():
            by_shard.setdefault(self.shard_for(key), {})[key] = value
        if len(by_shard) == 1:
            (shard, chunk), = by_shard.items()
            await self.shards[shard].write_many(chunk, timeout=timeout,
                                                writer_index=writer_index)
            return
        await _gather_abort_siblings([
            self.shards[shard].write_many(chunk, timeout=timeout,
                                          writer_index=writer_index)
            for shard, chunk in by_shard.items()
        ])

    async def get_many(self, keys: Iterable[str], reader_index: int = 0,
                       timeout: Optional[float] = None
                       ) -> Dict[str, Optional[Any]]:
        ordered = list(dict.fromkeys(keys))  # dedupe, keep caller order
        by_shard: Dict[int, List[str]] = {}
        for key in ordered:
            by_shard.setdefault(self.shard_for(key), []).append(key)
        if len(by_shard) == 1:
            (shard, chunk), = by_shard.items()
            chunks = [await self.shards[shard].read_many(
                chunk, reader_index=reader_index, timeout=timeout)]
        else:
            chunks = await _gather_abort_siblings([
                self.shards[shard].read_many(chunk,
                                             reader_index=reader_index,
                                             timeout=timeout)
                for shard, chunk in by_shard.items()
            ])
        fetched: Dict[str, Any] = {}
        for chunk in chunks:
            fetched.update(chunk)
        # Merge in *caller* order, not shard-chunk order: dict iteration
        # order is part of the API surface and callers zip against their
        # own key lists.
        return {key: (None if isinstance(fetched[key], _Bottom)
                      else fetched[key])
                for key in ordered}

    async def get_many_tagged(self, keys: Iterable[str],
                              reader_index: int = 0,
                              timeout: Optional[float] = None
                              ) -> Dict[str, Tuple[Optional[Any],
                                                   Optional[WriterTag]]]:
        """Batched :meth:`get_tagged` across shard groups, caller order.

        One tag collect of a snapshot round: every shard group reads its
        chunk concurrently (rounds coalesced per object as usual) and
        each key reports the version tag its read observed.
        """
        ordered = list(dict.fromkeys(keys))
        by_shard: Dict[int, List[str]] = {}
        for key in ordered:
            by_shard.setdefault(self.shard_for(key), []).append(key)
        if len(by_shard) == 1:
            (shard, chunk), = by_shard.items()
            chunks = [await self.shards[shard].read_many_tagged(
                chunk, reader_index=reader_index, timeout=timeout)]
        else:
            chunks = await _gather_abort_siblings([
                self.shards[shard].read_many_tagged(
                    chunk, reader_index=reader_index, timeout=timeout)
                for shard, chunk in by_shard.items()
            ])
        fetched: Dict[str, Tuple[Any, Optional[WriterTag]]] = {}
        for chunk in chunks:
            fetched.update(chunk)
        return {key: ((None if isinstance(fetched[key][0], _Bottom)
                       else fetched[key][0]), fetched[key][1])
                for key in ordered}

    def drop_leases(self, register_ids: Optional[Iterable[str]] = None
                    ) -> None:
        """Drop read leases cluster-wide, or for specific keys (routed)."""
        if register_ids is None:
            for shard in self.shards.values():
                shard.drop_leases()
            return
        by_shard: Dict[int, List[str]] = {}
        for key in register_ids:
            by_shard.setdefault(self.shard_for(key), []).append(key)
        for shard, chunk in by_shard.items():
            self.shards[shard].drop_leases(chunk)

    def grant_read_leases(
            self, entries: Mapping[str, Tuple[Optional[WriterTag], Any]]
            ) -> None:
        """Seed read leases from externally certified ``(tag, value)``
        pairs -- e.g. a snapshot's confirmed cut (routed per key)."""
        by_shard: Dict[int, Dict[str, Tuple[Optional[WriterTag], Any]]] = {}
        for key, entry in entries.items():
            by_shard.setdefault(self.shard_for(key), {})[key] = entry
        for shard, chunk in by_shard.items():
            self.shards[shard].grant_read_leases(chunk)

    # -- faults ------------------------------------------------------------
    def compromise_replica(self, key: str, index: int,
                           automaton: ObjectAutomaton) -> None:
        """Turn one replica of the shard holding ``key`` Byzantine."""
        self.store_for(key).make_byzantine(index, automaton)

    def crash_replica(self, key: str, index: int) -> None:
        self.store_for(key).crash_object(index)

    # -- observability -----------------------------------------------------
    def known_keys(self) -> List[str]:
        """Every key any shard group has client state for."""
        keys = set()
        for shard in self.shards.values():
            keys.update(shard.registers())
        return sorted(keys)

    def stats(self) -> Dict[str, Any]:
        """Aggregate fast-read efficacy counters across shard groups."""
        totals: Dict[str, Any] = {
            "fast_reads_enabled": self._fast_reads,
            "fast_reads_taken": 0,
            "fast_read_fallbacks": 0,
            "lease_invalidations": 0,
            "messages_sent": 0,
        }
        per_shard: Dict[int, Dict[str, Any]] = {}
        for shard_id, shard in self.shards.items():
            stats = shard.stats()
            per_shard[shard_id] = stats
            for counter in ("fast_reads_taken", "fast_read_fallbacks",
                            "lease_invalidations", "messages_sent"):
                totals[counter] += stats[counter]
        totals["per_shard"] = per_shard
        return totals

    def describe(self) -> str:
        keys = sum(len(shard.registers()) for shard in self.shards.values())
        return (f"ShardedKVStore({len(self.shards)} shard groups x "
                f"[{self.config.describe()}]; {keys} keys; {self.ring!r})")
