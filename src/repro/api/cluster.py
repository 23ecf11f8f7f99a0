"""The cluster facade: topology + lifecycle behind one handle.

:class:`Cluster` is the one documented entry point to the storage
service.  It owns a :class:`~repro.service.ShardedKVStore` (construction
and lifecycle), an exclusive-writer lease pool sized by
``config.num_writers``, and -- behind :meth:`Cluster.admin` -- the
control plane (:class:`~repro.service.ReconfigCoordinator` plus fault
injection).  Applications talk to it only through
:meth:`Cluster.session`::

    cluster = Cluster(CachedRegularStorageProtocol,
                      SystemConfig.optimal(t=1, b=1, num_readers=2,
                                           num_writers=4),
                      num_shards=2)
    async with cluster:
        async with cluster.session(consistency=Consistency.REGULAR) as s:
            await s.put("user:42", "ada")
            snap = await s.snapshot(["user:42", "user:43"])
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional

from ..automata.base import ObjectAutomaton
from ..config import SystemConfig
from ..errors import ConfigurationError
from ..protocols import StorageProtocol
from ..service.reconfig import ReconfigCoordinator, ReconfigReport
from ..service.sharded import ShardedKVStore
from ..service.store import MultiRegisterStore
from ..spec.checkers import (CheckResult, check_per_register,
                             check_snapshot_consistency)
from ..spec.histories import History
from .leases import WriterLeaseAllocator
from .policy import Consistency, RetryPolicy
from .session import Session


class Admin:
    """The cluster's control plane, separated from the data plane.

    Reconfiguration and fault injection are operator verbs, not
    application verbs; sessions cannot reach them.  All methods delegate
    to the underlying :class:`~repro.service.ReconfigCoordinator` /
    store -- one coordinator per cluster, so fence traffic shares each
    shard store's control host.
    """

    def __init__(self, cluster: "Cluster"):
        self._cluster = cluster
        self.coordinator = ReconfigCoordinator(cluster.kv)

    # -- reconfiguration ----------------------------------------------------
    async def add_shard(self, shard_id: Optional[int] = None,
                        store: Optional[MultiRegisterStore] = None
                        ) -> ReconfigReport:
        """Grow the ring by one shard group (live, epoch-fenced handoff)."""
        return await self.coordinator.add_shard(shard_id, store)

    async def remove_shard(self, shard_id: int) -> ReconfigReport:
        """Drain one shard group and retire it."""
        return await self.coordinator.remove_shard(shard_id)

    async def heal_replica(self, shard_id: int, index: int,
                           automaton: Optional[ObjectAutomaton] = None
                           ) -> ReconfigReport:
        """Replace one (crashed) base object and re-install its values."""
        return await self.coordinator.heal_replica(shard_id, index,
                                                   automaton)

    # -- fault injection ----------------------------------------------------
    def compromise_replica(self, key: str, index: int,
                           automaton: ObjectAutomaton) -> None:
        """Turn one replica of the shard group holding ``key`` Byzantine."""
        self._cluster.kv.compromise_replica(key, index, automaton)

    def crash_replica(self, key: str, index: int) -> None:
        self._cluster.kv.crash_replica(key, index)

    # -- verification -------------------------------------------------------
    def check(self, checker: Optional[Callable[[History], CheckResult]]
              = None) -> CheckResult:
        """Check the recorded history: per-register semantics + snapshots.

        Runs ``checker`` (default: regularity, which auto-delegates to
        the tag-based multi-writer checker) over every register's
        sub-history and :func:`~repro.spec.checkers.
        check_snapshot_consistency` over every recorded snapshot, merged
        into one result.  Requires the cluster to have been built with
        ``record_history=True``.
        """
        history = self._cluster.history
        if history is None:
            raise ConfigurationError(
                "no history recorded; build the Cluster with "
                "record_history=True to use admin().check()")
        per_register = check_per_register(history, checker)
        snapshots = check_snapshot_consistency(history)
        merged = CheckResult(
            f"{per_register.property_name} + {snapshots.property_name}")
        merged.checked_reads = (per_register.checked_reads
                                + snapshots.checked_reads)
        merged.violations = per_register.violations + snapshots.violations
        return merged


class Cluster:
    """Owns one sharded store end to end; hand out :meth:`session` s.

    Constructor arguments mirror :class:`~repro.service.ShardedKVStore`
    (which the cluster builds and owns); ``record_history=True``
    additionally captures every operation and snapshot for
    :meth:`Admin.check`.  To layer the API over a store you already
    manage (migration path), use :meth:`from_store`.
    """

    def __init__(self, protocol_factory: Callable[[], StorageProtocol],
                 config: SystemConfig, num_shards: int = 2,
                 jitter: float = 0.0, seed: int = 0, vnodes: int = 64,
                 default_timeout: Optional[float] = 30.0,
                 max_pending_per_host: Optional[int] = None,
                 record_history: bool = False,
                 data_dir: Optional[str] = None,
                 granularity: str = "group",
                 auto_heal: bool = True,
                 fast_reads: bool = False):
        self.kv = ShardedKVStore(
            protocol_factory, config, num_shards=num_shards,
            jitter=jitter, seed=seed, vnodes=vnodes,
            default_timeout=default_timeout,
            max_pending_per_host=max_pending_per_host,
            record_history=record_history, data_dir=data_dir,
            granularity=granularity, auto_heal=auto_heal,
            fast_reads=fast_reads)
        self._owns_store = True
        self._bind()

    @classmethod
    def from_store(cls, kv: ShardedKVStore) -> "Cluster":
        """Wrap an existing store; its lifecycle stays the caller's."""
        cluster = cls.__new__(cls)
        cluster.kv = kv
        cluster._owns_store = False
        cluster._bind()
        return cluster

    def _bind(self) -> None:
        probe = next(iter(self.kv.shards.values()))
        #: the strongest :class:`Consistency` the protocol provides.
        self.provides = Consistency.of_protocol(probe.protocol)
        self._leases = WriterLeaseAllocator(self.config.num_writers)
        self._reader_rr = itertools.count()
        self._sessions: List[Session] = []
        self._admin: Optional[Admin] = None

    # -- derived views ------------------------------------------------------
    @property
    def config(self) -> SystemConfig:
        return self.kv.config

    @property
    def history(self) -> Optional[History]:
        return self.kv.history

    def known_keys(self) -> List[str]:
        return self.kv.known_keys()

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "Cluster":
        if self._owns_store:
            await self.kv.start()
        return self

    async def stop(self) -> None:
        """Close every open session, then stop the store (if owned)."""
        for session in list(self._sessions):
            session.close()
        if self._owns_store:
            await self.kv.stop()

    async def __aenter__(self) -> "Cluster":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # -- sessions -----------------------------------------------------------
    def session(self, consistency: Optional[Consistency] = None,
                retry: Optional[RetryPolicy] = None,
                reader_index: Optional[int] = None) -> Session:
        """Open a session.

        ``consistency`` defaults to :attr:`Consistency.REGULAR`, capped
        at what the protocol provides (a safe-only deployment defaults
        to ``SAFE``); declaring more than the protocol provides raises
        :class:`~repro.errors.ConsistencyError`.  ``retry`` defaults to
        a standard bounded-backoff :class:`RetryPolicy`; pass
        ``RetryPolicy.none()`` to fail fast.  ``reader_index`` is
        assigned round-robin over ``config.num_readers`` unless pinned.
        """
        if consistency is None:
            consistency = min(Consistency.REGULAR, self.provides)
        else:
            consistency = Consistency(consistency)
            consistency.require_at_most(self.provides, "session()")
        if retry is None:
            retry = RetryPolicy()
        if reader_index is None:
            reader_index = next(self._reader_rr) % self.config.num_readers
        elif not 0 <= reader_index < self.config.num_readers:
            raise ConfigurationError(
                f"reader index {reader_index} out of range for "
                f"{self.config.num_readers} reader(s)")
        session = Session(self, consistency=consistency, retry=retry,
                          reader_index=reader_index)
        self._sessions.append(session)
        return session

    def _forget_session(self, session: Session) -> None:
        try:
            self._sessions.remove(session)
        except ValueError:
            pass  # stop() may race a caller's own close()

    @property
    def open_sessions(self) -> int:
        return len(self._sessions)

    # -- control plane ------------------------------------------------------
    def admin(self) -> Admin:
        """The cluster's control plane (reconfiguration, faults, checks)."""
        if self._admin is None:
            self._admin = Admin(self)
        return self._admin

    # -- observability ------------------------------------------------------
    def describe(self) -> str:
        return (f"Cluster({self.kv.describe()}; provides "
                f"{self.provides.name}; {len(self._sessions)} session(s), "
                f"{self._leases!r})")


__all__ = ["Admin", "Cluster"]
