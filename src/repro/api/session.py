"""Sessions: the one client handle applications hold.

A :class:`Session` binds together the concerns the raw service tier
leaves to the caller:

* **identity** -- the session leases an exclusive writer index from its
  cluster (and is assigned a reader index), so application code never
  passes ``writer_index``/``reader_index`` again;
* **retries** -- a :class:`~repro.api.policy.RetryPolicy` absorbs
  transient failures: :class:`~repro.errors.FencedWriteError` (the key
  was mid-handoff; routing is re-resolved on retry, so the write lands
  on the key's new shard group after the flip),
  :class:`~repro.errors.BackpressureError` and
  :class:`~repro.errors.BusyRegisterError` (bounded exponential
  backoff);
* **consistency** -- the session declares the register semantics it
  relies on, validated against what the cluster's protocol provides.

The headline capability is :meth:`Session.snapshot`: a cross-shard
multi-key read returning a *consistent cut*.  Each round performs one
tag-returning collect of every key (batched per shard group); the
snapshot returns when two consecutive collects agree on every key's
``(epoch, writer_id)`` tag.  The second collect's reads are invoked only
after the first fully completed, so -- with at least regular per-key
semantics -- any write that one collected value depends on must surface
in the confirming collect, and agreement certifies the cut
(:func:`~repro.spec.checkers.check_snapshot_consistency` checks exactly
this against recorded histories).  Keys whose tags keep moving are
re-read in further rounds, up to a bound; then
:class:`~repro.errors.SnapshotContentionError`.
"""

from __future__ import annotations

import asyncio
from collections.abc import Mapping as MappingABC
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import (PreconditionFailedError, RetryExhaustedError,
                      SnapshotContentionError, TransportError)
from ..types import TAG0, WriterTag, reader
from .policy import Consistency, RETRYABLE, RetryPolicy


class Snapshot(MappingABC):
    """An immutable consistent cut over a set of keys.

    Mapping-like: ``snap[key]`` / ``snap.get(key)`` return the value the
    cut holds for ``key`` (``None`` for a key never written).
    :attr:`tags` gives the version tag certified per key and
    :attr:`rounds` how many collects convergence took.
    """

    __slots__ = ("_values", "tags", "rounds")

    def __init__(self, values: Dict[str, Any],
                 tags: Dict[str, Optional[WriterTag]], rounds: int):
        self._values = dict(values)
        self.tags = dict(tags)
        self.rounds = rounds

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def __iter__(self):
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return (f"Snapshot({len(self._values)} keys, "
                f"{self.rounds} round(s))")


class _SnapshotCall:
    """Lazy snapshot invocation: ``await`` it, or use ``async with``.

    Both forms run the same convergence loop; the context-manager form
    simply scopes the returned cut::

        snap = await session.snapshot(keys)
        async with session.snapshot() as snap:
            ...
    """

    __slots__ = ("_session", "_keys", "_max_rounds", "_timeout")

    def __init__(self, session: "Session",
                 keys: Optional[Iterable[str]],
                 max_rounds: int, timeout: Optional[float]):
        self._session = session
        self._keys = keys
        self._max_rounds = max_rounds
        self._timeout = timeout

    def __await__(self):
        return self._session._take_snapshot(
            self._keys, self._max_rounds, self._timeout).__await__()

    async def __aenter__(self) -> Snapshot:
        return await self

    async def __aexit__(self, *exc_info: Any) -> None:
        return None


class Session:
    """One application's handle on a cluster; create via
    :meth:`~repro.api.cluster.Cluster.session`.

    Sessions are cheap; open one per logical actor.  The writer identity
    is leased lazily on the first write and released by :meth:`close`
    (``async with`` does it for you), so read-only sessions never
    consume one of the cluster's ``num_writers`` identities.
    """

    def __init__(self, cluster: "Cluster", consistency: Consistency,
                 retry: RetryPolicy, reader_index: int):
        self._cluster = cluster
        self.consistency = consistency
        self.retry = retry
        self.reader_index = reader_index
        self._writer_index: Optional[int] = None
        self._closed = False
        #: writes currently in flight under the leased identity; the
        #: lease may only return to the pool once this drains, or another
        #: session could be writing under the same writer id.
        self._writes_in_flight = 0

    # -- identity -----------------------------------------------------------
    @property
    def writer_index(self) -> int:
        """The session's exclusive writer identity (leased on first use)."""
        self._check_open()
        if self._writer_index is None:
            self._writer_index = self._cluster._leases.acquire(self)
        return self._writer_index

    @property
    def writes_leased(self) -> bool:
        return self._writer_index is not None

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Refuse further operations and release the writer lease.

        If a write is still in flight under the leased identity, the
        release is deferred until it settles (success, failure or
        eviction): handing the index to another session while this one
        is mid-write would put two live clients behind one writer id,
        which is exactly what the lease pool exists to prevent.
        """
        if self._closed:
            return
        self._closed = True
        self._release_if_drained()
        self._cluster._forget_session(self)

    def _release_if_drained(self) -> None:
        if (self._closed and self._writes_in_flight == 0
                and self._writer_index is not None):
            self._cluster._leases.release(self._writer_index)
            self._writer_index = None

    @property
    def closed(self) -> bool:
        return self._closed

    async def __aenter__(self) -> "Session":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise TransportError("session is closed")

    # -- retry machinery -----------------------------------------------------
    async def _retrying(self, thunk, what: str) -> Any:
        policy = self.retry
        failures = 0
        while True:
            try:
                return await thunk()
            except RETRYABLE as error:
                if not policy.handles(error):
                    raise
                failures += 1
                if failures >= policy.attempts:
                    if policy.attempts == 1:
                        raise  # fail-fast policy: no retry happened,
                        # so the raw error is the whole story
                    raise RetryExhaustedError(
                        f"{what} failed {failures} time(s), retry policy "
                        f"exhausted; last error: {error}",
                        attempts=failures, last_error=error) from error
                # The sleep both backs off and yields the event loop, so
                # whatever the retry is waiting on (a routing flip, a
                # draining host, a competing operation) can make progress.
                await asyncio.sleep(policy.delay(failures))

    def _resolve(self, consistency: Optional[Consistency],
                 context: str) -> Consistency:
        if consistency is None:
            return self.consistency
        consistency = Consistency(consistency)
        consistency.require_at_most(self._cluster.provides, context)
        return consistency

    # -- KV operations -------------------------------------------------------
    async def put(self, key: str, value: Any,
                  timeout: Optional[float] = None) -> None:
        """Write one key under the session's leased writer identity."""
        self._check_open()
        kv = self._cluster.kv
        writer_index = self.writer_index
        self._writes_in_flight += 1
        try:
            await self._retrying(
                lambda: kv.put(key, value, timeout=timeout,
                               writer_index=writer_index),
                f"put({key!r})")
        finally:
            self._writes_in_flight -= 1
            self._release_if_drained()

    async def put_if(self, key: str, value: Any,
                     expected_tag: Optional[WriterTag],
                     timeout: Optional[float] = None
                     ) -> Optional[WriterTag]:
        """Conditional write: PUT only if the key's tag still matches.

        ``expected_tag`` is the ``(epoch, writer_id)`` tag a previous
        :meth:`get_tagged` (or :meth:`put_if`) reported; ``None`` means
        "I expect the key has never been written".  The observed tag is
        compared first and a mismatch raises
        :class:`~repro.errors.PreconditionFailedError` *without*
        writing; on a match the write proceeds and the tag it installed
        is returned (feed it to the next :meth:`put_if` for chained
        updates).

        The check is optimistic, not a wire-level CAS: read, compare,
        write are separate quorum rounds, so a concurrent writer can
        still land between the compare and the write (last-tag-wins as
        always).  What the method guarantees is that a *stale* caller
        -- one whose expectation is already outdated at compare time --
        fails fast instead of silently clobbering the newer value,
        which is the contract optimistic concurrency needs.
        """
        self._check_open()
        kv = self._cluster.kv
        writer_index = self.writer_index
        self._writes_in_flight += 1
        try:
            async def attempt() -> Optional[WriterTag]:
                _, observed = await kv.get_tagged(
                    key, reader_index=self.reader_index, timeout=timeout)
                expected = (TAG0 if expected_tag is None else expected_tag)
                found = TAG0 if observed is None else observed
                if found != expected:
                    # The caller's picture of the key is stale; so is any
                    # read lease minted from it.  Drop the lease so the
                    # caller's recovery read goes through classic rounds
                    # and re-arms on fresh evidence.
                    drop = getattr(kv, "drop_leases", None)
                    if drop is not None:
                        drop([key])
                    raise PreconditionFailedError(
                        f"put_if({key!r}) expected tag "
                        f"{None if expected == TAG0 else expected} but "
                        f"observed {None if found == TAG0 else found}",
                        expected=(None if expected == TAG0 else expected),
                        observed=(None if found == TAG0 else found))
                return await kv.put_tagged(key, value, timeout=timeout,
                                           writer_index=writer_index)
            return await self._retrying(attempt, f"put_if({key!r})")
        finally:
            self._writes_in_flight -= 1
            self._release_if_drained()

    async def get(self, key: str,
                  consistency: Optional[Consistency] = None,
                  timeout: Optional[float] = None) -> Optional[Any]:
        """Read one key (``None`` if never written).

        The read takes the strongest path admissible at the declared
        consistency: when the cluster runs with fast reads enabled, a
        held tag lease is probed first (one round) and the classic
        quorum rounds are the transparent fallback -- lease grants are
        taken only from evidence meeting the protocol's own semantics
        (completed classic reads, quorum-acked writes, certified
        snapshot cuts), so the fast path never weakens the consistency
        this session declared.
        """
        self._check_open()
        self._resolve(consistency, f"get({key!r})")
        kv = self._cluster.kv
        return await self._retrying(
            lambda: kv.get(key, reader_index=self.reader_index,
                           timeout=timeout),
            f"get({key!r})")

    async def get_tagged(self, key: str,
                         consistency: Optional[Consistency] = None,
                         timeout: Optional[float] = None
                         ) -> Tuple[Optional[Any], Optional[WriterTag]]:
        """Read one key together with the version tag observed."""
        self._check_open()
        self._resolve(consistency, f"get_tagged({key!r})")
        kv = self._cluster.kv
        return await self._retrying(
            lambda: kv.get_tagged(key, reader_index=self.reader_index,
                                  timeout=timeout),
            f"get_tagged({key!r})")

    async def put_many(self, items: Mapping[str, Any],
                       timeout: Optional[float] = None) -> None:
        """Batch-write; rounds coalesce per shard group as usual."""
        self._check_open()
        kv = self._cluster.kv
        writer_index = self.writer_index
        self._writes_in_flight += 1
        try:
            await self._retrying(
                lambda: kv.put_many(items, timeout=timeout,
                                    writer_index=writer_index),
                f"put_many({len(items)} keys)")
        finally:
            self._writes_in_flight -= 1
            self._release_if_drained()

    async def get_many(self, keys: Iterable[str],
                       consistency: Optional[Consistency] = None,
                       timeout: Optional[float] = None
                       ) -> Dict[str, Optional[Any]]:
        """Batch-read in caller order.

        Per-key semantics only -- for a *mutually* consistent multi-key
        result use :meth:`snapshot`.
        """
        self._check_open()
        self._resolve(consistency, "get_many()")
        keys = list(keys)
        kv = self._cluster.kv
        return await self._retrying(
            lambda: kv.get_many(keys, reader_index=self.reader_index,
                                timeout=timeout),
            f"get_many({len(keys)} keys)")

    # -- snapshots -----------------------------------------------------------
    def snapshot(self, keys: Optional[Iterable[str]] = None,
                 max_rounds: int = 8,
                 timeout: Optional[float] = None) -> _SnapshotCall:
        """A consistent multi-key read across shard groups.

        ``keys`` defaults to every key the cluster knows.  Returns an
        awaitable that is also an async context manager; the result is a
        :class:`Snapshot`.  Raises
        :class:`~repro.errors.SnapshotContentionError` if the cut cannot
        be certified within ``max_rounds`` collects.
        """
        if max_rounds < 2:
            raise ValueError("a snapshot needs at least two collects "
                             "(one to propose a cut, one to certify it)")
        return _SnapshotCall(self, keys, max_rounds, timeout)

    # Each collect is one ``get_many_tagged`` sweep, which rides the
    # vector round engine underneath: a whole collect costs one frame
    # per (replica, step) per shard group, whatever the key count.
    # Collects must span the *full* key list every round -- certifying
    # per-key stability across different round pairs would not be a cut.

    async def _take_snapshot(self, keys: Optional[Iterable[str]],
                             max_rounds: int,
                             timeout: Optional[float]) -> Snapshot:
        self._check_open()
        cluster = self._cluster
        # The convergence argument needs per-key reads that are at least
        # regular; a safe protocol's concurrent reads may return anything.
        Consistency.REGULAR.require_at_most(cluster.provides, "snapshot()")
        kv = cluster.kv
        key_list = (list(dict.fromkeys(keys)) if keys is not None
                    else kv.known_keys())
        history = kv.history
        begin = history.mark() if history is not None else 0
        previous: Optional[Dict[str, Tuple[Any, Optional[WriterTag]]]] = None
        collect: Dict[str, Tuple[Any, Optional[WriterTag]]] = {}
        moved: List[str] = []
        for round_number in range(1, max_rounds + 1):
            if not key_list:
                break  # the empty cut is trivially consistent
            collect = await self._retrying(
                lambda: kv.get_many_tagged(
                    key_list, reader_index=self.reader_index,
                    timeout=timeout),
                f"snapshot collect ({len(key_list)} keys)")
            if previous is not None:
                moved = [key for key in key_list
                         if collect[key][1] != previous[key][1]]
                if not moved:
                    break
            previous = collect
        else:
            raise SnapshotContentionError(
                f"snapshot of {len(key_list)} key(s) did not converge in "
                f"{max_rounds} collects; still moving: {sorted(moved)}",
                rounds=max_rounds, unstable_keys=sorted(moved))
        values = {key: value for key, (value, _) in collect.items()}
        tags = {key: tag for key, (_, tag) in collect.items()}
        rounds = round_number if key_list else 0
        # The confirming collect certified every (tag, value) pair with a
        # completed read, which is lease-grade evidence: seed the reader
        # caches so follow-up gets on snapshotted keys can go fast.
        grant = getattr(kv, "grant_read_leases", None)
        if grant is not None and key_list:
            grant({key: (tags[key], values[key])
                   for key in key_list if tags[key] is not None})
        if history is not None:
            history.record_snapshot(begin, tags, values,
                                    client=reader(self.reader_index))
        return Snapshot(values, tags, rounds)

    # -- observability -------------------------------------------------------
    def describe(self) -> str:
        lease = (f"writer {self._writer_index}"
                 if self._writer_index is not None else "no writer lease")
        return (f"Session({self.consistency.name}, reader "
                f"{self.reader_index}, {lease}, "
                f"retry x{self.retry.attempts})")


__all__ = ["Session", "Snapshot"]
