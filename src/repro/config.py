"""System configuration: failure thresholds and process counts.

The paper's model (Section 2) is parameterized by:

* ``S``  -- number of base objects,
* ``t``  -- maximum number of faulty objects,
* ``b``  -- maximum number of *malicious* (Byzantine) objects among the
  ``t`` faulty ones, with ``0 < b <= t`` for the main results,
* ``R``  -- number of readers (one writer always).

:class:`SystemConfig` validates these and exposes the derived quantities the
protocols use throughout: the quorum size ``S - t``, the optimal-resilience
bound ``2t + b + 1`` [17], and the fast-read impossibility threshold
``2t + 2b`` (Proposition 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from .errors import ConfigurationError, ResilienceError
from .types import ProcessId, obj, reader, writer


def optimal_resilience(t: int, b: int) -> int:
    """Minimum number of objects for robust unauthenticated storage.

    ``S = 2t + b + 1`` -- shown optimal in [17] for ``b = t`` and extended
    to general ``b <= t`` in the paper (Section 1).
    """
    return 2 * t + b + 1


def fast_read_impossibility_threshold(t: int, b: int) -> int:
    """Largest ``S`` for which fast (1-round) safe reads are impossible.

    Proposition 1: with at most ``2t + 2b`` objects no safe storage has all
    reads fast.  Equivalently, fast reads *require* ``S >= 2t + 2b + 1``.
    """
    return 2 * t + 2 * b


@dataclass(frozen=True)
class SystemConfig:
    """Validated system parameters.

    Use the constructors :meth:`optimal` (``S = 2t + b + 1``) or
    :meth:`with_objects` for explicit ``S``.  ``num_readers`` defaults to 1
    (the SWSR setting of the lower bound); the storage algorithms support
    any ``R >= 1``.  ``num_writers`` defaults to 1 (the paper's SWMR
    model); configuring more writers switches the protocols into MWMR
    mode -- writers discover and bump ``(epoch, writer_id)`` tags instead
    of trusting a local counter, and objects acknowledge stale-tagged
    write rounds so a losing writer still terminates.
    """

    t: int
    b: int
    num_objects: int
    num_readers: int = 1
    num_writers: int = 1
    #: Where base objects run: ``"inproc"`` (asyncio tasks on the
    #: in-memory network -- the historical deployment) or
    #: ``"multiproc"`` (each replica / shard group is a child OS
    #: process serving :class:`~repro.runtime.tcp.TcpObjectServer` on
    #: the binary wire format, supervised with health checks, WAL +
    #: snapshot durability and automatic restart).
    deployment: str = "inproc"
    #: Write-ahead-log fsync policy of multiproc replicas: ``"always"``
    #: (fsync per durable record), ``"batch"`` (fsync every few records
    #: and at snapshot/close -- the default), ``"never"`` (leave it to
    #: the OS; still torn-tail safe, but the tail may be shorter).
    wal_fsync: str = "batch"

    def __post_init__(self) -> None:
        if self.deployment not in ("inproc", "multiproc"):
            raise ConfigurationError(
                f"unknown deployment {self.deployment!r}; "
                f"expected 'inproc' or 'multiproc'")
        if self.wal_fsync not in ("always", "batch", "never"):
            raise ConfigurationError(
                f"unknown WAL fsync policy {self.wal_fsync!r}; "
                f"expected 'always', 'batch' or 'never'")
        if self.t < 0:
            raise ConfigurationError("t must be non-negative")
        if self.b < 0:
            raise ConfigurationError("b must be non-negative")
        if self.b > self.t:
            raise ConfigurationError(
                f"Byzantine failures are a subset of all failures: "
                f"b={self.b} > t={self.t}"
            )
        if self.num_readers < 1:
            raise ConfigurationError("at least one reader is required")
        if self.num_writers < 1:
            raise ConfigurationError("at least one writer is required")
        if self.num_objects < 1:
            raise ConfigurationError("at least one base object is required")
        if self.num_objects <= self.t:
            raise ConfigurationError(
                f"S={self.num_objects} objects cannot tolerate t={self.t} "
                "failures: no correct quorum would remain"
            )

    # -- constructors ------------------------------------------------------
    @classmethod
    def optimal(cls, t: int, b: int, num_readers: int = 1,
                num_writers: int = 1) -> "SystemConfig":
        """Optimally resilient configuration: ``S = 2t + b + 1``."""
        return cls(t=t, b=b, num_objects=optimal_resilience(t, b),
                   num_readers=num_readers, num_writers=num_writers)

    @classmethod
    def with_objects(cls, t: int, b: int, num_objects: int,
                     num_readers: int = 1,
                     num_writers: int = 1) -> "SystemConfig":
        return cls(t=t, b=b, num_objects=num_objects,
                   num_readers=num_readers, num_writers=num_writers)

    @classmethod
    def at_impossibility_threshold(cls, t: int, b: int,
                                   num_readers: int = 1) -> "SystemConfig":
        """The ``S = 2t + 2b`` configuration of the lower-bound proof."""
        return cls(t=t, b=b,
                   num_objects=fast_read_impossibility_threshold(t, b),
                   num_readers=num_readers)

    def with_deployment(self, deployment: str,
                        wal_fsync: Optional[str] = None) -> "SystemConfig":
        """The same configuration under another deployment topology."""
        if wal_fsync is None:
            return replace(self, deployment=deployment)
        return replace(self, deployment=deployment, wal_fsync=wal_fsync)

    # -- derived quantities --------------------------------------------------
    @property
    def S(self) -> int:  # noqa: N802 - matches the paper's notation
        return self.num_objects

    @property
    def quorum_size(self) -> int:
        """``S - t``: replies a client may safely wait for in one round."""
        return self.num_objects - self.t

    @property
    def is_optimally_resilient(self) -> bool:
        return self.num_objects == optimal_resilience(self.t, self.b)

    @property
    def meets_optimal_resilience(self) -> bool:
        return self.num_objects >= optimal_resilience(self.t, self.b)

    @property
    def fast_reads_possible(self) -> bool:
        """Whether Proposition 1 permits fast reads at this size."""
        return self.num_objects > fast_read_impossibility_threshold(self.t, self.b)

    @property
    def max_crash_only(self) -> int:
        """Objects that may crash but not behave arbitrarily: ``t - b``."""
        return self.t - self.b

    @property
    def is_multi_writer(self) -> bool:
        """Whether protocols must run the MWMR tag-discovery write path."""
        return self.num_writers > 1

    # -- process enumeration -------------------------------------------------
    def objects(self) -> List[ProcessId]:
        return [obj(i) for i in range(self.num_objects)]

    def readers(self) -> List[ProcessId]:
        return [reader(j) for j in range(self.num_readers)]

    def writers(self) -> List[ProcessId]:
        return [writer(k) for k in range(self.num_writers)]

    def clients(self) -> List[ProcessId]:
        return self.writers() + self.readers()

    def all_processes(self) -> List[ProcessId]:
        return self.clients() + self.objects()

    # -- guards ---------------------------------------------------------------
    def require_optimal_resilience(self, protocol: str) -> None:
        """Raise :class:`ResilienceError` if ``S < 2t + b + 1``."""
        needed = optimal_resilience(self.t, self.b)
        if self.num_objects < needed:
            raise ResilienceError(
                f"{protocol} requires S >= 2t + b + 1 = {needed} base "
                f"objects for t={self.t}, b={self.b}; got S={self.num_objects}"
            )

    def describe(self) -> str:
        writers = (f", {self.num_writers} writers"
                   if self.num_writers > 1 else "")
        return (
            f"S={self.num_objects} objects, t={self.t} faulty (b={self.b} "
            f"Byzantine), {self.num_readers} reader(s){writers}, "
            f"quorum={self.quorum_size}"
        )
