"""Round bookkeeping shared by quorum-based client operations.

A *communication round-trip* (Section 2.3) is: broadcast to all objects,
collect acknowledgments, terminate once a protocol-specific predicate over
the collected acks holds (at the latest when ``S - t`` correct objects have
answered).  :class:`RoundCollector` implements the bookkeeping every
protocol repeats: which objects already answered this round, with stale
replies (earlier rounds, earlier operations) filtered out by a
freshness key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Generic, Iterable, List, Optional,
                    Set, TypeVar)

from ..types import TAG0, WriterTag

AckT = TypeVar("AckT")


class RoundCollector(Generic[AckT]):
    """Collects one round's acknowledgments, keyed by object index.

    ``freshness`` is the value (typically the reader/writer timestamp the
    round was tagged with) that a genuine ack for this round must echo;
    acks echoing anything else are counted as stale and ignored.  Duplicate
    acks from the same object are ignored too -- a Byzantine object must
    not be able to inflate counts by spamming.
    """

    def __init__(self, round_index: int, freshness: Any):
        self.round_index = round_index
        self.freshness = freshness
        self.acks: Dict[int, AckT] = {}
        self.stale = 0
        self.duplicates = 0

    def offer(self, object_index: int, echoed_freshness: Any,
              ack: AckT) -> bool:
        """Record an ack; returns True if it was fresh and new."""
        if echoed_freshness != self.freshness:
            self.stale += 1
            return False
        if object_index in self.acks:
            self.duplicates += 1
            return False
        self.acks[object_index] = ack
        return True

    @property
    def responders(self) -> Set[int]:
        return set(self.acks)

    def count(self) -> int:
        return len(self.acks)

    def has_quorum(self, quorum: int) -> bool:
        return len(self.acks) >= quorum

    def ack_of(self, object_index: int) -> Optional[AckT]:
        return self.acks.get(object_index)

    def __repr__(self) -> str:
        return (f"RoundCollector(round={self.round_index}, "
                f"acks={sorted(self.acks)}, stale={self.stale})")


class TagDiscovery:
    """The MWMR read-timestamp phase of the ABD and authenticated writers.

    Before installing a value, a multi-writer writer broadcasts a tag
    query, collects a quorum of ``(epoch, writer_id)`` tags, and picks
    ``(max_epoch + 1, own_writer_id)`` -- the classic ABD-style epoch bump
    with writer-id tie-break.  The helper owns the bookkeeping every
    protocol repeats: freshness (acks must echo the query nonce), dedup
    per object, the running maximum, and the floor of the writer's own
    last-used epoch so a writer's tags stay monotone even if a quorum
    under-reports (a Byzantine minority cannot lower the maximum a whole
    quorum observed, and inflated reports merely waste epochs).
    """

    def __init__(self, nonce: int, quorum: int, writer_id: int,
                 floor: WriterTag = TAG0):
        self.collector: RoundCollector[WriterTag] = RoundCollector(
            round_index=0, freshness=nonce)
        self.quorum = quorum
        self.writer_id = writer_id
        self.max_tag = floor

    def offer(self, object_index: int, echoed_nonce: int,
              tag: WriterTag) -> bool:
        """Record one object's tag report; returns True if fresh and new."""
        if not self.collector.offer(object_index, echoed_nonce, tag):
            return False
        if tag > self.max_tag:
            self.max_tag = tag
        return True

    def ready(self) -> bool:
        return self.collector.has_quorum(self.quorum)

    def chosen_tag(self) -> WriterTag:
        """The tag this writer installs: bumped epoch, own writer id."""
        return self.max_tag.next_for(self.writer_id)


# ---------------------------------------------------------------------------
# Tag leases (contention-adaptive fast reads)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TagLease:
    """A certified ``(tag, value)`` a reader may try to fast-read from.

    A lease is *granted* only from quorum-held evidence: a completed write
    ack, an atomic read (post write-back), a regular read on a regular
    cluster, or a certified snapshot collect.  Holding one entitles a
    reader to attempt a single-round :class:`~repro.messages.LeaseProbe`
    instead of full history collection; it guarantees nothing by itself --
    the probe round re-certifies freshness against a live quorum, so it
    does not matter which reader (or writer) earned it.

    ``failures`` drives contention adaptivity: consecutive fallbacks grow
    an exponential backoff of classic reads that skip the probe entirely,
    so a contended register degrades to classic-round cost (plus nothing)
    instead of paying probe + classic on every read.
    """

    tag: WriterTag
    value: Any
    failures: int = 0
    skips_left: int = 0

    #: cap the probe-skipping backoff at this many classic reads.
    MAX_SKIPS = 64

    def refresh(self, tag: WriterTag, value: Any) -> None:
        """Adopt newer certified evidence (monotone in the tag order)."""
        if tag >= self.tag:
            self.tag = tag
            self.value = value

    def record_hit(self) -> None:
        self.failures = 0
        self.skips_left = 0

    def record_fallback(self) -> None:
        self.failures += 1
        self.skips_left = min(self.MAX_SKIPS, 1 << min(self.failures, 6))

    def should_probe(self) -> bool:
        """Whether the next read should attempt the fast path at all."""
        if self.skips_left > 0:
            self.skips_left -= 1
            return False
        return True


class LeaseTable:
    """One :class:`TagLease` per register, shared by every reader of a pool.

    Granting is one dict lookup plus at most one allocation, so a write
    arms the fast path for readers that have never touched the register.
    Invalidation drops the entry itself; ``invalidations`` counts each
    dropped lease once.  Grants are refused while ``enabled`` is off.
    """

    __slots__ = ("enabled", "leases", "invalidations")

    def __init__(self) -> None:
        self.enabled = False
        self.leases: Dict[str, TagLease] = {}
        self.invalidations = 0

    def grant(self, register_id: str, tag: Optional[WriterTag],
              value: Any) -> None:
        """Adopt certified evidence for one register (monotone)."""
        if not self.enabled or tag is None or tag == TAG0:
            return
        lease = self.leases.get(register_id)
        if lease is None:
            self.leases[register_id] = TagLease(tag, value)
        else:
            lease.refresh(tag, value)

    def to_probe(self, register_id: str) -> Optional[TagLease]:
        """The lease a read of ``register_id`` should probe (backoff-gated)."""
        lease = self.leases.get(register_id)
        if lease is not None and lease.should_probe():
            return lease
        return None

    def drop(self, register_ids: Optional[Iterable[str]] = None) -> None:
        """Drop the leases of ``register_ids`` (all if None): the next read
        of each runs the classic rounds and re-earns a lease from them."""
        if register_ids is None:
            self.invalidations += len(self.leases)
            self.leases.clear()
            return
        for register_id in register_ids:
            if self.leases.pop(register_id, None) is not None:
                self.invalidations += 1


class LeaseValidation:
    """Collects :class:`~repro.messages.LeaseProbeAck` verdicts for a probe.

    The fast read returns iff a quorum of fresh acks arrives in which

    * **every** ack's top tag is at most the lease tag (any honest object
      reporting a newer tag refutes the lease -- by quorum intersection a
      completed newer write overlaps the responders in ``S - 2t >= b + 1``
      objects, at least one honest),
    * **no** ack reports a fence (a fenced register is mid-handoff; the
      classic path re-routes), and
    * at least ``b + 1`` acks confirm they *hold* the leased write
      complete -- one of them is honest, so the leased value really is a
      quorum-installed write, defending against restarted-empty replicas
      and Byzantine confirmation.

    The decision is taken at the first quorum of fresh acks, mirroring
    :class:`TagDiscovery`; any refutation before that point short-circuits
    to fallback immediately.
    """

    def __init__(self, nonce: int, quorum: int,
                 confirmation_threshold: int, lease_tag: WriterTag):
        self.collector: RoundCollector[Any] = RoundCollector(
            round_index=0, freshness=nonce)
        self.quorum = quorum
        self.confirmation_threshold = confirmation_threshold
        self.lease_tag = lease_tag
        self.holds = 0
        self.refuted = False

    def offer(self, object_index: int, echoed_nonce: int, ack: Any) -> bool:
        """Record one probe ack; returns True if fresh and new."""
        if not self.collector.offer(object_index, echoed_nonce, ack):
            return False
        if ack.fenced or ack.tag > self.lease_tag:
            self.refuted = True
        if ack.holds:
            self.holds += 1
        return True

    def decided(self) -> bool:
        """The probe round has an outcome (valid or refuted)."""
        return self.refuted or self.collector.has_quorum(self.quorum)

    def valid(self) -> bool:
        """Quorum collected, nothing refuted, b+1 confirmations."""
        return (not self.refuted
                and self.collector.has_quorum(self.quorum)
                and self.holds >= self.confirmation_threshold)
