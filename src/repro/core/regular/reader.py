"""Reader side of the regular storage (Figure 6) and its §5.1 optimization.

Control flow mirrors the safe reader -- at most two rounds, reader
timestamps in the objects, conflict-free quorum to leave round 1 -- but the
evidence is richer: whole histories instead of latest values, with the
``invalid``/``safe`` predicates of :class:`~repro.core.regular.evidence.
RegularEvidence` deciding candidate fate.

Two reader flavours share the implementation:

* :class:`RegularReadOperation` (``cached=False``) ships full histories;
  the candidate set always contains the initial tuple ``w_0``, so the
  round-2 wait needs no empty-set escape hatch;
* the optimized reader (``cached=True``) sends the timestamp of the last
  value this reader returned, receives only history suffixes, and falls
  back to the cached value when the candidate set drains (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ...automata.base import ClientOperation, Outgoing, Sink
from ...automata.rounds import LeaseTable, LeaseValidation, TagLease
from ...config import SystemConfig
from ...errors import ProtocolError
from ...messages import HistoryReadAck, LeaseProbe, LeaseProbeAck, ReadRequest
from ...quorums import confirmation_threshold, elimination_threshold
from ...types import BOTTOM, TAG0, ProcessId, WriterTag, reader
from ..safe.predicates import conflict_pairs, exists_conflict_free_quorum
from .evidence import RegularEvidence

#: Explicit phases of the unified read state machine.  The fast path is
#: phase 0; classic collection is phases 1-2; the atomic extension adds
#: phase 3 (write-back).  A read either starts at PHASE_PROBE (holding a
#: lease) and falls back into PHASE_ROUND1, or starts at PHASE_ROUND1
#: directly -- from there on the two paths are the same machine.
PHASE_PROBE = 0
PHASE_ROUND1 = 1
PHASE_ROUND2 = 2
PHASE_WRITE_BACK = 3


@dataclass
class RegularReaderState:
    """Persistent per-reader variables: ``tsr'_j`` plus the §5.1 cache.

    ``cache_tag`` is the write tag of the last value this reader vouched
    for (``(ts, 0)`` in single-writer systems).

    ``leases`` drives the contention-adaptive fast path.  It is the
    owning :class:`~repro.protocols.RegisterClientStates` pool's shared
    :class:`LeaseTable`, attached when the service tier enables fast
    reads (the core library leaves it ``None`` so figure-exact round
    counts stay put).  Completed reads grant into it, and so do write
    acks and snapshot cuts of the pool; a read holding an entry for its
    register attempts a single-round probe first.
    """

    config: SystemConfig
    reader_index: int = 0
    tsr: int = 0
    cache_tag: WriterTag = TAG0
    cache_value: Any = BOTTOM
    leases: Optional[LeaseTable] = None

    @property
    def cache_ts(self) -> int:
        """Legacy view: the epoch of the cached tag."""
        return self.cache_tag.epoch

    def __post_init__(self) -> None:
        if not 0 <= self.reader_index < self.config.num_readers:
            raise ProtocolError(
                f"reader index {self.reader_index} out of range for "
                f"R={self.config.num_readers}")


class RegularReadOperation(ClientOperation):
    """One ``READ()`` of the regular storage (Figure 6, lines 7-27)."""

    kind = "READ"

    def __init__(self, state: RegularReaderState, cached: bool = False):
        super().__init__(reader(state.reader_index))
        self.state = state
        self.config = state.config
        self.reader_index = state.reader_index
        self.cached = cached
        self.evidence = RegularEvidence(
            elimination_threshold=elimination_threshold(self.config),
            confirmation_threshold=confirmation_threshold(self.config),
        )
        #: the lease this read probes (picked at start, once the register
        #: id is stamped), or None for a classic-only read.
        self.lease: Optional[TagLease] = None
        self.validation: Optional[LeaseValidation] = None
        self.phase = PHASE_ROUND1
        self.tsr_first_round: int = 0
        #: fast-path efficacy flags, aggregated by the host counters.
        self.fast_hit = False
        self.fell_back = False
        #: history entries received, for the E6 message-size accounting
        self.history_entries_received = 0

    # ------------------------------------------------------------------
    def _from_ts(self) -> Optional[WriterTag]:
        return self.state.cache_tag if self.cached else None

    # -- vector rounds -----------------------------------------------------
    def start_vector(self, sink: Sink, leftovers: Outgoing) -> None:
        leases = self.state.leases
        if leases is not None:
            self.lease = leases.to_probe(self.register_id)
        if self.lease is not None:
            sink.append(self._begin_probe())
        else:
            sink.append(self._begin_classic())

    def _grant(self, tag: WriterTag, value: Any) -> None:
        """Share certified evidence with every reader of the pool."""
        if self.state.leases is not None:
            self.state.leases.grant(self.register_id, tag, value)

    def _begin_probe(self) -> LeaseProbe:
        """Phase 0: one broadcast validating the lease against a quorum."""
        self.phase = PHASE_PROBE
        self.state.tsr += 1
        self.begin_round()
        tag = self.lease.tag
        self.validation = LeaseValidation(
            nonce=self.state.tsr,
            quorum=self.config.quorum_size,
            confirmation_threshold=confirmation_threshold(self.config),
            lease_tag=tag)
        return LeaseProbe(nonce=self.state.tsr,
                          epoch=tag.epoch, wid=tag.writer_id,
                          reader_index=self.reader_index,
                          register_id=self.register_id)

    def _begin_classic(self) -> ReadRequest:
        """Enter phase 1 (fresh start or fallback from a refuted probe)."""
        self.phase = PHASE_ROUND1
        self.state.tsr += 1
        self.tsr_first_round = self.state.tsr
        self.begin_round()
        return ReadRequest(round_index=1, tsr=self.tsr_first_round,
                           reader_index=self.reader_index,
                           from_ts=self._from_ts(),
                           register_id=self.register_id)

    def absorb(self, sender: ProcessId, message: Any) -> None:
        """Record one ack; the predicates run in advance()."""
        if self.done or sender.role != "object":
            return
        kind = message.__class__
        if kind is LeaseProbeAck:
            if (self.phase == PHASE_PROBE
                    and message.register_id == self.register_id):
                self.validation.offer(sender.index, message.nonce, message)
            return
        if (kind is not HistoryReadAck
                or message.register_id != self.register_id):
            return
        if (self.phase == PHASE_ROUND1 and message.round_index == 1
                and message.tsr == self.tsr_first_round):
            if self.evidence.record(1, sender.index, message.history,
                                    normalized=True):
                self.history_entries_received += len(message.history)
        elif (self.phase == PHASE_ROUND2 and message.round_index == 2
                and message.tsr == self.tsr_first_round + 1):
            if self.evidence.record(2, sender.index, message.history,
                                    normalized=True):
                self.history_entries_received += len(message.history)

    def advance(self, sink: Sink, leftovers: Outgoing) -> None:
        """Evaluate the round predicates once per burst of acks.

        Burst absorption means the line-11 check may first run with more
        than a quorum of responders -- sound, because a conflict-free
        quorum among some responders remains one among more (conflicts
        are pairwise; extra responders only add more subsets to choose
        from), exactly as if the scheduler had interleaved the checks
        between individual ack deliveries.
        """
        if self.done:
            return
        if self.phase == PHASE_PROBE:
            self._advance_probe(sink)
            return
        if self.phase == PHASE_ROUND1:
            if self._round1_condition():
                # The line-14 wait condition may already hold on round-1
                # evidence alone: decide first, so no round 2 goes unread.
                self._maybe_return(sink)
                if self.phase == PHASE_ROUND1 and not self.done:
                    sink.append(self._enter_round2())
            return
        self._maybe_return(sink)

    def _advance_probe(self, sink: Sink) -> None:
        """Decide the probe: fast return, or fall back to phase 1."""
        validation = self.validation
        if not validation.decided():
            return
        lease = self.lease
        if validation.valid():
            lease.record_hit()
            if lease.tag >= self.state.cache_tag:
                self.state.cache_tag = lease.tag
                self.state.cache_value = lease.value
            self.fast_hit = True
            self.tag = lease.tag
            self.complete(lease.value)
            return
        # Refuted (newer tag, fence) or unconfirmed (healed/amnesiac
        # replicas below b+1 holders): fall back to the classic rounds.
        self.fell_back = True
        lease.record_fallback()
        if any(ack.fenced for ack in validation.collector.acks.values()):
            # A fence means the register is mid-handoff here; the lease
            # may point into a retired replica set, so drop it outright.
            self.state.leases.drop((self.register_id,))
        sink.append(self._begin_classic())

    # ------------------------------------------------------------------
    def _round1_condition(self) -> bool:
        # Below quorum responders no conflict-free quorum can exist; skip
        # the conflict analysis until enough acks are even in.
        quorum = self.config.quorum_size
        if self.evidence.responded_first_count() < quorum:
            return False
        pairs = conflict_pairs(
            candidates=self.evidence.candidates(),
            first_rw=self.evidence.first_round_accusers,
            reader_index=self.reader_index,
            tsr_first_round=self.tsr_first_round,
        )
        if not pairs:
            # No accusations in flight: every responder subset is
            # conflict-free and the quorum count already passed.
            return True
        return exists_conflict_free_quorum(
            responders=self.evidence.responded_first(),
            pairs=pairs,
            quorum=quorum,
        )

    def _enter_round2(self) -> ReadRequest:
        self.phase = PHASE_ROUND2
        self.state.tsr += 1
        if self.state.tsr != self.tsr_first_round + 1:
            raise ProtocolError(
                "reader timestamp advanced outside this operation")
        self.begin_round()
        return ReadRequest(round_index=2, tsr=self.state.tsr,
                           reader_index=self.reader_index,
                           from_ts=self._from_ts(),
                           register_id=self.register_id)

    def _maybe_return(self, sink: Sink) -> None:
        """Line 14; ``sink`` takes the atomic extension's write-back."""
        if self.done:
            return
        candidate = self.evidence.returnable()
        if candidate is not None:
            value = candidate.tsval.value
            # Update the §5.1 cache with the freshest value we vouched for.
            if candidate.tag >= self.state.cache_tag:
                self.state.cache_tag = candidate.tag
                self.state.cache_value = value
            self.tag = candidate.tag
            # A classic read's confirmed candidate is exactly the certified
            # evidence a lease needs (regular semantics here; the atomic
            # extension grants only after write-back).
            self._grant(candidate.tag, value)
            self.complete(value)
            return
        if self.cached and self.evidence.candidates_empty():
            # Section 5.1: an empty candidate set under suffix shipping
            # means nothing newer than the cache was confirmed; the cached
            # value is still regular (case ts >= k of the proof).
            self.tag = self.state.cache_tag
            self.complete(self.state.cache_value)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        mode = "cached" if self.cached else "full-history"
        return (f"READ#{self.operation_id} by r{self.reader_index + 1} "
                f"({mode}, tsrFR={self.tsr_first_round})")
