"""Writer side of the safe storage (Figure 2), plus the MWMR extension.

The SWMR WRITE proceeds in exactly two rounds:

* **PW** (pre-write): install the new timestamp-value pair ``pw = <ts, v>``
  in the objects' ``pw`` fields *and read back* each object's reader
  timestamps ``tsr`` (this is the unusual move -- the writer reads while
  writing);
* **W**: install the complete tuple ``w = <pw, currenttsrarray>`` that
  embeds the collected reader-timestamp snapshot.  Readers later use that
  snapshot to expose Byzantine objects (the ``conflict`` predicate).

With multiple writers (``config.num_writers > 1``) a **TAG** round is
prepended: the writer queries a quorum for the highest ``(epoch,
writer_id)`` tag, bumps the epoch, and tie-breaks with its own writer id
-- the classic MWMR read-timestamp phase.  Quorum intersection with any
completed write's W round contains at least ``b + 1`` objects at optimal
resilience, so at least one correct object reports a tag at least as high
as any completed write's; real-time write order therefore maps to tag
order.  Single-writer systems skip the round entirely and keep the
paper's exact 2-round WRITE.

The writer's persistent variables (``ts`` and the last installed ``w``)
live in :class:`SafeWriterState`, shared across that writer's operations,
mirroring the paper's process-local state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from ...automata.base import ClientOperation, Outgoing, Sink
from ...automata.rounds import TagDiscovery
from ...config import SystemConfig
from ...errors import FencedWriteError, ProtocolError
from ...messages import (Message, Pw, PwAck, TagQuery, TagQueryAck, W,
                         WriteAck, WriteFenced)
from ...types import (ProcessId, TimestampValue, TsrArray, WriterTag,
                      WriteTuple, _Bottom, initial_write_tuple, writer)

#: Phase names for tracing/assertions.
PHASE_TAG = "TAG"
PHASE_PW = "PW"
PHASE_W = "W"


@dataclass
class SafeWriterState:
    """Persistent writer variables (Figure 2, initialization block)."""

    config: SystemConfig
    ts: int = 0
    w: WriteTuple = field(default=None)  # type: ignore[assignment]
    writer_index: int = 0

    def __post_init__(self) -> None:
        if self.w is None:
            self.w = initial_write_tuple(self.config.num_objects,
                                         self.config.num_readers)


class SafeWriteOperation(ClientOperation):
    """One ``WRITE(v)`` invocation (Figure 2, lines 3-11).

    Implemented in the *absorb/advance* shape of the vector round engine:
    inbound acks are recorded with no decisions, and :meth:`advance`
    evaluates the round conditions over everything recorded so far.
    Note one (sound) behavioural freedom: ``currenttsrarray`` is assembled from
    *every* PW-ack absorbed when the quorum condition is evaluated --
    under burst delivery that may be more than ``S - t`` rows, exactly
    as if the scheduler had delivered those acks before the writer's
    step.
    """

    kind = "WRITE"

    def __init__(self, state: SafeWriterState, value: Any):
        super().__init__(writer(state.writer_index))
        if isinstance(value, _Bottom):
            raise ProtocolError("⊥ is not a valid input value for WRITE")
        self.state = state
        self.config = state.config
        self.value = value
        self.wid = state.writer_index
        #: MWMR systems prepend the tag-discovery round; the single-writer
        #: system trusts the local monotone counter, exactly as the paper.
        self.discover_tag = state.config.is_multi_writer
        self.phase = PHASE_TAG if self.discover_tag else PHASE_PW
        self.ts: int = 0
        self.pw: TimestampValue = None  # type: ignore[assignment]
        self.current_tsrarray: TsrArray = None  # type: ignore[assignment]
        self.discovery: Optional[TagDiscovery] = None
        #: Line 11 evidence: object index -> reported tsr row.
        self._pw_rows: Dict[int, Tuple[Optional[int], ...]] = {}
        self._w_ackers: Set[int] = set()
        self._fencers: Set[int] = set()
        self._fence_epoch_seen: int = 0

    # ------------------------------------------------------------------
    def _start_pw_round(self, epoch: int) -> Pw:
        self.phase = PHASE_PW
        self.state.ts = epoch
        self.ts = epoch
        self.pw = TimestampValue(self.ts, self.value, wid=self.wid)
        self.tag = self.pw.tag
        # Line 5: PW carries the new pair plus the *previous* write tuple,
        # so laggards catch up on the last complete write.
        self.begin_round()
        return Pw(ts=self.ts, pw=self.pw, w=self.state.w,
                  register_id=self.register_id, wid=self.wid)

    # -- vector rounds -----------------------------------------------------
    def start_vector(self, sink: Sink, leftovers: Outgoing) -> None:
        if self.discover_tag:
            # MWMR round 0: learn the highest installed tag from a quorum.
            self.discovery = TagDiscovery(
                nonce=self.operation_id,
                quorum=self.config.quorum_size,
                writer_id=self.wid,
                floor=WriterTag(self.state.ts, self.wid),
            )
            self.begin_round()
            sink.append(TagQuery(nonce=self.operation_id,
                                 register_id=self.register_id))
            return
        # Lines 3-4: inc(ts); the single writer's counter is authoritative.
        sink.append(self._start_pw_round(self.state.ts + 1))

    def absorb(self, sender: ProcessId, message: Any) -> None:
        """Record one ack (no decisions).  Freshness: acks must echo this
        write's tag and register; identity comes from the channel
        (sender), never from the payload -- a Byzantine object cannot
        impersonate a peer."""
        if self.done or sender.role != "object":
            return
        kind = message.__class__
        if kind is PwAck:
            if (self.phase == PHASE_PW and message.ts == self.ts
                    and message.wid == self.wid
                    and message.register_id == self.register_id
                    and sender.index not in self._pw_rows):
                tsr_row = tuple(message.tsr)
                if len(tsr_row) != self.config.num_readers:
                    # Malformed (necessarily Byzantine) row: count the ack
                    # but record nothing -- nil entries are always sound.
                    tsr_row = (None,) * self.config.num_readers
                # Line 11: currenttsrarray[i] := tsr.
                self._pw_rows[sender.index] = tsr_row
        elif kind is WriteAck:
            if (self.phase == PHASE_W and message.ts == self.ts
                    and message.wid == self.wid
                    and message.register_id == self.register_id):
                self._w_ackers.add(sender.index)
        elif kind is TagQueryAck:
            if (self.phase == PHASE_TAG and self.discovery is not None
                    and message.register_id == self.register_id):
                self.discovery.offer(sender.index, message.nonce,
                                     message.tag)
        elif kind is WriteFenced:
            if (message.register_id == self.register_id
                    and message.epoch == self.ts
                    and message.wid == self.wid
                    and self.phase in (PHASE_PW, PHASE_W)):
                self._fencers.add(sender.index)
                self._fence_epoch_seen = message.fence_epoch

    def advance(self, sink: Sink, leftovers: Outgoing) -> None:
        """Evaluate the round conditions once over the absorbed acks."""
        if self.done:
            return
        if len(self._fencers) > self.config.b:
            # ``b + 1`` distinct fence reports include a correct fenced
            # object -- and a fence installed at a quorum leaves at most
            # ``t + b < S - t`` objects that could still acknowledge, so
            # this write can never complete.  Raising fails the caller's
            # waiter instead of hanging it; the value was not applied at
            # any correct fenced object.
            raise FencedWriteError(
                f"WRITE#{self.operation_id} on {self.register_id!r} "
                f"(epoch {self.ts}) refused by epoch fence "
                f"{self._fence_epoch_seen}: the register was handed off; "
                f"re-route and retry")
        phase = self.phase
        if phase == PHASE_PW:
            # Line 6: proceed after S - t distinct acks.
            if len(self._pw_rows) >= self.config.quorum_size:
                sink.append(self._start_w_round())
        elif phase == PHASE_W:
            # Lines 9-10: S - t acks complete the WRITE.
            if len(self._w_ackers) >= self.config.quorum_size:
                self.complete("OK")
        elif phase == PHASE_TAG:
            if self.discovery is not None and self.discovery.ready():
                sink.append(
                    self._start_pw_round(self.discovery.chosen_tag().epoch))

    def _start_w_round(self) -> W:
        # Line 7: freeze w := <pw, currenttsrarray> (persists for the next
        # write's PW message).
        cfg = self.config
        nil_row = (None,) * cfg.num_readers
        rows = self._pw_rows
        self.current_tsrarray = TsrArray(tuple(
            rows.get(i, nil_row) for i in range(cfg.num_objects)))
        w_tuple = WriteTuple(self.pw, self.current_tsrarray)
        self.state.w = w_tuple
        self.phase = PHASE_W
        self.begin_round()
        # Line 8: second round to all objects.
        return W(ts=self.ts, pw=self.pw, w=w_tuple,
                 register_id=self.register_id, wid=self.wid)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        suffix = "" if self.wid == 0 else f" by {self.client_id!r}"
        return f"WRITE#{self.operation_id}({self.value!r}) ts={self.ts}{suffix}"
