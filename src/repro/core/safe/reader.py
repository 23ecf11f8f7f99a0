"""Reader side of the safe storage (Figure 4).

The READ takes at most two rounds, and -- unusually -- *writes control
data* in each: every ``READk`` message carries a fresh reader timestamp
that the objects store in their ``tsr[j]`` field.  The writer's PW round
picks those timestamps up and embeds them (as ``tsrarray``) into the write
tuple, which closes the loop that lets the reader catch malicious objects:

* In round 1 the reader waits for a *conflict-free* quorum (line 11): if a
  responder exhibits a candidate tuple claiming some object saw a reader
  timestamp that this reader has not issued yet, one of the two objects is
  provably lying and the pair is excluded together.
* Then the reader waits until some candidate with the highest
  timestamp is ``safe`` -- vouched for by ``b + 1`` objects, so at least
  one non-Byzantine voice -- or until every candidate has been eliminated
  (``t + b + 1`` objects answered without it), which can only happen when
  the READ is concurrent with a WRITE, in which case returning the initial
  value ``v0 = ⊥`` is allowed by safety.  Round 2 is sent only if round-1
  evidence does not settle this already (it does in uncontended runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ...automata.base import ClientOperation, Outgoing, Sink
from ...config import SystemConfig
from ...errors import ProtocolError
from ...messages import ReadAck, ReadRequest
from ...quorums import confirmation_threshold, elimination_threshold
from ...types import BOTTOM, TAG0, ProcessId, obj, reader
from .predicates import (CandidateTracker, conflict_pairs,
                         exists_conflict_free_quorum)


@dataclass
class SafeReaderState:
    """Persistent per-reader variables: ``tsr'_j`` (Figure 4, line 6)."""

    config: SystemConfig
    reader_index: int = 0
    tsr: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.reader_index < self.config.num_readers:
            raise ProtocolError(
                f"reader index {self.reader_index} out of range for "
                f"R={self.config.num_readers}")


class SafeReadOperation(ClientOperation):
    """One ``READ()`` invocation (Figure 4, lines 7-28)."""

    kind = "READ"

    def __init__(self, state: SafeReaderState):
        super().__init__(reader(state.reader_index))
        self.state = state
        self.config = state.config
        self.reader_index = state.reader_index
        self.tracker = CandidateTracker(
            elimination_threshold=elimination_threshold(self.config),
            confirmation_threshold=confirmation_threshold(self.config),
        )
        self.phase = 1
        self.tsr_first_round: int = 0

    # ------------------------------------------------------------------
    def start(self) -> Outgoing:
        # Line 9: tsrFR := tsr'_j := tsr'_j + 1.
        self.state.tsr += 1
        self.tsr_first_round = self.state.tsr
        self.begin_round()
        # Line 10: READ1<tsr'_j> to all objects.
        request = ReadRequest(round_index=1, tsr=self.tsr_first_round,
                              reader_index=self.reader_index,
                              register_id=self.register_id)
        return [(obj(i), request) for i in range(self.config.num_objects)]

    # -- vector rounds (native) ------------------------------------------
    def start_vector(self, sink: Sink, leftovers: Outgoing) -> None:
        # Line 9: tsrFR := tsr'_j := tsr'_j + 1.
        self.state.tsr += 1
        self.tsr_first_round = self.state.tsr
        self.begin_round()
        sink.append(ReadRequest(round_index=1, tsr=self.tsr_first_round,
                                reader_index=self.reader_index,
                                register_id=self.register_id))

    def absorb(self, sender: ProcessId, message: Any) -> None:
        """Record one ack; the line-11/14 predicates run in advance().

        Anything failing the "upon" pattern match -- stale replies from
        previous READs, early/forged round tags -- is dropped here.
        """
        if (self.done or not sender.is_object
                or not isinstance(message, ReadAck)
                or message.register_id != self.register_id):
            return
        if (self.phase == 1 and message.round_index == 1
                and message.tsr == self.tsr_first_round):
            # Lines 21-24 -- the ack matches the pattern <tsr'_j, pw', w'>.
            self.tracker.record_first_round(sender.index, message.pw,
                                            message.w)
        elif (self.phase == 2 and message.round_index == 2
                and message.tsr == self.tsr_first_round + 1):
            # Lines 25-26.
            self.tracker.record_second_round(sender.index, message.pw,
                                             message.w)

    def advance(self, sink: Sink, leftovers: Outgoing) -> None:
        """Evaluate round conditions once per burst (sound: a
        conflict-free quorum among some responders remains one among
        more, conflicts being pairwise)."""
        if self.done:
            return
        if self.phase == 1:
            if self._round1_condition():
                # The line-14 wait condition may already hold on round-1
                # evidence alone: decide first, so no round 2 goes unread.
                self._maybe_return()
                if not self.done:
                    sink.append(self._enter_round2())
            return
        self._maybe_return()

    # ------------------------------------------------------------------
    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if self.done or not sender.is_object:
            return []
        self.absorb(sender, message)
        sink: Sink = []
        outgoing: Outgoing = []
        self.advance(sink, outgoing)
        for broadcast in sink:
            outgoing.extend((obj(i), broadcast)
                            for i in range(self.config.num_objects))
        return outgoing

    # ------------------------------------------------------------------
    def _round1_condition(self) -> bool:
        """Line 11: a conflict-free subset of >= S - t responders exists."""
        # Below quorum responders the condition is trivially false.
        if len(self.tracker.responded_first) < self.config.quorum_size:
            return False
        pairs = conflict_pairs(
            candidates=self.tracker.candidates(),
            first_rw=self.tracker.first_rw,
            reader_index=self.reader_index,
            tsr_first_round=self.tsr_first_round,
        )
        return exists_conflict_free_quorum(
            responders=self.tracker.responded_first,
            pairs=pairs,
            quorum=self.config.quorum_size,
        )

    def _enter_round2(self) -> ReadRequest:
        # Lines 12-13: inc(tsr'_j); READ2<tsr'_j> to all objects.
        self.phase = 2
        self.state.tsr += 1
        if self.state.tsr != self.tsr_first_round + 1:
            raise ProtocolError(
                "reader timestamp advanced outside this operation; "
                "concurrent READs by one reader violate well-formedness")
        self.begin_round()
        return ReadRequest(round_index=2, tsr=self.state.tsr,
                           reader_index=self.reader_index,
                           register_id=self.register_id)

    def _maybe_return(self) -> None:
        """Lines 14-20: return when a safe high candidate exists or C = ∅."""
        if self.done:
            return
        candidate = self.tracker.returnable()
        if candidate is not None:
            self.tag = candidate.tag
            self.complete(candidate.tsval.value)
            return
        if self.tracker.candidates_empty():
            # Only possible under read/write concurrency; safety then
            # allows any value -- the paper returns v0.
            self.tag = TAG0
            self.complete(BOTTOM)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        return (f"READ#{self.operation_id} by r{self.reader_index + 1} "
                f"(tsrFR={self.tsr_first_round})")
