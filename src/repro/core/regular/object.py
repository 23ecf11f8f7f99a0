"""Base-object automaton of the regular storage (Figure 5).

Unlike the safe protocol's object, which keeps only the latest ``pw``/``w``
pair, the regular object records *every* value it receives from writers
in an indexed ``history``: ``history[tag] = <pw, w>``, where ``tag`` is
the write's ``(epoch, writer_id)`` tag (in the paper's single-writer
setting every tag is ``(ts, 0)`` and the index degenerates to the integer
timestamp).  On a PW for write ``tag'`` it provisionally records
``history[tag'] = <pw', nil>`` and back-fills the carried previous write's
complete tuple (PW messages carry the previous ``w``); on a W it
completes ``history[tag']``.

READ requests are answered with the history -- in full, or (Section 5.1)
only the suffix from the reader's cached tag ``from_ts`` onward, which is
the optimization experiment E6 quantifies.

In multi-writer systems stale-tagged write rounds are acknowledged (and
recorded -- history is a map, concurrent writers' entries coexist) so a
writer that lost the epoch race still terminates; single-writer systems
keep the figure's no-reply discipline for stale traffic.

As with the safe object, all of this state is kept *per register* in
lazily created slots, so one replica set serves many registers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ...automata.base import MultiRegisterObject, Outgoing, Sink
from ...config import SystemConfig
from ...messages import (Batch, EpochFence, HistoryEntry, HistoryReadAck,
                         LeaseProbe, LeaseProbeAck, Message,
                         Pw, ReadRequest, PwAck, TagQuery, TagQueryAck, W,
                         WriteAck)
from ...types import (DEFAULT_REGISTER, INITIAL_TSVAL, TAG0, ProcessId,
                      WriterTag, initial_write_tuple)

from functools import lru_cache


@lru_cache(maxsize=None)
def initial_history_entry(num_objects: int,
                          num_readers: int) -> HistoryEntry:
    """``history[tag0] = <pw_0, w_0>`` -- shared per system shape."""
    return HistoryEntry(pw=INITIAL_TSVAL,
                        w=initial_write_tuple(num_objects, num_readers))


@dataclass
class RegularSlot:
    """Per-register state of one regular object (Figure 5, lines 1-3)."""

    ts: int
    history: Dict[WriterTag, HistoryEntry]
    tsr: List[int]
    wid: int = 0
    #: memoized ``(len(history), max(history))`` -- tag arbitration asks
    #: for the top tag on every TagQuery, and history keys only ever
    #: accumulate, so the max is stable while the key count is.
    _top_key: Optional[Tuple[int, WriterTag]] = None

    @property
    def tag(self) -> WriterTag:
        return WriterTag(self.ts, self.wid)

    def top_tag(self) -> WriterTag:
        """``max(slot tag, max(history))`` with the history max cached."""
        cached = self._top_key
        n = len(self.history)
        if cached is None or cached[0] != n:
            top = max(self.history)
            self._top_key = (n, top)
        else:
            top = cached[1]
        if self.ts > top.epoch or (self.ts == top.epoch
                                   and self.wid > top.writer_id):
            return WriterTag(self.ts, self.wid)
        return top


class RegularObject(MultiRegisterObject):
    """Figure 5: ``code of object s_i`` for the regular storage."""

    def __init__(self, object_index: int, config: SystemConfig):
        super().__init__(object_index)
        self.config = config

    def _new_slot(self) -> RegularSlot:
        # Initialization (lines 1-3): history[tag0] = <pw_0, w_0>.  The
        # initial entry is immutable and identical for every slot of a
        # system shape, so one shared instance serves all of them.
        return RegularSlot(
            ts=0,
            history={TAG0: initial_history_entry(self.config.num_objects,
                                                 self.config.num_readers)},
            tsr=[0] * self.config.num_readers,
        )

    # -- single-register compatibility views ----------------------------
    @property
    def ts(self) -> int:
        return self._slot(DEFAULT_REGISTER).ts

    @property
    def history(self) -> Dict[WriterTag, HistoryEntry]:
        return self._slot(DEFAULT_REGISTER).history

    @property
    def tsr(self) -> List[int]:
        return self._slot(DEFAULT_REGISTER).tsr

    # ------------------------------------------------------------------
    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        # Dispatch ordered by message frequency: reads dominate, and each
        # sends a ReadRequest round (two if forced).  The hot handlers
        # return a single reply message (always to the sender) so the
        # batched path can append it to a shared sink without the
        # per-part list/tuple wrapping.
        if isinstance(message, ReadRequest):
            reply = self._read_reply(message)
        elif isinstance(message, Pw):
            reply = self._pw_reply(message)
        elif isinstance(message, W):
            reply = self._w_reply(message)
        elif isinstance(message, TagQuery):
            reply = self._tag_reply(message)
        elif isinstance(message, LeaseProbe):
            reply = self._lease_reply(message)
        elif isinstance(message, EpochFence):
            return self._on_epoch_fence(sender, message)
        else:
            return []
        return [] if reply is None else [(sender, reply)]

    def handle_batch(self, sender: ProcessId, parts: Tuple[Any, ...],
                     sink: Sink) -> Outgoing:
        """Vector fast path: one decode, per-register dispatch in a tight
        loop, every reply coalesced into the caller's sink (one ack frame
        back to ``sender``)."""
        leftovers: Outgoing = []
        append = sink.append
        for message in parts:
            kind = message.__class__
            if kind is ReadRequest:
                reply = self._read_reply(message)
            elif kind is Pw:
                reply = self._pw_reply(message)
            elif kind is W:
                reply = self._w_reply(message)
            elif kind is TagQuery:
                reply = self._tag_reply(message)
            elif kind is LeaseProbe:
                reply = self._lease_reply(message)
            else:  # rare control traffic and subclass extensions
                for receiver, payload in self.on_message(sender, message) \
                        or []:
                    if receiver == sender and isinstance(payload, Message) \
                            and not isinstance(payload, Batch):
                        append(payload)
                    else:
                        leftovers.append((receiver, payload))
                continue
            if reply is not None:
                append(reply)
        return leftovers

    # -- MWMR tag discovery ----------------------------------------------
    def _tag_reply(self, message: TagQuery) -> TagQueryAck:
        slot = self._slot(message.register_id)
        top = slot.top_tag()
        return TagQueryAck(nonce=message.nonce,
                           object_index=self.object_index,
                           epoch=top.epoch, wid=top.writer_id,
                           register_id=message.register_id)

    # -- tag leases (fast reads) -----------------------------------------
    def _lease_reply(self, message: LeaseProbe) -> LeaseProbeAck:
        """One probe, one verdict: top tag, completeness, fence state.

        Read-only -- probes never touch ``slot.tsr`` or the history, so a
        fast read is invisible to the classic protocol's freshness
        bookkeeping and a probe storm cannot stale out concurrent classic
        rounds.
        """
        slot = self.slots.get(message.register_id)
        if slot is None:
            slot = self.slots[message.register_id] = self._new_slot()
        top = slot.top_tag()
        entry = slot.history.get(message.tag)
        fenced = bool(self.hard_fences or self.fences) and (
            message.register_id in self.hard_fences
            or message.register_id in self.fences)
        return LeaseProbeAck(
            nonce=message.nonce,
            object_index=self.object_index,
            epoch=top.epoch, wid=top.writer_id,
            holds=entry is not None and entry.w is not None,
            fenced=fenced,
            register_id=message.register_id)

    # -- lines 4-9 -------------------------------------------------------
    def _pw_reply(self, message: Pw) -> Optional[Message]:
        # Fence state short-circuit: both containers are empty unless a
        # reconfiguration ever touched this replica, so the common case
        # costs two truthiness checks.
        if ((self.fences or self.hard_fences)
                and self._fence_rejects(message.register_id, message.ts)):
            return self._fence_nack_msg(message.register_id,
                                        message.ts, message.wid)
        slot = self.slots.get(message.register_id)
        if slot is None:
            slot = self.slots[message.register_id] = self._new_slot()
        fresh = (message.ts > slot.ts
                 or (message.ts == slot.ts and message.wid > slot.wid))
        if fresh or self.config.is_multi_writer:
            # The tag via the (shared, cached) pw pair: one WriterTag per
            # broadcast instead of one per receiving object.  Honest
            # writers always agree; a forged frame whose pair disagrees
            # with its header falls back to the header tag, exactly as
            # before.
            tag = message.pw.tag
            if tag.epoch != message.ts or tag.writer_id != message.wid:
                tag = WriterTag(message.ts, message.wid)
            # Record the new pre-write and back-fill the previous write's
            # complete tuple carried by the PW message.  Never demote a
            # completed entry to a provisional one (a concurrent writer's
            # W may have landed first), and skip the back-fill when the
            # previous write is already complete here -- the common case
            # after that write's own W round.
            existing = slot.history.get(tag)
            if existing is None or existing.w is None:
                slot.history[tag] = HistoryEntry(pw=message.pw, w=None)
            prev_tag = message.w.tag
            prev = slot.history.get(prev_tag)
            if prev is None or prev.w is None:
                slot.history[prev_tag] = HistoryEntry(pw=message.w.tsval,
                                                      w=message.w)
            if fresh:
                slot.ts = message.ts
                slot.wid = message.wid
            return PwAck(ts=message.ts,
                         object_index=self.object_index,
                         tsr=tuple(slot.tsr),
                         register_id=message.register_id,
                         wid=message.wid)
        return None

    # -- lines 10-14 -----------------------------------------------------
    def _w_reply(self, message: W) -> Optional[Message]:
        if ((self.fences or self.hard_fences)
                and self._fence_rejects(message.register_id, message.ts)):
            return self._fence_nack_msg(message.register_id,
                                        message.ts, message.wid)
        slot = self.slots.get(message.register_id)
        if slot is None:
            slot = self.slots[message.register_id] = self._new_slot()
        fresh = (message.ts > slot.ts
                 or (message.ts == slot.ts and message.wid >= slot.wid))
        if fresh or self.config.is_multi_writer:
            if fresh:
                slot.ts = message.ts
                slot.wid = message.wid
            tag = message.pw.tag
            if tag.epoch != message.ts or tag.writer_id != message.wid:
                tag = WriterTag(message.ts, message.wid)
            slot.history[tag] = HistoryEntry(pw=message.pw, w=message.w)
            return WriteAck(ts=message.ts,
                            object_index=self.object_index,
                            register_id=message.register_id,
                            wid=message.wid)
        return None

    # -- lines 15-19 -----------------------------------------------------
    def _read_reply(self, message: ReadRequest
                    ) -> Optional[HistoryReadAck]:
        j = message.reader_index
        if not 0 <= j < self.config.num_readers:
            return None
        slot = self.slots.get(message.register_id)
        if slot is None:
            slot = self.slots[message.register_id] = self._new_slot()
        if message.tsr > slot.tsr[j]:
            slot.tsr[j] = message.tsr
            history = slot.history
            if message.from_ts is not None and message.from_ts > TAG0:
                # Section 5.1: ship only the suffix from the reader's
                # cached tag onwards (a TAG0 cache means "everything" --
                # skip the filter pass entirely).
                from_tag = message.from_ts
                history = {tag: entry for tag, entry in history.items()
                           if tag >= from_tag}
            # The ack freezes its own copy, insulating it from this
            # slot's future mutations (fast constructor: slot histories
            # are tag-keyed already, no normalization pass needed).
            return HistoryReadAck.from_tagged(
                round_index=message.round_index,
                tsr=slot.tsr[j],
                object_index=self.object_index,
                history=history,
                register_id=message.register_id,
            )
        return None

    # ------------------------------------------------------------------
    def describe_state(self) -> str:
        if not self.slots or set(self.slots) == {DEFAULT_REGISTER}:
            slot = self.slots.get(DEFAULT_REGISTER) or self._new_slot()
            return (f"s{self.object_index + 1}: ts={slot.ts}, "
                    f"|history|={len(slot.history)}, tsr={slot.tsr}")
        return (f"s{self.object_index + 1}: "
                + "; ".join(f"{rid}: ts={slot.ts}, "
                            f"|history|={len(slot.history)}"
                            for rid, slot in sorted(self.slots.items())))
