"""Base-object automaton of the safe storage (Figure 3).

Each object ``s_i`` maintains, *per register*, three fields:

* ``pw`` -- the timestamp-value pair of the latest (pre-)write round seen;
* ``w``  -- the latest complete write tuple ``<tsval, tsrarray>``;
* ``tsr[j]`` -- the highest timestamp received from reader ``r_j``.

Handlers follow the figure line by line, including the guards: a PW message
updates state only for *strictly* newer write tags (line 4), a W message
also for equal ones (line 9 -- the W of write ``k`` must land after the PW
of write ``k``), and READ requests update ``tsr[j]`` only when the reader's
timestamp moved forward (line 14).  "Newer" compares the full ``(epoch,
writer_id)`` tag, which degenerates to the paper's integer comparison in
single-writer systems (every tag is ``(ts, 0)``).

Acknowledgment discipline depends on the writer model.  With the paper's
single writer, stale or replayed write traffic earns no reply at all,
exactly as in the figure -- the sole writer's own rounds are always fresh.
With multiple writers a stale-tagged round is *normal* (the concurrent
writer that lost the epoch race, or a writer whose guessed tag was
too low), so the object acknowledges without adopting; refusing would
starve the losing writer forever.  Every PW ack reports the highest tag
the object held before that pre-write, which is how a multi-writer
writer checks its guessed tag.  Tag queries are always answered.

One automaton serves arbitrarily many logical registers: protocol state
lives in per-register slots keyed by the messages' ``register_id``
(the paper's single register is the ``DEFAULT_REGISTER`` slot), so a fixed
replica set multiplexes a whole keyspace without extra processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ...automata.base import MultiRegisterObject, Outgoing, Sink
from ...config import SystemConfig
from ...messages import (Batch, EpochFence, Message, Pw, PwAck, ReadAck,
                         ReadRequest, TagQuery, TagQueryAck, W, WriteAck,
                         WriteBack, WriteBackAck)
from ...types import (DEFAULT_REGISTER, INITIAL_TSVAL, ProcessId,
                      TimestampValue, WriterTag, WriteTuple,
                      initial_write_tuple)


@dataclass
class SafeSlot:
    """Per-register state of one safe object (Figure 3, lines 1-2).

    ``(ts, wid)`` is the tag of the newest write round accepted; ``wid``
    is always 0 in single-writer systems.
    """

    ts: int
    pw: TimestampValue
    w: WriteTuple
    tsr: List[int]
    wid: int = 0

    @property
    def tag(self) -> WriterTag:
        return WriterTag(self.ts, self.wid)

    def top_tag(self) -> WriterTag:
        """The highest tag the slot holds in any field."""
        return max(self.tag, self.pw.tag, self.w.tag)


class SafeObject(MultiRegisterObject):
    """Figure 3: ``code of object s_i`` for the safe storage."""

    def __init__(self, object_index: int, config: SystemConfig):
        super().__init__(object_index)
        self.config = config

    def _new_slot(self) -> SafeSlot:
        # Initialization block (lines 1-2), per register.
        return SafeSlot(
            ts=0,
            pw=INITIAL_TSVAL,
            w=initial_write_tuple(self.config.num_objects,
                                  self.config.num_readers),
            tsr=[0] * self.config.num_readers,
        )

    # -- single-register compatibility views ----------------------------
    @property
    def ts(self) -> int:
        return self._slot(DEFAULT_REGISTER).ts

    @property
    def pw(self) -> TimestampValue:
        return self._slot(DEFAULT_REGISTER).pw

    @property
    def w(self) -> WriteTuple:
        return self._slot(DEFAULT_REGISTER).w

    @property
    def tsr(self) -> List[int]:
        return self._slot(DEFAULT_REGISTER).tsr

    # ------------------------------------------------------------------
    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if isinstance(message, Pw):
            reply = self._pw_reply(message)
        elif isinstance(message, W):
            reply = self._w_reply(message)
        elif isinstance(message, ReadRequest):
            reply = self._read_reply(message)
        elif isinstance(message, TagQuery):
            reply = self._tag_reply(message)
        elif isinstance(message, EpochFence):
            return self._on_epoch_fence(sender, message)
        elif isinstance(message, WriteBack) and sender.is_client:
            reply = self._write_back_reply(message)
        else:
            # Unknown traffic (e.g. probes from baselines wired
            # incorrectly) is ignored rather than crashing the object: a
            # storage element must never be taken down by a malformed
            # client message.
            return []
        return [] if reply is None else [(sender, reply)]

    def handle_batch(self, sender: ProcessId, parts: Tuple[Any, ...],
                     sink: Sink) -> Outgoing:
        """Vector fast path: per-register dispatch in a tight loop, all
        replies coalesced into one ack frame back to ``sender``."""
        leftovers: Outgoing = []
        append = sink.append
        for message in parts:
            kind = message.__class__
            if kind is Pw:
                reply = self._pw_reply(message)
            elif kind is W:
                reply = self._w_reply(message)
            elif kind is ReadRequest:
                reply = self._read_reply(message)
            elif kind is TagQuery:
                reply = self._tag_reply(message)
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

    # -- MWMR tag queries ------------------------------------------------
    def _tag_reply(self, message: TagQuery) -> TagQueryAck:
        top = self._slot(message.register_id).top_tag()
        return TagQueryAck(nonce=message.nonce,
                           object_index=self.object_index,
                           epoch=top.epoch, wid=top.writer_id,
                           register_id=message.register_id)

    # -- lines 3-7 -------------------------------------------------------
    def _pw_reply(self, message: Pw) -> Optional[Message]:
        # Fence short-circuit: empty unless a handoff ever retired a
        # register here, so the common case costs one truthiness check.
        if self.fences and message.register_id in self.fences:
            return self._fence_nack_msg(message.register_id,
                                        message.ts, message.wid)
        slot = self.slots.get(message.register_id)
        if slot is None:
            slot = self.slots[message.register_id] = self._new_slot()
        top = slot.top_tag()  # before this pre-write: the writer's check
        # Tag comparison inlined (epoch first, writer id tie-break): this
        # guard runs per message and tuple construction is measurable.
        if message.ts > slot.ts or (message.ts == slot.ts
                                    and message.wid > slot.wid):
            slot.ts = message.ts
            slot.wid = message.wid
            slot.pw = message.pw
            # The piggybacked previous tuple may lag what another writer
            # already completed here; never regress the w field.
            if message.w.tag > slot.w.tag:
                slot.w = message.w
        elif not self.config.is_multi_writer:
            return None  # figure semantics: stale traffic earns no reply
        return PwAck(ts=message.ts, object_index=self.object_index,
                     tsr=tuple(slot.tsr), top_epoch=top.epoch,
                     top_wid=top.writer_id,
                     register_id=message.register_id, wid=message.wid)

    # -- lines 8-12 ------------------------------------------------------
    def _w_reply(self, message: W) -> Optional[Message]:
        if self.fences and message.register_id in self.fences:
            return self._fence_nack_msg(message.register_id,
                                        message.ts, message.wid)
        slot = self.slots.get(message.register_id)
        if slot is None:
            slot = self.slots[message.register_id] = self._new_slot()
        if message.ts > slot.ts or (message.ts == slot.ts
                                    and message.wid >= slot.wid):
            slot.ts = message.ts
            slot.wid = message.wid
            slot.pw = message.pw
            slot.w = message.w
        elif not self.config.is_multi_writer:
            return None
        elif message.w.tag > slot.w.tag:
            # Losing writer's tuple is still news for the w field.
            slot.w = message.w
        return WriteAck(ts=message.ts,
                        object_index=self.object_index,
                        register_id=message.register_id,
                        wid=message.wid)

    def _write_back_reply(self, message: WriteBack) -> WriteBackAck:
        """Tag-only arbitration as for a ``W``, always acknowledged."""
        slot = self._slot(message.register_id)
        c = message.c
        if c.tag >= slot.tag:
            slot.ts, slot.wid = c.tag
            slot.pw = c.tsval
            slot.w = c
        elif c.tag > slot.w.tag:
            slot.w = c
        return WriteBackAck(nonce=message.nonce,
                            object_index=self.object_index,
                            register_id=message.register_id)

    # -- lines 13-17 -----------------------------------------------------
    def _read_reply(self, message: ReadRequest) -> Optional[ReadAck]:
        j = message.reader_index
        if not 0 <= j < self.config.num_readers:
            return None
        slot = self.slots.get(message.register_id)
        if slot is None:
            slot = self.slots[message.register_id] = self._new_slot()
        if message.tsr > slot.tsr[j]:
            slot.tsr[j] = message.tsr
            return ReadAck(
                round_index=message.round_index,
                tsr=slot.tsr[j],
                object_index=self.object_index,
                pw=slot.pw,
                w=slot.w,
                register_id=message.register_id,
            )
        return None

    # ------------------------------------------------------------------
    def describe_state(self) -> str:
        if not self.slots or set(self.slots) == {DEFAULT_REGISTER}:
            slot = self.slots.get(DEFAULT_REGISTER) or self._new_slot()
            return (f"s{self.object_index + 1}: ts={slot.ts}, "
                    f"pw={slot.pw!r}, w={slot.w!r}, tsr={slot.tsr}")
        return (f"s{self.object_index + 1}: "
                + "; ".join(f"{rid}: ts={slot.ts}, pw={slot.pw!r}"
                            for rid, slot in sorted(self.slots.items())))
