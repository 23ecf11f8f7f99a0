"""Automata of the passive-reader baseline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ...automata.base import (ClientOperation, MultiRegisterObject,
                              Outgoing)
from ...config import SystemConfig
from ...core.safe.object import SafeObject, SafeSlot
from ...core.safe.predicates import CandidateTracker
from ...core.safe.reader import install_write_back
from ...core.safe.writer import SafeWriterState, SafeWriteOperation
from ...errors import SimulationError
from ...messages import (EpochFence, Pw, PwAck, ReadAck, ReadRequest,
                         TagQuery, TagQueryAck, W, WriteAck, WriteBack)
from ...protocols import SAFE, StorageProtocol
from ...quorums import confirmation_threshold, elimination_threshold
from ...types import (BOTTOM, DEFAULT_REGISTER, INITIAL_TSVAL, TAG0,
                      ProcessId, TimestampValue, WriterTag, WriteTuple,
                      initial_write_tuple, obj, reader)


@dataclass
class PassiveSlot:
    """Per-register state: latest pw/w only (no reader timestamps)."""

    ts: int
    pw: TimestampValue
    w: WriteTuple
    wid: int = 0

    @property
    def tag(self) -> WriterTag:
        return WriterTag(self.ts, self.wid)

    top_tag = SafeSlot.top_tag


class PassiveObject(MultiRegisterObject):
    """Like :class:`~repro.core.safe.object.SafeObject` minus the ``tsr``
    fields: reads leave no trace in the object."""

    def __init__(self, object_index: int, config: SystemConfig):
        super().__init__(object_index)
        self.config = config

    def _new_slot(self) -> PassiveSlot:
        return PassiveSlot(
            ts=0,
            pw=INITIAL_TSVAL,
            w=initial_write_tuple(self.config.num_objects,
                                  self.config.num_readers),
        )

    @property
    def ts(self) -> int:
        return self._slot(DEFAULT_REGISTER).ts

    @property
    def pw(self) -> TimestampValue:
        return self._slot(DEFAULT_REGISTER).pw

    @property
    def w(self) -> WriteTuple:
        return self._slot(DEFAULT_REGISTER).w

    #: replica repair's installs, arbitrated by tag as for a ``W``.
    _write_back_reply = SafeObject._write_back_reply

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if isinstance(message, EpochFence):
            return self._on_epoch_fence(sender, message)
        if isinstance(message, WriteBack) and sender.is_client:
            return [(sender, self._write_back_reply(message))]
        if isinstance(message, (Pw, W)) and self._fence_rejects(
                message.register_id):
            return self._fence_nack(sender, message.register_id,
                                    message.ts, message.wid)
        if isinstance(message, Pw):
            slot = self._slot(message.register_id)
            top = slot.top_tag()  # before this pre-write
            if message.tag > slot.tag:
                slot.ts = message.ts
                slot.wid = message.wid
                slot.pw = message.pw
                if message.w.tag > slot.w.tag:
                    slot.w = message.w
            elif not self.config.is_multi_writer:
                return []
            # No reader timestamps to report: an all-zero row.
            return [(sender, PwAck(
                ts=message.ts, object_index=self.object_index,
                tsr=(0,) * self.config.num_readers,
                top_epoch=top.epoch, top_wid=top.writer_id,
                register_id=message.register_id, wid=message.wid))]
        if isinstance(message, W):
            slot = self._slot(message.register_id)
            if message.tag >= slot.tag:
                slot.ts = message.ts
                slot.wid = message.wid
                slot.pw = message.pw
                slot.w = message.w
            elif not self.config.is_multi_writer:
                return []
            elif message.w.tag > slot.w.tag:
                slot.w = message.w
            return [(sender, WriteAck(ts=message.ts,
                                      object_index=self.object_index,
                                      register_id=message.register_id,
                                      wid=message.wid))]
        if isinstance(message, TagQuery):
            top = self._slot(message.register_id).top_tag()
            return [(sender, TagQueryAck(
                nonce=message.nonce, object_index=self.object_index,
                epoch=top.epoch, wid=top.writer_id,
                register_id=message.register_id))]
        if isinstance(message, ReadRequest):
            # Stateless with respect to readers: always answer, echoing the
            # request nonce so the reader can match rounds.
            slot = self._slot(message.register_id)
            return [(sender, ReadAck(round_index=message.round_index,
                                     tsr=message.tsr,
                                     object_index=self.object_index,
                                     pw=slot.pw, w=slot.w,
                                     register_id=message.register_id))]
        return []


class PassiveReaderState:
    def __init__(self, config: SystemConfig, reader_index: int):
        self.config = config
        self.reader_index = reader_index
        self._nonce = 0

    def next_nonce(self) -> int:
        self._nonce += 1
        return self._nonce


class PassiveReadOperation(ClientOperation):
    """Accumulating multi-round read; rounds grow with Byzantine effort."""

    kind = "READ"
    #: the tuple this READ returned (``None`` for ⊥), for replica repair.
    returned: Optional[WriteTuple] = None

    def __init__(self, state: PassiveReaderState, max_rounds: int = 64):
        super().__init__(reader(state.reader_index))
        self.state = state
        self.config = state.config
        self.max_rounds = max_rounds
        self.tracker = CandidateTracker(
            elimination_threshold=elimination_threshold(self.config),
            confirmation_threshold=confirmation_threshold(self.config),
        )
        self.round_index = 0
        self._round_nonce: Dict[int, int] = {}
        self._round_acks: Dict[int, set] = {}

    # ------------------------------------------------------------------
    def start(self) -> Outgoing:
        return self._broadcast_round()

    def _broadcast_round(self) -> Outgoing:
        self.round_index += 1
        if self.round_index > self.max_rounds:
            raise SimulationError(
                f"passive read exceeded {self.max_rounds} rounds; the "
                "schedule starves correct objects' replies indefinitely")
        nonce = self.state.next_nonce()
        self._round_nonce[self.round_index] = nonce
        self._round_acks[self.round_index] = set()
        self.begin_round()
        request = ReadRequest(round_index=self.round_index, tsr=nonce,
                              reader_index=self.state.reader_index,
                              register_id=self.register_id)
        return [(obj(i), request) for i in range(self.config.num_objects)]

    # ------------------------------------------------------------------
    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if self.done or not isinstance(message, ReadAck):
            return []
        if message.register_id != self.register_id:
            return []
        rnd = message.round_index
        if rnd not in self._round_nonce:
            return []
        if message.tsr != self._round_nonce[rnd]:
            return []
        i = sender.index
        # Evidence accumulates across every round (passive readers have
        # nothing else); candidates enter C in any round.
        self.tracker.record_first_round(i, message.pw, message.w)
        self._round_acks[rnd].add(i)
        self._maybe_return()
        if self.done:
            return []
        # A full quorum answered the *current* round with no verdict: the
        # only remaining move is another round.
        if (rnd == self.round_index
                and len(self._round_acks[rnd]) >= self.config.quorum_size):
            return self._broadcast_round()
        return []

    def _maybe_return(self) -> None:
        candidate = self.tracker.returnable()
        if candidate is not None:
            self.tag = candidate.tag
            self.returned = candidate
            self.complete(candidate.tsval.value)
            return
        if (self.tracker._candidates  # has ever seen candidates
                and self.tracker.candidates_empty()):
            self.tag = TAG0
            self.complete(BOTTOM)

    install_frame = install_write_back


class PassiveReaderProtocol(StorageProtocol):
    """Safe storage with passive readers (E7's ``b + 1``-round row)."""

    name = "passive-reader"
    semantics = SAFE
    write_rounds_worst_case = 2
    #: worst case proven by [1] for S < 2t + 2b + 1; see the module doc.
    read_rounds_worst_case = -1  # "b + 1": depends on b; see reads_bound()
    requires_authentication = False
    readers_write = False

    @staticmethod
    def read_rounds_bound(b: int) -> int:
        return b + 1

    def min_objects(self, t: int, b: int) -> int:
        return 2 * t + b + 1

    def make_objects(self, config: SystemConfig) -> List[PassiveObject]:
        self.validate_config(config)
        return [PassiveObject(i, config) for i in range(config.num_objects)]

    def make_writer_state(self, config: SystemConfig) -> SafeWriterState:
        return SafeWriterState(config)

    def make_reader_state(self, config: SystemConfig,
                          reader_index: int) -> PassiveReaderState:
        return PassiveReaderState(config, reader_index)

    def make_write(self, writer_state: SafeWriterState,
                   value: Any) -> SafeWriteOperation:
        return SafeWriteOperation(writer_state, value)

    def make_read(self, reader_state: PassiveReaderState
                  ) -> PassiveReadOperation:
        return PassiveReadOperation(reader_state)
