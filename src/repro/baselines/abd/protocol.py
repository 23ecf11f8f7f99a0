"""ABD protocol automata (crash-only majority storage)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from ...automata.base import (ClientOperation, MultiRegisterObject,
                              Outgoing)
from ...automata.rounds import TagDiscovery
from ...config import SystemConfig
from ...errors import (ConfigurationError, FencedWriteError,
                       ProtocolError)
from ...messages import (EpochFence, Message, TagQuery, TagQueryAck,
                         WriteFenced)
from ...protocols import ATOMIC, REGULAR, StorageProtocol
from ...types import (BOTTOM, DEFAULT_REGISTER, INITIAL_TSVAL, TAG0,
                      ProcessId, TimestampValue, WRITER, WriterTag, _Bottom,
                      obj, reader, writer)


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AbdStore(Message):
    """Install <ts, v> (used by the writer, read write-backs and heals).

    ``write_back`` distinguishes a reader's write-back from a writer's
    store: fences (reconfiguration) refuse writer stores but let
    write-backs through -- a write-back only re-installs a tag a read
    returned, so it cannot smuggle a new write past a fence.
    """

    tsval: TimestampValue
    nonce: int
    register_id: str = DEFAULT_REGISTER
    write_back: bool = False
    wire = (64, "write_back:flags nonce:i64 register_id:str tsval:tsval")


@dataclass(frozen=True, slots=True)
class AbdStoreAck(Message):
    nonce: int
    ts: int
    register_id: str = DEFAULT_REGISTER
    wire = (65, "nonce:i64 4x ts:i64 register_id:str")


@dataclass(frozen=True, slots=True)
class AbdQuery(Message):
    nonce: int
    register_id: str = DEFAULT_REGISTER
    wire = (66, "nonce:i64 register_id:str")


@dataclass(frozen=True, slots=True)
class AbdQueryAck(Message):
    nonce: int
    tsval: TimestampValue
    register_id: str = DEFAULT_REGISTER
    wire = (67, "nonce:i64 register_id:str tsval:value")


# ---------------------------------------------------------------------------
# Object
# ---------------------------------------------------------------------------


class AbdSlot:
    """Per-register state: the latest timestamp-value pair."""

    __slots__ = ("tsval",)

    def __init__(self) -> None:
        self.tsval: TimestampValue = INITIAL_TSVAL


class AbdObject(MultiRegisterObject):
    """Latest timestamp-value pair per register, monotone in the tag.

    Arbitration compares the full ``(epoch, writer_id)`` tag, which makes
    the object multi-writer ready for free: the store is always
    acknowledged (classic ABD), adoption happens only for strictly newer
    tags.
    """

    def __init__(self, object_index: int, config: SystemConfig):
        super().__init__(object_index)
        self.config = config

    def _new_slot(self) -> AbdSlot:
        return AbdSlot()

    @property
    def tsval(self) -> TimestampValue:
        return self._slot(DEFAULT_REGISTER).tsval

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if isinstance(message, AbdStore):
            if (not message.write_back
                    and self._fence_rejects(message.register_id)):
                return self._fence_nack(sender, message.register_id,
                                        message.tsval.ts,
                                        message.tsval.wid,
                                        nonce=message.nonce)
            slot = self._slot(message.register_id)
            if message.tsval.tag > slot.tsval.tag:
                slot.tsval = message.tsval
            return [(sender, AbdStoreAck(nonce=message.nonce,
                                         ts=slot.tsval.ts,
                                         register_id=message.register_id))]
        if isinstance(message, EpochFence):
            return self._on_epoch_fence(sender, message)
        if isinstance(message, AbdQuery):
            slot = self._slot(message.register_id)
            return [(sender, AbdQueryAck(nonce=message.nonce,
                                         tsval=slot.tsval,
                                         register_id=message.register_id))]
        if isinstance(message, TagQuery):
            # The protocol's own discovery speaks AbdQuery; TagQuery is
            # the protocol-agnostic tag probe every object answers (the
            # multiproc supervisor's health ping rides it).
            tag = self._slot(message.register_id).tsval.tag
            return [(sender, TagQueryAck(nonce=message.nonce,
                                         object_index=self.object_index,
                                         epoch=tag.epoch,
                                         wid=tag.writer_id,
                                         register_id=message.register_id))]
        return []


# ---------------------------------------------------------------------------
# Client operations
# ---------------------------------------------------------------------------


class AbdWriterState:
    def __init__(self, config: SystemConfig, writer_index: int = 0):
        self.config = config
        self.writer_index = writer_index
        self.ts = 0
        self._nonce = 0

    def next_nonce(self) -> int:
        self._nonce += 1
        return self._nonce


class AbdReaderState:
    def __init__(self, config: SystemConfig, reader_index: int):
        self.config = config
        self.reader_index = reader_index
        self._nonce = 0

    def next_nonce(self) -> int:
        self._nonce += 1
        return self._nonce


class AbdWriteOperation(ClientOperation):
    """Write: store <tag, v> at a majority.

    Single-writer: one round (the local counter is authoritative).
    Multi-writer: the classic two-phase ABD write -- query a majority for
    the maximum tag, bump the epoch (tie-break on writer id), then store.
    """

    kind = "WRITE"

    def __init__(self, state: AbdWriterState, value: Any):
        super().__init__(writer(state.writer_index))
        if isinstance(value, _Bottom):
            raise ProtocolError("⊥ is not a valid input value for WRITE")
        self.state = state
        self.config = state.config
        self.value = value
        self.wid = state.writer_index
        self.discover_tag = state.config.is_multi_writer
        self.phase = "query" if self.discover_tag else "store"
        self.nonce = 0
        self.query_nonce = 0
        self.discovery: Optional[TagDiscovery] = None
        self._ackers: Set[int] = set()
        self._fencers: Set[int] = set()

    def start(self) -> Outgoing:
        if self.discover_tag:
            self.query_nonce = self.state.next_nonce()
            self.discovery = TagDiscovery(
                nonce=self.query_nonce,
                quorum=self.config.quorum_size,
                writer_id=self.wid,
                floor=WriterTag(self.state.ts, self.wid),
            )
            self.begin_round()
            message = AbdQuery(nonce=self.query_nonce,
                               register_id=self.register_id)
            return [(obj(i), message)
                    for i in range(self.config.num_objects)]
        return self._start_store(self.state.ts + 1)

    def _start_store(self, epoch: int) -> Outgoing:
        self.phase = "store"
        self.state.ts = epoch
        self.nonce = self.state.next_nonce()
        tsval = TimestampValue(epoch, self.value, wid=self.wid)
        self.tag = tsval.tag
        message = AbdStore(tsval=tsval, nonce=self.nonce,
                           register_id=self.register_id)
        self.begin_round()
        return [(obj(i), message) for i in range(self.config.num_objects)]

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if self.done:
            return []
        if (self.phase == "query" and isinstance(message, AbdQueryAck)
                and self.discovery is not None
                and message.register_id == self.register_id):
            self.discovery.offer(sender.index, message.nonce,
                                 message.tsval.tag)
            if self.discovery.ready():
                return self._start_store(self.discovery.chosen_tag().epoch)
            return []
        if isinstance(message, WriteFenced):
            if (self.phase == "store" and message.nonce == self.nonce
                    and message.register_id == self.register_id):
                self._fencers.add(sender.index)
                if len(self._fencers) > self.config.b:
                    raise FencedWriteError(
                        f"WRITE#{self.operation_id} on "
                        f"{self.register_id!r} (epoch {self.state.ts}) "
                        f"refused by epoch fence {message.fence_epoch}")
            return []
        if not isinstance(message, AbdStoreAck):
            return []
        if self.phase != "store" or message.nonce != self.nonce \
                or message.register_id != self.register_id:
            return []
        self._ackers.add(sender.index)
        if len(self._ackers) >= self.config.quorum_size:
            return self.complete("OK")
        return []


class AbdReadOperation(ClientOperation):
    """Query a majority; atomically write back before returning if asked."""

    kind = "READ"

    def __init__(self, state: AbdReaderState, write_back: bool):
        super().__init__(reader(state.reader_index))
        self.state = state
        self.config = state.config
        self.write_back = write_back
        self.phase = "query"
        self.nonce = 0
        self.wb_nonce = 0
        self._answers: Dict[int, TimestampValue] = {}
        self._wb_ackers: Set[int] = set()
        self._chosen: TimestampValue = INITIAL_TSVAL

    def start(self) -> Outgoing:
        self.nonce = self.state.next_nonce()
        self.begin_round()
        message = AbdQuery(nonce=self.nonce, register_id=self.register_id)
        return [(obj(i), message) for i in range(self.config.num_objects)]

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if self.done:
            return []
        if getattr(message, "register_id", self.register_id) \
                != self.register_id:
            return []
        if (self.phase == "query" and isinstance(message, AbdQueryAck)
                and message.nonce == self.nonce):
            if sender.index in self._answers:
                return []
            self._answers[sender.index] = message.tsval
            if len(self._answers) >= self.config.quorum_size:
                self._chosen = max(self._answers.values(),
                                   key=lambda tv: tv.tag)
                self.tag = self._chosen.tag
                if not self.write_back or self._chosen.ts == 0:
                    return self.complete(self._chosen.value)
                return self._start_write_back()
            return []
        if (self.phase == "write-back" and isinstance(message, AbdStoreAck)
                and message.nonce == self.wb_nonce):
            self._wb_ackers.add(sender.index)
            if len(self._wb_ackers) >= self.config.quorum_size:
                return self.complete(self._chosen.value)
        return []

    def install_frame(self, nonce: int,
                      relocated: bool = False) -> Optional[AbdStore]:
        if self._chosen.tag == TAG0:
            return None
        return AbdStore(tsval=self._chosen, nonce=nonce,
                        register_id=self.register_id, write_back=True)

    def _start_write_back(self) -> Outgoing:
        """Atomicity: install the chosen value at a majority first."""
        self.phase = "write-back"
        self.wb_nonce = self.state.next_nonce()
        self.begin_round()
        message = AbdStore(tsval=self._chosen, nonce=self.wb_nonce,
                           register_id=self.register_id, write_back=True)
        return [(obj(i), message) for i in range(self.config.num_objects)]


# ---------------------------------------------------------------------------
# Protocol plug-ins
# ---------------------------------------------------------------------------


class AbdRegularProtocol(StorageProtocol):
    """ABD with one-round reads: regular semantics, crash-only."""

    name = "abd-regular"
    semantics = REGULAR
    write_rounds_worst_case = 1
    read_rounds_worst_case = 1
    requires_authentication = False
    readers_write = False

    write_back = False

    def min_objects(self, t: int, b: int) -> int:
        return 2 * t + 1

    def validate_config(self, config: SystemConfig) -> None:
        super().validate_config(config)
        if config.b != 0:
            raise ConfigurationError(
                f"{self.name} tolerates crash failures only (b=0); "
                f"got b={config.b}")

    def make_objects(self, config: SystemConfig) -> List[AbdObject]:
        self.validate_config(config)
        return [AbdObject(i, config) for i in range(config.num_objects)]

    def make_writer_state(self, config: SystemConfig) -> AbdWriterState:
        return AbdWriterState(config)

    def make_writer_state_for(self, config: SystemConfig,
                              writer_index: int = 0) -> AbdWriterState:
        return AbdWriterState(config, writer_index=writer_index)

    def make_reader_state(self, config: SystemConfig,
                          reader_index: int) -> AbdReaderState:
        return AbdReaderState(config, reader_index)

    def make_write(self, writer_state: AbdWriterState,
                   value: Any) -> AbdWriteOperation:
        return AbdWriteOperation(writer_state, value)

    def make_read(self, reader_state: AbdReaderState) -> AbdReadOperation:
        return AbdReadOperation(reader_state, write_back=self.write_back)


class AbdAtomicProtocol(AbdRegularProtocol):
    """ABD with write-back reads: atomic semantics, 2-round reads."""

    name = "abd-atomic"
    semantics = ATOMIC
    read_rounds_worst_case = 2
    readers_write = True  # the write-back mutates object state
    write_back = True
