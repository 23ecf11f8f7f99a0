"""Automata of the authenticated one-round storage."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from ...automata.base import (ClientOperation, MultiRegisterObject,
                              Outgoing)
from ...automata.rounds import TagDiscovery
from ...config import SystemConfig
from ...crypto_sim import PublicKey, SignedValue, Signer
from ...errors import FencedWriteError, ProtocolError
from ...messages import (EpochFence, Message, TagQuery, TagQueryAck,
                         WriteFenced)
from ...protocols import REGULAR, StorageProtocol
from ...types import (BOTTOM, DEFAULT_REGISTER, INITIAL_TSVAL, TAG0,
                      ProcessId, TimestampValue, WRITER, WriterTag,
                      _Bottom, obj, reader, writer)


@dataclass(frozen=True, slots=True)
class AuthStore(Message):
    signed: SignedValue  # signed TimestampValue
    nonce: int
    register_id: str = DEFAULT_REGISTER
    wire = (68, "nonce:i64 register_id:str signed:signed")


@dataclass(frozen=True, slots=True)
class AuthStoreAck(Message):
    nonce: int
    register_id: str = DEFAULT_REGISTER
    wire = (69, "nonce:i64 register_id:str")


@dataclass(frozen=True, slots=True)
class AuthQuery(Message):
    nonce: int
    register_id: str = DEFAULT_REGISTER
    wire = (70, "nonce:i64 register_id:str")


@dataclass(frozen=True, slots=True)
class AuthQueryAck(Message):
    nonce: int
    signed: Optional[SignedValue]
    register_id: str = DEFAULT_REGISTER
    wire = (71, "nonce:i64 register_id:str signed:signed")


class AuthSlot:
    """Per-register state: the highest-tagged signed pair seen."""

    __slots__ = ("signed",)

    def __init__(self) -> None:
        self.signed: Optional[SignedValue] = None

    def current_tag(self):
        if self.signed is None:
            return TAG0
        payload = self.signed.payload
        return payload.tag if isinstance(payload, TimestampValue) else TAG0

    def current_ts(self) -> int:
        return self.current_tag().epoch


class AuthObject(MultiRegisterObject):
    """Stores the signed pair with the highest timestamp it has seen.

    The object does *not* need to verify signatures itself (a Byzantine
    object would skip verification anyway); readers verify.
    """

    def __init__(self, object_index: int, config: SystemConfig):
        super().__init__(object_index)
        self.config = config

    def _new_slot(self) -> AuthSlot:
        return AuthSlot()

    @property
    def signed(self) -> Optional[SignedValue]:
        return self._slot(DEFAULT_REGISTER).signed

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if isinstance(message, AuthStore):
            payload = message.signed.payload
            if (isinstance(payload, TimestampValue)
                    and self._fence_rejects(message.register_id)):
                return self._fence_nack(sender, message.register_id,
                                        payload.ts, payload.wid,
                                        nonce=message.nonce)
            slot = self._slot(message.register_id)
            if (isinstance(payload, TimestampValue)
                    and payload.tag > slot.current_tag()):
                slot.signed = message.signed
            return [(sender, AuthStoreAck(nonce=message.nonce,
                                          register_id=message.register_id))]
        if isinstance(message, EpochFence):
            return self._on_epoch_fence(sender, message)
        if isinstance(message, AuthQuery):
            slot = self._slot(message.register_id)
            return [(sender, AuthQueryAck(nonce=message.nonce,
                                          signed=slot.signed,
                                          register_id=message.register_id))]
        if isinstance(message, TagQuery):
            # The protocol-agnostic tag probe every object answers (the
            # multiproc supervisor's health ping rides it).
            tag = self._slot(message.register_id).current_tag()
            return [(sender, TagQueryAck(nonce=message.nonce,
                                         object_index=self.object_index,
                                         epoch=tag.epoch,
                                         wid=tag.writer_id,
                                         register_id=message.register_id))]
        return []


class AuthWriterState:
    def __init__(self, config: SystemConfig, signer: Signer,
                 writer_index: int = 0):
        self.config = config
        self.signer = signer
        self.writer_index = writer_index
        self.ts = 0
        self._nonce = 0

    def next_nonce(self) -> int:
        self._nonce += 1
        return self._nonce


class AuthReaderState:
    def __init__(self, config: SystemConfig, reader_index: int,
                 public_key: PublicKey,
                 key_ring: Optional[Dict[str, PublicKey]] = None):
        self.config = config
        self.reader_index = reader_index
        self.public_key = public_key
        #: key_id -> verification key for every legitimate writer (MWMR);
        #: defaults to the single writer's key.
        self.key_ring = key_ring or {public_key.key_id: public_key}
        self._nonce = 0

    def next_nonce(self) -> int:
        self._nonce += 1
        return self._nonce


class AuthWriteOperation(ClientOperation):
    """Sign <tag, v>, install at ``S - t`` objects.

    Single-writer: one round.  Multi-writer: a query round discovers the
    maximum tag first (reports are advisory for epoch choice only -- the
    signature, not the report, is what readers trust).
    """

    kind = "WRITE"

    def __init__(self, state: AuthWriterState, value: Any):
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
            message = AuthQuery(nonce=self.query_nonce,
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
        signed = self.state.signer.sign(tsval)
        self.begin_round()
        message = AuthStore(signed=signed, nonce=self.nonce,
                            register_id=self.register_id)
        return [(obj(i), message) for i in range(self.config.num_objects)]

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if self.done:
            return []
        if (self.phase == "query" and isinstance(message, AuthQueryAck)
                and self.discovery is not None
                and message.register_id == self.register_id):
            # Reports are advisory for epoch choice only (the signature,
            # not the report, is what readers trust); unsigned or
            # malformed reports count toward the quorum at the floor tag.
            signed = message.signed
            tag = (signed.payload.tag
                   if signed is not None
                   and isinstance(signed.payload, TimestampValue)
                   else TAG0)
            self.discovery.offer(sender.index, message.nonce, tag)
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
        if not isinstance(message, AuthStoreAck):
            return []
        if self.phase != "store" or message.nonce != self.nonce \
                or message.register_id != self.register_id:
            return []
        self._ackers.add(sender.index)
        if len(self._ackers) >= self.config.quorum_size:
            return self.complete("OK")
        return []


class AuthReadOperation(ClientOperation):
    """One round: highest *validly signed* pair among ``S - t`` replies."""

    kind = "READ"

    def __init__(self, state: AuthReaderState):
        super().__init__(reader(state.reader_index))
        self.state = state
        self.config = state.config
        self.nonce = 0
        self._answers: Dict[int, Optional[SignedValue]] = {}
        self.rejected_forgeries = 0
        #: the validly signed pair this read returned (None for ⊥).
        self.returned: Optional[SignedValue] = None

    def start(self) -> Outgoing:
        self.nonce = self.state.next_nonce()
        self.begin_round()
        message = AuthQuery(nonce=self.nonce, register_id=self.register_id)
        return [(obj(i), message) for i in range(self.config.num_objects)]

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if self.done or not isinstance(message, AuthQueryAck):
            return []
        if message.nonce != self.nonce or sender.index in self._answers \
                or message.register_id != self.register_id:
            return []
        self._answers[sender.index] = message.signed
        if len(self._answers) >= self.config.quorum_size:
            return self.complete(self._select())
        return []

    def _select(self) -> Any:
        best: Optional[SignedValue] = None
        for signed in self._answers.values():
            if signed is None:
                continue
            key = self.state.key_ring.get(signed.key_id)
            if key is None or not key.verify(signed):
                self.rejected_forgeries += 1
                continue
            payload = signed.payload
            if not isinstance(payload, TimestampValue):
                self.rejected_forgeries += 1
                continue
            if best is None or payload.tag > best.payload.tag:
                best = signed
        self.returned = best
        self.tag = best.payload.tag if best is not None else TAG0
        return best.payload.value if best is not None else BOTTOM

    def install_frame(self, nonce: int,
                      relocated: bool = False) -> Optional[AuthStore]:
        if self.returned is None:
            return None
        return AuthStore(signed=self.returned, nonce=nonce,
                         register_id=self.register_id)


class AuthenticatedProtocol(StorageProtocol):
    """Signed data: fast reads *and* writes at optimal resilience."""

    name = "authenticated"
    semantics = REGULAR
    write_rounds_worst_case = 1
    read_rounds_worst_case = 1
    requires_authentication = True
    readers_write = False

    def __init__(self, key_seed: int = 0):
        self._key_seed = key_seed
        # Writer 0 keeps the historical key id "writer" so existing
        # signatures, traces and tests stay byte-identical.
        self._signers: Dict[int, Signer] = {
            0: Signer("writer", seed=key_seed)}

    def _signer_for(self, writer_index: int) -> Signer:
        signer = self._signers.get(writer_index)
        if signer is None:
            signer = self._signers[writer_index] = Signer(
                f"writer{writer_index}", seed=self._key_seed + writer_index)
        return signer

    def _key_ring(self, config: SystemConfig) -> Dict[str, PublicKey]:
        ring: Dict[str, PublicKey] = {}
        for k in range(config.num_writers):
            key = self._signer_for(k).public_key()
            ring[key.key_id] = key
        return ring

    def min_objects(self, t: int, b: int) -> int:
        return 2 * t + b + 1

    def make_objects(self, config: SystemConfig) -> List[AuthObject]:
        self.validate_config(config)
        return [AuthObject(i, config) for i in range(config.num_objects)]

    def make_writer_state(self, config: SystemConfig) -> AuthWriterState:
        return AuthWriterState(config, self._signer_for(0))

    def make_writer_state_for(self, config: SystemConfig,
                              writer_index: int = 0) -> AuthWriterState:
        return AuthWriterState(config, self._signer_for(writer_index),
                               writer_index=writer_index)

    def make_reader_state(self, config: SystemConfig,
                          reader_index: int) -> AuthReaderState:
        return AuthReaderState(config, reader_index,
                               self._signer_for(0).public_key(),
                               key_ring=self._key_ring(config))

    def make_write(self, writer_state: AuthWriterState,
                   value: Any) -> AuthWriteOperation:
        return AuthWriteOperation(writer_state, value)

    def make_read(self, reader_state: AuthReaderState) -> AuthReadOperation:
        return AuthReadOperation(reader_state)
