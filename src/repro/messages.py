"""Protocol message schema and size accounting.

Message classes mirror the message types of the paper's figures:

* Figure 2/3 (write protocol): :class:`Pw`, :class:`PwAck`, :class:`W`,
  :class:`WriteAck`;
* Figure 3/4 (safe read): :class:`ReadRequest` (READ1/READ2) and
  :class:`ReadAck` (READ1_ACK/READ2_ACK) carrying ``pw`` and ``w`` fields;
* Figure 5/6 (regular read): :class:`HistoryReadAck` carrying a slice of the
  object's history.

Baseline protocols define their own payloads in their subpackages; they all
derive from :class:`Message` so the simulator and the metrics pipeline treat
them uniformly.

Every class that travels as a frame declares its kind byte and wire
layout next to its fields (``wire``, see :mod:`repro.runtime.codec`).

Sizes are *estimates* in bytes computed structurally (integers count 8
bytes, strings their length, containers the sum of their parts).  Absolute
values are unimportant; what matters for experiment E6 is the *relative*
growth of full-history versus suffix-shipping messages.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .types import (DEFAULT_REGISTER, TimestampValue, TsrArray, WriterTag,
                    WriteTuple, _Bottom, as_tag)


def estimate_size(value: Any) -> int:
    """Structural size estimate (bytes) of a message payload component."""
    if value is None or isinstance(value, _Bottom):
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, TimestampValue):
        return 8 + estimate_size(value.value)
    if isinstance(value, TsrArray):
        return 8 * value.num_objects * value.num_readers
    if isinstance(value, WriteTuple):
        return estimate_size(value.tsval) + estimate_size(value.tsrarray)
    if isinstance(value, Mapping):
        return sum(
            estimate_size(k) + estimate_size(v) for k, v in value.items()
        )
    if isinstance(value, (tuple, list, set, frozenset)):
        return sum(estimate_size(item) for item in value)
    if isinstance(value, Message):
        return value.estimated_size()
    # Fallback: be generous rather than crash on exotic payloads.
    return len(repr(value))


@dataclass(frozen=True)
class Message:
    """Base class of every protocol payload.

    Subclasses are frozen dataclasses; the simulator treats payloads as
    opaque immutable values.  ``kind`` is a stable name used in traces.
    The base declares empty
    ``__slots__`` so subclasses may opt into slotted layouts (histories
    ship millions of :class:`HistoryEntry` instances).
    """

    __slots__ = ()

    @property
    def kind(self) -> str:
        return type(self).__name__

    def estimated_size(self) -> int:
        total = 2  # type tag
        for f in fields(self):
            total += estimate_size(getattr(self, f.name))
        return total


def register_of(payload: Any) -> str:
    """The register a payload addresses.

    Payloads without a ``register_id`` field (legacy tests, lower-bound
    victim messages, raw probe values) belong to the default register, so
    every pre-multiplexing caller keeps its behaviour.
    """
    return getattr(payload, "register_id", DEFAULT_REGISTER)


# ---------------------------------------------------------------------------
# Write protocol (Figure 2 / Figure 3) -- shared by safe and regular storage
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Pw(Message):
    """First write round, ``PW<ts, pw, w>``.

    Carries the *new* timestamp-value pair ``pw`` and the *previous* write's
    tuple ``w`` (so even objects that missed the previous W round learn it).
    ``wid`` is the writer id of the MWMR tag ``(ts, wid)``; writer 0 is
    the single-writer case.
    """

    ts: int
    pw: TimestampValue
    w: WriteTuple
    register_id: str = DEFAULT_REGISTER
    wid: int = 0
    wire = (1, "ts:i64 wid:u32 register_id:str pw:tsval w:wtuple")

    @property
    def tag(self) -> WriterTag:
        return WriterTag(self.ts, self.wid)


@dataclass(frozen=True, slots=True)
class PwAck(Message):
    """``PW_ACK_i<ts, tsr>``: object ``i`` reports its reader timestamps."""

    ts: int
    object_index: int
    tsr: Tuple[int, ...]
    register_id: str = DEFAULT_REGISTER
    wid: int = 0
    wire = (3, "ts:i64 wid:u32 object_index:u32 tsr:cells register_id:str")


@dataclass(frozen=True, slots=True)
class W(Message):
    """Second write round, ``W<ts, pw, w>`` with the completed tuple ``w``."""

    ts: int
    pw: TimestampValue
    w: WriteTuple
    register_id: str = DEFAULT_REGISTER
    wid: int = 0
    wire = (2, "ts:i64 wid:u32 register_id:str pw:tsval w:wtuple")

    @property
    def tag(self) -> WriterTag:
        return WriterTag(self.ts, self.wid)


@dataclass(frozen=True, slots=True)
class WriteAck(Message):
    """``WRITE_ACK_i<ts>``."""

    ts: int
    object_index: int
    register_id: str = DEFAULT_REGISTER
    wid: int = 0
    wire = (4, "ts:i64 wid:u32 object_index:u32 register_id:str")


# ---------------------------------------------------------------------------
# Tag discovery (MWMR write path, round 0)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TagQuery(Message):
    """Writer-to-object: report the highest write tag you hold.

    The MWMR read-timestamp phase: before installing a value a writer asks
    a quorum for the maximum ``(epoch, writer_id)`` tag, bumps the epoch,
    and tie-breaks with its own writer id.  ``nonce`` matches acks to the
    issuing operation (operation ids are process-wide unique).
    """

    nonce: int
    register_id: str = DEFAULT_REGISTER
    wire = (5, "nonce:i64 register_id:str")


@dataclass(frozen=True, slots=True)
class TagQueryAck(Message):
    """``TAG_ACK_i<epoch, wid>``: the highest tag object ``i`` holds."""

    nonce: int
    object_index: int
    epoch: int
    wid: int = 0
    register_id: str = DEFAULT_REGISTER
    wire = (6, "nonce:i64 object_index:u32 epoch:i64 wid:u32 register_id:str")

    @property
    def tag(self) -> WriterTag:
        return WriterTag(self.epoch, self.wid)


# ---------------------------------------------------------------------------
# Tag leases (contention-adaptive fast reads)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LeaseProbe(Message):
    """Reader-to-object: is the tag I hold still the newest?

    The fast-read round.  A reader holding a certified tag ``(epoch, wid)``
    -- from a prior read, a write ack, or a snapshot collect -- broadcasts
    one probe instead of running full history collection.  Objects answer
    with their top tag, whether they hold the probed write *complete*, and
    whether the register is fenced; the reader's lease validation
    (:class:`~repro.automata.rounds.LeaseValidation`) decides fast-return
    versus classic fallback.  ``nonce`` matches acks to the probe (the
    reader's own ``tsr`` counter); probes never mutate object state.
    """

    nonce: int
    epoch: int
    reader_index: int
    wid: int = 0
    register_id: str = DEFAULT_REGISTER
    wire = (14, "nonce:i64 epoch:i64 wid:u32 reader_index:u32 register_id:str")

    @property
    def tag(self) -> WriterTag:
        return WriterTag(self.epoch, self.wid)


@dataclass(frozen=True, slots=True)
class LeaseProbeAck(Message):
    """``LEASE_ACK_i<top_tag, holds, fenced>``: object ``i``'s lease verdict.

    ``epoch``/``wid`` report the object's *top* tag (its slot tag joined
    with the maximum history tag -- exactly what a
    :class:`TagQueryAck` reports).  ``holds`` is whether the object's
    history holds the *probed* tag with a complete write tuple, and
    ``fenced`` whether the register is (hard- or epoch-)fenced here.  Any
    top tag above the probed one, or any fence, refutes the lease.
    """

    nonce: int
    object_index: int
    epoch: int
    wid: int = 0
    holds: bool = False
    fenced: bool = False
    register_id: str = DEFAULT_REGISTER
    wire = (15, "nonce:i64 object_index:u32 epoch:i64 wid:u32 "
                "holds|fenced:flags register_id:str")

    @property
    def tag(self) -> WriterTag:
        return WriterTag(self.epoch, self.wid)


# ---------------------------------------------------------------------------
# Epoch fencing (reconfiguration / shard handoff)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EpochFence(Message):
    """Coordinator-to-object: refuse write rounds below ``epoch``.

    Installed during a shard handoff (:mod:`repro.service.reconfig`):
    after a quorum acknowledges the fence, no write with tag epoch
    ``< epoch`` can gather a quorum on this register, so the coordinator
    may snapshot and replay the register elsewhere without losing a
    completed write.  Fences only ever ratchet upward.

    ``hard`` retires the register at this replica set outright: *every*
    write round is refused, whatever its epoch.  Handoffs to another
    replica set use hard fences -- concurrent writers can chain tag
    discoveries past any finite epoch margin, but no epoch passes a
    hard fence.  Epoch fences remain for same-store re-installs
    (replica healing), where the coordinator's own replay must still
    get through.

    ``lift`` is the inverse control-plane verb: a later reconfiguration
    handing the register *back* to this replica set clears both fences
    before replaying.  Clients are non-malicious in the model (only
    objects are Byzantine), so honouring a lift does not weaken the
    fault assumptions -- and write arbitration still ignores any stale
    tag below the replayed one.
    """

    nonce: int
    epoch: int
    register_id: str = DEFAULT_REGISTER
    hard: bool = False
    lift: bool = False
    wire = (7, "nonce:i64 epoch:i64 hard|lift:flags register_id:str")


@dataclass(frozen=True, slots=True)
class EpochFenceAck(Message):
    """``FENCE_ACK_i<epoch>``: the fence object ``i`` now enforces."""

    nonce: int
    object_index: int
    epoch: int
    register_id: str = DEFAULT_REGISTER
    wire = (8, "nonce:i64 object_index:u32 epoch:i64 register_id:str")


@dataclass(frozen=True, slots=True)
class WriteFenced(Message):
    """Object-to-writer: a write round was refused by an epoch fence.

    ``epoch``/``wid``/``nonce`` echo the refused round so the writer can
    match the report to its in-flight operation; ``fence_epoch`` is the
    fence that refused it.  A writer aborts with
    :class:`~repro.errors.FencedWriteError` once ``b + 1`` distinct
    objects report the fence (a Byzantine minority cannot forge that).
    """

    object_index: int
    epoch: int
    fence_epoch: int
    wid: int = 0
    nonce: int = 0
    register_id: str = DEFAULT_REGISTER
    wire = (9, "object_index:u32 epoch:i64 fence_epoch:i64 wid:u32 nonce:i64 "
                "register_id:str")


# ---------------------------------------------------------------------------
# Safe read protocol (Figure 3 / Figure 4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ReadRequest(Message):
    """``READk<tsr'>`` for ``k in {1, 2}``.

    ``round_index`` is 1 or 2; ``tsr`` is the reader's fresh timestamp and
    ``reader_index`` identifies which ``tsr[j]`` field the object updates.
    ``from_ts`` is used only by the Section 5.1 optimized regular reader to
    request a history suffix; the safe protocol leaves it ``None``.  It
    holds a :class:`~repro.types.WriterTag` (legacy senders may pass a
    bare epoch integer, meaning writer 0).
    """

    round_index: int
    tsr: int
    reader_index: int
    from_ts: Optional[WriterTag] = None
    register_id: str = DEFAULT_REGISTER
    wire = (10, "round_index:u8 tsr:i64 reader_index:u32 from_ts:opt_tag "
                "register_id:str")

    def __post_init__(self) -> None:
        # Normalize legacy bare-epoch suffixes to writer-0 tags so callers
        # and codecs agree on one representation.
        object.__setattr__(self, "from_ts", as_tag(self.from_ts))


@dataclass(frozen=True, slots=True)
class ReadAck(Message):
    """``READk_ACK_i<tsr[j], pw, w>`` of the safe protocol (Figure 3)."""

    round_index: int
    tsr: int
    object_index: int
    pw: TimestampValue
    w: WriteTuple
    register_id: str = DEFAULT_REGISTER
    wire = (11, "round_index:u8 tsr:i64 object_index:u32 register_id:str "
                "pw:tsval w:wtuple")


# ---------------------------------------------------------------------------
# Regular read protocol (Figure 5 / Figure 6)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HistoryEntry(Message):
    """One slot of an object's history: ``history_i[tag] = <pw, w>``.

    ``w`` may be ``None`` (the paper's ``nil``) when only the PW round of
    the corresponding write has been observed.  Slotted: histories carry
    one instance per write per object per ack, so the per-instance dict
    is pure overhead on the hottest allocation path.  Entries travel
    inside :class:`HistoryReadAck` payloads, never framed standalone, so
    the class declares no wire layout.
    """

    pw: Optional[TimestampValue]
    w: Optional[WriteTuple]


@dataclass(frozen=True, slots=True)
class HistoryReadAck(Message):
    """``READk_ACK_i<tsr[j], history_i>`` of the regular protocol.

    ``history`` maps write tags to :class:`HistoryEntry` (bare integer
    keys from legacy senders mean writer 0).  With the §5.1 optimization
    the mapping contains only tags ``>= from_ts`` of the triggering
    :class:`ReadRequest`.
    """

    round_index: int
    tsr: int
    object_index: int
    history: Mapping[WriterTag, HistoryEntry]
    register_id: str = DEFAULT_REGISTER
    wire = (12, "round_index:u8 tsr:i64 object_index:u32 register_id:str "
                "history:history", "from_tagged")

    def __post_init__(self) -> None:
        # Freeze the mapping so acks are hashable and immutable; normalize
        # legacy integer keys to writer-0 tags.  The all-tags case (every
        # internal sender) takes the single plain-copy path.
        history = self.history
        if all(type(tag) is WriterTag for tag in history):
            history = dict(history)
        else:
            history = {as_tag(tag): entry for tag, entry in history.items()}
        object.__setattr__(self, "history", history)

    @classmethod
    def from_tagged(cls, round_index: int, tsr: int, object_index: int,
                    history: Mapping[WriterTag, HistoryEntry],
                    register_id: str) -> "HistoryReadAck":
        """Fast constructor for already tag-keyed histories.

        Object automata key their slot histories by :class:`WriterTag`
        exclusively, so the ``__post_init__`` normalization scan is pure
        overhead on their (hottest) ack-construction path; this still
        snapshots the mapping, insulating the ack from future slot
        mutations.
        """
        ack = object.__new__(cls)
        set_ = object.__setattr__
        set_(ack, "round_index", round_index)
        set_(ack, "tsr", tsr)
        set_(ack, "object_index", object_index)
        set_(ack, "history", dict(history))
        set_(ack, "register_id", register_id)
        return ack

    def __hash__(self) -> int:  # history dict prevents default hash
        return hash((self.round_index, self.tsr, self.object_index,
                     self.register_id,
                     tuple(sorted(self.history.items(), key=lambda kv: kv[0]))))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HistoryReadAck)
            and self.round_index == other.round_index
            and self.tsr == other.tsr
            and self.object_index == other.object_index
            and self.register_id == other.register_id
            and dict(self.history) == dict(other.history)
        )


# ---------------------------------------------------------------------------
# Batching (service layer)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Batch(Message):
    """Several protocol messages between the same pair of processes.

    The multiplexed service tier coalesces same-step messages to the same
    destination -- typically one round of many registers' operations --
    into a single envelope, and objects coalesce the resulting replies the
    same way.  Transports treat a batch as one frame; receivers unwrap it
    and process the parts in order.  Batches never nest.
    """

    messages: Tuple[Message, ...]
    wire = (13, "messages:parts")

    def __post_init__(self) -> None:
        if any(isinstance(m, Batch) for m in self.messages):
            raise ValueError("batches do not nest")


def unbatch(payload: Any) -> Tuple[Any, ...]:
    """The sequence of protocol messages an envelope carries (1 if unbatched)."""
    if isinstance(payload, Batch):
        return payload.messages
    return (payload,)


def fast_batch(messages: Tuple[Message, ...]) -> Batch:
    """A :class:`Batch` from already-vetted protocol messages.

    Callers guarantee every element is a non-batch :class:`Message`, so
    construction skips ``Batch.__post_init__``'s re-scan.
    """
    batch = object.__new__(Batch)
    object.__setattr__(batch, "messages", messages)
    return batch


def as_frame(sink: List[Message]) -> Any:
    """One wire payload for a non-empty sink: the message, or a batch.

    The one "singleton or :class:`Batch`" rule of every transport.
    Sinks only ever collect non-batch protocol messages (the client
    engines and the batch handlers route anything else to their
    leftovers), so :func:`fast_batch`'s no-nesting re-scan is skipped.
    """
    return sink[0] if len(sink) == 1 else fast_batch(tuple(sink))


# ---------------------------------------------------------------------------
# Trace/debug helpers
# ---------------------------------------------------------------------------


def summarize(message: Message) -> str:
    """One-line human-readable rendering used by traces and examples."""
    if isinstance(message, Pw):
        return f"PW<ts={message.ts}, pw={message.pw!r}>"
    if isinstance(message, PwAck):
        return f"PW_ACK(s{message.object_index + 1}, ts={message.ts})"
    if isinstance(message, W):
        return f"W<ts={message.ts}, pw={message.pw!r}>"
    if isinstance(message, WriteAck):
        return f"WRITE_ACK(s{message.object_index + 1}, ts={message.ts})"
    if isinstance(message, TagQuery):
        return f"TAG_QUERY<nonce={message.nonce}>"
    if isinstance(message, TagQueryAck):
        return (f"TAG_ACK(s{message.object_index + 1}, "
                f"tag={message.tag!r})")
    if isinstance(message, LeaseProbe):
        return f"LEASE<nonce={message.nonce}, tag={message.tag!r}>"
    if isinstance(message, LeaseProbeAck):
        return (f"LEASE_ACK(s{message.object_index + 1}, "
                f"top={message.tag!r}, holds={message.holds}, "
                f"fenced={message.fenced})")
    if isinstance(message, EpochFence):
        return f"FENCE<epoch={message.epoch}>"
    if isinstance(message, EpochFenceAck):
        return (f"FENCE_ACK(s{message.object_index + 1}, "
                f"epoch={message.epoch})")
    if isinstance(message, WriteFenced):
        return (f"WRITE_FENCED(s{message.object_index + 1}, "
                f"epoch={message.epoch} < fence={message.fence_epoch})")
    if isinstance(message, ReadRequest):
        return f"READ{message.round_index}<tsr={message.tsr}>"
    if isinstance(message, ReadAck):
        return (
            f"READ{message.round_index}_ACK(s{message.object_index + 1}, "
            f"tsr={message.tsr}, pw={message.pw!r}, w={message.w!r})"
        )
    if isinstance(message, HistoryReadAck):
        return (
            f"READ{message.round_index}_ACK(s{message.object_index + 1}, "
            f"tsr={message.tsr}, |history|={len(message.history)})"
        )
    if isinstance(message, Batch):
        return f"BATCH[{len(message.messages)}]"
    return message.kind


__all__ = [
    "Message",
    "Pw",
    "PwAck",
    "W",
    "WriteAck",
    "TagQuery",
    "TagQueryAck",
    "LeaseProbe",
    "LeaseProbeAck",
    "EpochFence",
    "EpochFenceAck",
    "WriteFenced",
    "ReadRequest",
    "ReadAck",
    "HistoryEntry",
    "HistoryReadAck",
    "Batch",
    "unbatch",
    "fast_batch",
    "as_frame",
    "register_of",
    "estimate_size",
    "summarize",
]
