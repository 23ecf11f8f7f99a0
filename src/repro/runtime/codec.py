"""Wire codec: the binary encoding of every message.

The deterministic simulator passes Python objects by reference; the TCP
transport and the write-ahead log need real serialization.
:func:`encode_message_binary` / :func:`decode_message_binary` are total
over the message vocabulary of :mod:`repro.messages`, the baseline
messages, and payload values that are scalars, ``bytes`` or ``⊥``:
length-delimited, ``struct``-packed fixed fields behind a one-byte kind,
and a per-frame shared string table for register ids.

Every frame starts with :data:`BINARY_MAGIC`; the TCP framers reject a
frame that does not.  Encoding is structural and versioned by kind
bytes, so a decoded message is ``==`` to the original (all message types
are frozen dataclasses).
"""

from __future__ import annotations

import functools
import struct
from typing import Any, Callable, Dict, List, Tuple, Union

from ..errors import TransportError
from ..messages import (Batch, EpochFence, EpochFenceAck, HistoryEntry,
                        HistoryReadAck, LeaseProbe, LeaseProbeAck,
                        Pw, PwAck, ReadAck, ReadRequest,
                        TagQuery, TagQueryAck, W, WriteAck, WriteFenced)
from ..types import (BOTTOM, INITIAL_TSVAL, TimestampValue, TsrArray,
                     WriterTag, WriteTuple, _Bottom, intern_write_tuple)


# Frame layout (everything little-endian):
#
#   message := MAGIC kind:u8 body
#   body    := one precompiled ``struct`` covering every fixed-width
#              field of the message, followed by strings / values /
#              repeated sections
#   string  := u8 < 0xFE            -- string-table reference (index)
#            | 0xFE u16(index)      -- reference beyond 253
#            | 0xFF u32(len) bytes  -- first occurrence, appended to the
#                                      frame's string table
#   cells   := n x i64, -1 encoding the paper's ``nil``
#   value   := tag:u8 payload (generic payloads: scalars, pairs, tuples)
#
# Decode speed is the design driver: all fixed fields of a message are
# read with a single ``Struct.unpack_from`` and array cells with one
# bulk unpack, so the per-field pure-Python overhead that dominates a
# varint-oriented layout disappears.  The shared string table is per
# frame: a Batch's parts share one table, so register ids repeated
# across parts are encoded once.  Counter fields (timestamps, epochs,
# nonces) must fit a signed 64-bit integer -- they are monotone
# counters, so this is not a practical limit; generic *values* fall
# back to a decimal big-int encoding.

#: First byte of every message frame.
BINARY_MAGIC = 0xB1

_STR_REF16 = 0xFE
_STR_NEW = 0xFF

# value tags (generic payload values)
_VAL_NONE = 0
_VAL_TRUE = 1
_VAL_FALSE = 2
_VAL_BOTTOM = 3
_VAL_INT = 4
_VAL_BIGINT = 5
_VAL_FLOAT = 6
_VAL_STR = 7
_VAL_BYTES = 8
_VAL_TSVAL = 9
_VAL_TSR = 10
_VAL_WTUPLE = 11
_VAL_HENTRY = 12

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

_S_F64 = struct.Struct("<d")
_S_I64 = struct.Struct("<q")
_S_U16 = struct.Struct("<H")
_S_TSVAL = struct.Struct("<qI")        # ts, wid
_S_TSR_HDR = struct.Struct("<HH")      # num_objects, num_readers
_S_HENTRY = struct.Struct("<qIB")      # tag epoch, tag wid, flags
_S_TAG = struct.Struct("<qI")          # tag epoch, tag wid


@functools.lru_cache(maxsize=256)
def _cells_struct(count: int) -> struct.Struct:
    """Bulk cell codec: ``count`` 64-bit slots in one (un)pack."""
    return struct.Struct(f"<{count}q")


@functools.lru_cache(maxsize=64)
def _empty_tsr(num_objects: int, num_readers: int) -> TsrArray:
    """The all-nil array, shared per shape (the common wire case)."""
    return TsrArray.empty(num_objects, num_readers)


@functools.lru_cache(maxsize=65536)
def _shared_hentry(pw, w) -> HistoryEntry:
    return HistoryEntry(pw=pw, w=w)


def _intern_hentry(pw, w) -> HistoryEntry:
    """Shared history entries per (pw, w) -- interned members make the
    cache key hash cheap, and histories repeat entries across acks."""
    if ((pw is None or _internable(pw.value))
            and (w is None or _internable(w.tsval.value))):
        return _shared_hentry(pw, w)
    return HistoryEntry(pw=pw, w=w)


@functools.lru_cache(maxsize=65536)
def _intern_tsval(ts: int, wid: int, value) -> TimestampValue:
    """Shared pair instances per decoded contents.

    A frame typically carries the same pair several times (a history
    entry's ``pw`` and its tuple's ``tsval``, the same write echoed by
    several parts); interning makes the copies pointer-equal and their
    lazily cached hashes shared, like on the in-memory transport.
    """
    return TimestampValue(ts, value, wid=wid)


_S_U32 = struct.Struct("<I")


def _w_str(buf: bytearray, s: str, strings: Dict[str, int]) -> None:
    index = strings.get(s)
    if index is None:
        if len(strings) < 0x10000:
            # References are u16-addressed; beyond 65536 distinct
            # strings further first-occurrences simply stay inline.
            # (The decoder's table may grow larger, but only the first
            # 65536 positions -- identical on both sides -- are ever
            # referenced.)
            strings[s] = len(strings)
        raw = s.encode("utf-8")
        buf.append(_STR_NEW)
        buf += _S_U32.pack(len(raw))
        buf += raw
    elif index < _STR_REF16:
        buf.append(index)
    else:
        buf.append(_STR_REF16)
        buf += _S_U16.pack(index)


def _r_str(data, pos: int, strings: List[str]) -> Tuple[str, int]:
    try:
        tag = data[pos]
        if tag < _STR_REF16:
            return strings[tag], pos + 1
        if tag == _STR_REF16:
            index = data[pos + 1] | (data[pos + 2] << 8)
            return strings[index], pos + 3
        (length,) = _S_U32.unpack_from(data, pos + 1)
        end = pos + 5 + length
        raw = data[pos + 5:end]
        if len(raw) != length:
            raise TransportError("truncated binary frame")
        # bytes(raw) is identity for bytes input, a copy for memoryview
        # slices (which have no .decode).
        text = bytes(raw).decode("utf-8")
        strings.append(text)
        return text, end
    except IndexError:
        raise TransportError("truncated binary frame") from None
    except struct.error:
        raise TransportError("truncated binary frame") from None
    except UnicodeDecodeError as exc:
        raise TransportError(f"malformed string: {exc}") from exc


def _w_tsr(buf: bytearray, arr: TsrArray) -> None:
    num_objects = arr.num_objects
    num_readers = arr.num_readers
    buf += _S_TSR_HDR.pack(num_objects, num_readers)
    cells = [-1 if cell is None else cell
             for row in arr for cell in row]
    buf += _cells_struct(len(cells)).pack(*cells)


def _r_tsr(data, pos: int) -> Tuple[TsrArray, int]:
    try:
        num_objects, num_readers = _S_TSR_HDR.unpack_from(data, pos)
    except struct.error:
        raise TransportError("truncated binary frame") from None
    pos += 4
    count = num_objects * num_readers
    if count > 1 << 20:
        raise TransportError("tsr array implausibly large")
    codec = _cells_struct(count)
    try:
        cells = codec.unpack_from(data, pos)
    except struct.error:
        raise TransportError("truncated binary frame") from None
    pos += codec.size
    if not cells or max(cells) < 0:
        # every cell nil: the initial array, shared per shape
        return _empty_tsr(num_objects, num_readers), pos
    rows = tuple(
        tuple(None if cell < 0 else cell
              for cell in cells[base:base + num_readers])
        for base in range(0, count, num_readers))
    return TsrArray(rows), pos


_S_TSVAL_TAG = struct.Struct("<qIB")   # ts, wid, value tag
_S_TSVAL_INT = struct.Struct("<qIBq")  # ts, wid, VAL_INT, value


def _w_tsval(buf: bytearray, tsval: TimestampValue,
             strings: Dict[str, int]) -> None:
    # The value tag rides in the same pack as the pair header; string
    # and int64 payloads (the overwhelming majority) take one pack call.
    value = tsval.value
    kind = value.__class__
    if kind is str:
        buf += _S_TSVAL_TAG.pack(tsval.ts, tsval.wid, _VAL_STR)
        _w_str(buf, value, strings)
    elif kind is int and _INT64_MIN <= value <= _INT64_MAX:
        # (bool never hits this branch: its __class__ is bool, not int)
        buf += _S_TSVAL_INT.pack(tsval.ts, tsval.wid, _VAL_INT, value)
    elif kind is _Bottom:
        buf += _S_TSVAL_TAG.pack(tsval.ts, tsval.wid, _VAL_BOTTOM)
    else:
        buf += _S_TSVAL.pack(tsval.ts, tsval.wid)
        _w_value(buf, value, strings)


def _r_tsval(data, pos: int,
             strings: List[str]) -> Tuple[TimestampValue, int]:
    try:
        ts, wid, tag = _S_TSVAL_TAG.unpack_from(data, pos)
    except struct.error:
        raise TransportError("truncated binary frame") from None
    pos += 13
    if tag == _VAL_STR:
        value, pos = _r_str(data, pos, strings)
        if len(value) > _CACHE_VALUE_LIMIT:
            # Large payloads are not worth pinning in the intern cache.
            try:
                return TimestampValue(ts, value, wid=wid), pos
            except ValueError as exc:
                raise TransportError(f"malformed pair: {exc}") from exc
    elif tag == _VAL_INT:
        try:
            (value,) = _S_I64.unpack_from(data, pos)
        except struct.error:
            raise TransportError("truncated binary frame") from None
        pos += 8
    elif tag == _VAL_BOTTOM:
        if ts == 0 and wid == 0:
            return INITIAL_TSVAL, pos
        value = BOTTOM
    else:
        value, pos = _r_value_body(tag, data, pos, strings)
        try:
            return TimestampValue(ts, value, wid=wid), pos
        except ValueError as exc:
            raise TransportError(f"malformed pair: {exc}") from exc
    try:
        return _intern_tsval(ts, wid, value), pos
    except ValueError as exc:
        raise TransportError(f"malformed pair: {exc}") from exc


@functools.lru_cache(maxsize=4096)
def _wtuple_bytes(w: WriteTuple) -> bytes:
    """Encoded body of a write tuple with a string-free scalar value.

    Such encodings never touch the frame's string table, so they are
    context-independent and cacheable -- and the single hottest case,
    the previous-write tuple piggybacked on every PW frame, is interned
    and hits this cache by identity."""
    buf = bytearray()
    _w_tsval(buf, w.tsval, {})
    _w_tsr(buf, w.tsrarray)
    return bytes(buf)


#: Payloads above this size are never pinned by the codec's caches --
#: the hot-path win is for small control values, and caching a large
#: blob would retain a full second copy for the process lifetime.
_CACHE_VALUE_LIMIT = 1024

#: Payload types whose equal values always share one type and one
#: encoding.  Only these may share a cache entry: ``0 == False == 0.0``
#: and ``0.0 == -0.0``, so a cached bool or float pair could come back
#: as another type (a written ``0`` read back as ``False``) or re-encode
#: to other bytes.  Nested containers may hold such scalars at any depth.
_EXACT_SCALARS = frozenset((str, int, bytes, _Bottom, type(None)))


def _internable(value: Any) -> bool:
    """Whether decoded copies of ``value`` may be shared via a cache."""
    kind = value.__class__
    if kind is str or kind is bytes:
        return len(value) <= _CACHE_VALUE_LIMIT
    return kind in _EXACT_SCALARS


def _cacheable_value(value: Any) -> bool:
    """Whether a write tuple's encoding may be cached: an exact scalar
    that never touches the frame's string table."""
    return value.__class__ is not str and _internable(value)


def _w_wtuple(buf: bytearray, w: WriteTuple,
              strings: Dict[str, int]) -> None:
    if _cacheable_value(w.tsval.value):
        buf += _wtuple_bytes(w)
        return
    _w_tsval(buf, w.tsval, strings)
    _w_tsr(buf, w.tsrarray)


def _r_wtuple(data, pos: int,
              strings: List[str]) -> Tuple[WriteTuple, int]:
    tsval, pos = _r_tsval(data, pos, strings)
    arr, pos = _r_tsr(data, pos)
    if not _internable(tsval.value):
        return WriteTuple(tsval, arr), pos  # large or inexact payload
    return intern_write_tuple(tsval, arr), pos


def _w_hentry_body(buf: bytearray, entry: HistoryEntry,
                   strings: Dict[str, int]) -> None:
    """flags byte + payload of one history entry (shared by the
    history-ack encoder and the generic value encoder)."""
    pw = entry.pw
    w = entry.w
    if w is not None and pw is not None and (pw is w.tsval
                                             or pw == w.tsval):
        # Complete entries almost always repeat the tuple's own pair as
        # ``pw`` (the W round installs exactly that); flag 4 ships the
        # tuple once and reconstructs ``pw`` from it.
        buf.append(4)
        _w_wtuple(buf, w, strings)
        return
    buf.append((1 if pw is not None else 0)
               | (2 if w is not None else 0))
    if pw is not None:
        _w_tsval(buf, pw, strings)
    if w is not None:
        _w_wtuple(buf, w, strings)


def _w_hentry(buf: bytearray, tag: WriterTag, entry: HistoryEntry,
              strings: Dict[str, int]) -> None:
    buf += _S_TAG.pack(tag[0], tag[1])
    _w_hentry_body(buf, entry, strings)


def _w_value(buf: bytearray, value: Any, strings: Dict[str, int]) -> None:
    if value is None:
        buf.append(_VAL_NONE)
    elif value is True:
        buf.append(_VAL_TRUE)
    elif value is False:
        buf.append(_VAL_FALSE)
    else:
        kind = value.__class__
        if kind is str:
            buf.append(_VAL_STR)
            _w_str(buf, value, strings)
        elif kind is int:
            if _INT64_MIN <= value <= _INT64_MAX:
                buf.append(_VAL_INT)
                buf += _S_I64.pack(value)
            else:
                raw = str(value).encode("ascii")
                buf.append(_VAL_BIGINT)
                buf += _S_U16.pack(len(raw))
                buf += raw
        elif kind is float:
            buf.append(_VAL_FLOAT)
            buf += _S_F64.pack(value)
        elif isinstance(value, TimestampValue):
            buf.append(_VAL_TSVAL)
            _w_tsval(buf, value, strings)
        elif isinstance(value, WriteTuple):
            buf.append(_VAL_WTUPLE)
            _w_wtuple(buf, value, strings)
        elif kind is TsrArray:
            buf.append(_VAL_TSR)
            _w_tsr(buf, value)
        elif isinstance(value, HistoryEntry):
            buf.append(_VAL_HENTRY)
            _w_hentry_body(buf, value, strings)
        elif kind is _Bottom:
            buf.append(_VAL_BOTTOM)
        elif isinstance(value, (bytes, bytearray)):
            buf.append(_VAL_BYTES)
            buf += _S_U32.pack(len(value))
            buf += value
        elif isinstance(value, int):
            _w_value(buf, int(value), strings)
        elif isinstance(value, str):
            buf.append(_VAL_STR)
            _w_str(buf, str(value), strings)
        else:
            raise TransportError(
                f"value of type {type(value).__name__} is not "
                f"wire-encodable")


def _r_value(data, pos: int, strings: List[str]) -> Tuple[Any, int]:
    try:
        tag = data[pos]
    except IndexError:
        raise TransportError("truncated binary frame") from None
    return _r_value_body(tag, data, pos + 1, strings)


def _r_value_body(tag: int, data, pos: int,
                  strings: List[str]) -> Tuple[Any, int]:
    if tag == _VAL_STR:
        return _r_str(data, pos, strings)
    if tag == _VAL_INT:
        try:
            return _S_I64.unpack_from(data, pos)[0], pos + 8
        except struct.error:
            raise TransportError("truncated binary frame") from None
    if tag == _VAL_NONE:
        return None, pos
    if tag == _VAL_TRUE:
        return True, pos
    if tag == _VAL_FALSE:
        return False, pos
    if tag == _VAL_BOTTOM:
        return BOTTOM, pos
    if tag == _VAL_FLOAT:
        try:
            return _S_F64.unpack_from(data, pos)[0], pos + 8
        except struct.error:
            raise TransportError("truncated binary frame") from None
    if tag == _VAL_TSVAL:
        return _r_tsval(data, pos, strings)
    if tag == _VAL_TSR:
        return _r_tsr(data, pos)
    if tag == _VAL_WTUPLE:
        return _r_wtuple(data, pos, strings)
    if tag == _VAL_HENTRY:
        try:
            flags = data[pos]
        except IndexError:
            raise TransportError("truncated binary frame") from None
        pos += 1
        if flags == 4:
            w, pos = _r_wtuple(data, pos, strings)
            return _intern_hentry(w.tsval, w), pos
        pw = w = None
        if flags & 1:
            pw, pos = _r_tsval(data, pos, strings)
        if flags & 2:
            w, pos = _r_wtuple(data, pos, strings)
        return _intern_hentry(pw, w), pos
    if tag == _VAL_BIGINT:
        try:
            (length,) = _S_U16.unpack_from(data, pos)
        except struct.error:
            raise TransportError("truncated binary frame") from None
        raw = bytes(data[pos + 2:pos + 2 + length])
        if len(raw) != length:
            raise TransportError("truncated binary frame")
        try:
            return int(raw), pos + 2 + length
        except ValueError as exc:
            raise TransportError(f"malformed bigint: {exc}") from exc
    if tag == _VAL_BYTES:
        try:
            (length,) = _S_U32.unpack_from(data, pos)
        except struct.error:
            raise TransportError("truncated binary frame") from None
        raw = bytes(data[pos + 4:pos + 4 + length])
        if len(raw) != length:
            raise TransportError("truncated binary frame")
        return raw, pos + 4 + length
    raise TransportError(f"unknown binary value tag {tag}")


# -- message-level binary codecs --------------------------------------------

# kind bytes (stable wire identifiers; extensions register their own,
# 64 and above)
_BK_PW = 1
_BK_W = 2
_BK_PWACK = 3
_BK_WRITEACK = 4
_BK_TAGQUERY = 5
_BK_TAGQUERYACK = 6
_BK_EPOCHFENCE = 7
_BK_EPOCHFENCEACK = 8
_BK_WRITEFENCED = 9
_BK_READREQUEST = 10
_BK_READACK = 11
_BK_HISTORYREADACK = 12
_BK_BATCH = 13
_BK_LEASEPROBE = 14
_BK_LEASEPROBEACK = 15

_S_PW = struct.Struct("<qI")            # ts, wid
_S_PWACK = struct.Struct("<qII")        # ts, wid, object_index
_S_TAGQACK = struct.Struct("<qIqI")     # nonce, object_index, epoch, wid
_S_FENCE = struct.Struct("<qqB")        # nonce, epoch, flags
_S_FENCEACK = struct.Struct("<qIq")     # nonce, object_index, epoch
_S_WFENCED = struct.Struct("<IqqIq")    # oi, epoch, fence, wid, nonce
_S_READREQ = struct.Struct("<BqIqI")    # k, tsr, j, from_epoch+1, from_wid
_S_READACK = struct.Struct("<BqI")      # k, tsr, object_index
_S_HISTACK = struct.Struct("<BqII")     # k, tsr, object_index, |history|
_S_LEASE = struct.Struct("<qqII")       # nonce, epoch, wid, reader_index
_S_LEASEACK = struct.Struct("<qIqIB")   # nonce, oi, epoch, wid, flags

_BIN_ENCODERS: Dict[type, Callable[[bytearray, Any, Dict[str, int]],
                                   None]] = {}
_BIN_DECODERS: Dict[int, Callable[[Any, int, List[str]],
                                  Tuple[Any, int]]] = {}
_BIN_KINDS: Dict[type, int] = {}


def register_binary_codec(
        message_type: type, kind_byte: int,
        encoder: Callable[[bytearray, Any, Dict[str, int]], None],
        decoder: Callable[[Any, int, List[str]], Tuple[Any, int]]) -> None:
    """Extension point for baseline / user-defined message types.
    ``encoder(buf, message, strings)`` appends the message body
    (everything after the kind byte); ``decoder(data, pos, strings)``
    reads it back and returns ``(message, new_pos)``.  Kind bytes below
    64 are reserved for the core vocabulary."""
    bound = _BIN_KINDS.get(message_type)
    if _BIN_DECODERS.get(kind_byte) is not None and bound != kind_byte:
        raise TransportError(
            f"binary kind byte {kind_byte} is already registered")
    _BIN_ENCODERS[message_type] = encoder
    _BIN_DECODERS[kind_byte] = decoder
    _BIN_KINDS[message_type] = kind_byte


def _unpack(codec: struct.Struct, data, pos: int) -> tuple:
    try:
        return codec.unpack_from(data, pos)
    except struct.error:
        raise TransportError("truncated binary frame") from None


def _enc_pw(buf: bytearray, m: Pw, strings: Dict[str, int]) -> None:
    buf += _S_PW.pack(m.ts, m.wid)
    _w_str(buf, m.register_id, strings)
    _w_tsval(buf, m.pw, strings)
    _w_wtuple(buf, m.w, strings)


def _dec_pw(data, pos: int, strings: List[str]) -> Tuple[Pw, int]:
    ts, wid = _unpack(_S_PW, data, pos)
    register_id, pos = _r_str(data, pos + 12, strings)
    pw, pos = _r_tsval(data, pos, strings)
    w, pos = _r_wtuple(data, pos, strings)
    return Pw(ts=ts, pw=pw, w=w, register_id=register_id, wid=wid), pos


def _dec_w(data, pos: int, strings: List[str]) -> Tuple[W, int]:
    ts, wid = _unpack(_S_PW, data, pos)
    register_id, pos = _r_str(data, pos + 12, strings)
    pw, pos = _r_tsval(data, pos, strings)
    w, pos = _r_wtuple(data, pos, strings)
    return W(ts=ts, pw=pw, w=w, register_id=register_id, wid=wid), pos


_S_PWACK_HDR = struct.Struct("<qIIH")   # ts, wid, object_index, |tsr|
_S_PWACK_1 = struct.Struct("<qIIHq")    # single-reader fast path


def _enc_pwack(buf: bytearray, m: PwAck, strings: Dict[str, int]) -> None:
    tsr = m.tsr
    if len(tsr) == 1:
        cell = tsr[0]
        buf += _S_PWACK_1.pack(m.ts, m.wid, m.object_index, 1,
                               -1 if cell is None else cell)
    else:
        buf += _S_PWACK_HDR.pack(m.ts, m.wid, m.object_index, len(tsr))
        cells = [-1 if cell is None else cell for cell in tsr]
        buf += _cells_struct(len(cells)).pack(*cells)
    _w_str(buf, m.register_id, strings)


def _dec_pwack(data, pos: int, strings: List[str]) -> Tuple[PwAck, int]:
    try:
        ts, wid, object_index, count = _S_PWACK_HDR.unpack_from(data, pos)
        pos += 18
        if count == 1:
            (cell,) = _S_I64.unpack_from(data, pos)
            pos += 8
            tsr: tuple = ((None if cell < 0 else cell),)
        else:
            codec = _cells_struct(count)
            cells = codec.unpack_from(data, pos)
            pos += codec.size
            tsr = tuple(None if cell < 0 else cell for cell in cells)
    except struct.error:
        raise TransportError("truncated binary frame") from None
    register_id, pos = _r_str(data, pos, strings)
    return PwAck(ts=ts, object_index=object_index, tsr=tsr,
                 register_id=register_id, wid=wid), pos


def _enc_writeack(buf: bytearray, m: WriteAck,
                  strings: Dict[str, int]) -> None:
    buf += _S_PWACK.pack(m.ts, m.wid, m.object_index)
    _w_str(buf, m.register_id, strings)


def _dec_writeack(data, pos: int,
                  strings: List[str]) -> Tuple[WriteAck, int]:
    ts, wid, object_index = _unpack(_S_PWACK, data, pos)
    register_id, pos = _r_str(data, pos + 16, strings)
    return WriteAck(ts=ts, object_index=object_index,
                    register_id=register_id, wid=wid), pos


def _enc_tagquery(buf: bytearray, m: TagQuery,
                  strings: Dict[str, int]) -> None:
    buf += _S_I64.pack(m.nonce)
    _w_str(buf, m.register_id, strings)


def _dec_tagquery(data, pos: int,
                  strings: List[str]) -> Tuple[TagQuery, int]:
    (nonce,) = _unpack(_S_I64, data, pos)
    register_id, pos = _r_str(data, pos + 8, strings)
    return TagQuery(nonce=nonce, register_id=register_id), pos


def _enc_tagqueryack(buf: bytearray, m: TagQueryAck,
                     strings: Dict[str, int]) -> None:
    buf += _S_TAGQACK.pack(m.nonce, m.object_index, m.epoch, m.wid)
    _w_str(buf, m.register_id, strings)


def _dec_tagqueryack(data, pos: int,
                     strings: List[str]) -> Tuple[TagQueryAck, int]:
    nonce, object_index, epoch, wid = _unpack(_S_TAGQACK, data, pos)
    register_id, pos = _r_str(data, pos + 24, strings)
    return TagQueryAck(nonce=nonce, object_index=object_index,
                       epoch=epoch, wid=wid,
                       register_id=register_id), pos


def _enc_leaseprobe(buf: bytearray, m: LeaseProbe,
                    strings: Dict[str, int]) -> None:
    buf += _S_LEASE.pack(m.nonce, m.epoch, m.wid, m.reader_index)
    _w_str(buf, m.register_id, strings)


def _dec_leaseprobe(data, pos: int,
                    strings: List[str]) -> Tuple[LeaseProbe, int]:
    nonce, epoch, wid, reader_index = _unpack(_S_LEASE, data, pos)
    register_id, pos = _r_str(data, pos + 24, strings)
    return LeaseProbe(nonce=nonce, epoch=epoch, reader_index=reader_index,
                      wid=wid, register_id=register_id), pos


def _enc_leaseprobeack(buf: bytearray, m: LeaseProbeAck,
                       strings: Dict[str, int]) -> None:
    buf += _S_LEASEACK.pack(m.nonce, m.object_index, m.epoch, m.wid,
                            (1 if m.holds else 0)
                            | (2 if m.fenced else 0))
    _w_str(buf, m.register_id, strings)


def _dec_leaseprobeack(data, pos: int,
                       strings: List[str]) -> Tuple[LeaseProbeAck, int]:
    nonce, object_index, epoch, wid, flags = _unpack(_S_LEASEACK, data, pos)
    register_id, pos = _r_str(data, pos + 25, strings)
    return LeaseProbeAck(nonce=nonce, object_index=object_index,
                         epoch=epoch, wid=wid,
                         holds=bool(flags & 1), fenced=bool(flags & 2),
                         register_id=register_id), pos


def _enc_epochfence(buf: bytearray, m: EpochFence,
                    strings: Dict[str, int]) -> None:
    buf += _S_FENCE.pack(m.nonce, m.epoch,
                         (1 if m.hard else 0) | (2 if m.lift else 0))
    _w_str(buf, m.register_id, strings)


def _dec_epochfence(data, pos: int,
                    strings: List[str]) -> Tuple[EpochFence, int]:
    nonce, epoch, flags = _unpack(_S_FENCE, data, pos)
    register_id, pos = _r_str(data, pos + 17, strings)
    return EpochFence(nonce=nonce, epoch=epoch, register_id=register_id,
                      hard=bool(flags & 1), lift=bool(flags & 2)), pos


def _enc_epochfenceack(buf: bytearray, m: EpochFenceAck,
                       strings: Dict[str, int]) -> None:
    buf += _S_FENCEACK.pack(m.nonce, m.object_index, m.epoch)
    _w_str(buf, m.register_id, strings)


def _dec_epochfenceack(data, pos: int,
                       strings: List[str]) -> Tuple[EpochFenceAck, int]:
    nonce, object_index, epoch = _unpack(_S_FENCEACK, data, pos)
    register_id, pos = _r_str(data, pos + 20, strings)
    return EpochFenceAck(nonce=nonce, object_index=object_index,
                         epoch=epoch, register_id=register_id), pos


def _enc_writefenced(buf: bytearray, m: WriteFenced,
                     strings: Dict[str, int]) -> None:
    buf += _S_WFENCED.pack(m.object_index, m.epoch, m.fence_epoch,
                           m.wid, m.nonce)
    _w_str(buf, m.register_id, strings)


def _dec_writefenced(data, pos: int,
                     strings: List[str]) -> Tuple[WriteFenced, int]:
    object_index, epoch, fence_epoch, wid, nonce = \
        _unpack(_S_WFENCED, data, pos)
    register_id, pos = _r_str(data, pos + 32, strings)
    return WriteFenced(object_index=object_index, epoch=epoch,
                       fence_epoch=fence_epoch, wid=wid, nonce=nonce,
                       register_id=register_id), pos


def _enc_readrequest(buf: bytearray, m: ReadRequest,
                     strings: Dict[str, int]) -> None:
    from_ts = m.from_ts
    if from_ts is None:
        # epoch shifted by one so 0 keeps meaning "no suffix request"
        buf += _S_READREQ.pack(m.round_index, m.tsr, m.reader_index, 0, 0)
    else:
        buf += _S_READREQ.pack(m.round_index, m.tsr, m.reader_index,
                               from_ts.epoch + 1, from_ts.writer_id)
    _w_str(buf, m.register_id, strings)


def _dec_readrequest(data, pos: int,
                     strings: List[str]) -> Tuple[ReadRequest, int]:
    round_index, tsr, reader_index, from_epoch_plus_one, from_wid = \
        _unpack(_S_READREQ, data, pos)
    register_id, pos = _r_str(data, pos + 25, strings)
    from_ts = (None if not from_epoch_plus_one
               else WriterTag(from_epoch_plus_one - 1, from_wid))
    return ReadRequest(round_index=round_index, tsr=tsr,
                       reader_index=reader_index, from_ts=from_ts,
                       register_id=register_id), pos


def _enc_readack(buf: bytearray, m: ReadAck,
                 strings: Dict[str, int]) -> None:
    buf += _S_READACK.pack(m.round_index, m.tsr, m.object_index)
    _w_str(buf, m.register_id, strings)
    _w_tsval(buf, m.pw, strings)
    _w_wtuple(buf, m.w, strings)


def _dec_readack(data, pos: int,
                 strings: List[str]) -> Tuple[ReadAck, int]:
    round_index, tsr, object_index = _unpack(_S_READACK, data, pos)
    register_id, pos = _r_str(data, pos + 13, strings)
    pw, pos = _r_tsval(data, pos, strings)
    w, pos = _r_wtuple(data, pos, strings)
    return ReadAck(round_index=round_index, tsr=tsr,
                   object_index=object_index, pw=pw, w=w,
                   register_id=register_id), pos


def _enc_historyreadack(buf: bytearray, m: HistoryReadAck,
                        strings: Dict[str, int]) -> None:
    history = m.history
    buf += _S_HISTACK.pack(m.round_index, m.tsr, m.object_index,
                           len(history))
    _w_str(buf, m.register_id, strings)
    for tag, entry in history.items():
        _w_hentry(buf, tag, entry, strings)


def _dec_historyreadack(data, pos: int,
                        strings: List[str]) -> Tuple[HistoryReadAck, int]:
    round_index, tsr, object_index, count = _unpack(_S_HISTACK, data, pos)
    if count > 1 << 24:
        raise TransportError("history implausibly large")
    register_id, pos = _r_str(data, pos + 17, strings)
    history = {}
    unpack_entry = _S_HENTRY.unpack_from
    try:
        for _ in range(count):
            epoch, wid, flags = unpack_entry(data, pos)
            pos += 13
            if flags == 4:
                w, pos = _r_wtuple(data, pos, strings)
                entry = _intern_hentry(w.tsval, w)
            else:
                pw = w = None
                if flags & 1:
                    pw, pos = _r_tsval(data, pos, strings)
                if flags & 2:
                    w, pos = _r_wtuple(data, pos, strings)
                entry = _intern_hentry(pw, w)
            history[WriterTag(epoch, wid)] = entry
    except struct.error:
        raise TransportError("truncated binary frame") from None
    return HistoryReadAck.from_tagged(
        round_index=round_index, tsr=tsr, object_index=object_index,
        history=history, register_id=register_id), pos


def _enc_batch(buf: bytearray, m: Batch, strings: Dict[str, int]) -> None:
    buf += _S_U32.pack(len(m.messages))
    encoders = _BIN_ENCODERS
    kinds = _BIN_KINDS
    for part in m.messages:
        part_type = type(part)
        encoder = encoders.get(part_type)
        if encoder is None:
            raise TransportError(
                f"no binary codec registered for {part_type.__name__}")
        buf.append(kinds[part_type])
        encoder(buf, part, strings)


def _dec_batch(data, pos: int, strings: List[str]) -> Tuple[Batch, int]:
    (count,) = _unpack(_S_U32, data, pos)
    pos += 4
    if count > 1 << 20:
        raise TransportError("batch implausibly large")
    decoders = _BIN_DECODERS
    parts = []
    append = parts.append
    last_kind = -1
    decoder = None
    for _ in range(count):
        try:
            kind = data[pos]
        except IndexError:
            raise TransportError("truncated binary frame") from None
        if kind != last_kind:
            decoder = decoders.get(kind)
            if decoder is None:
                raise TransportError(
                    f"no binary codec for kind byte {kind}")
            last_kind = kind
        part, pos = decoder(data, pos + 1, strings)
        append(part)
    try:
        return Batch(messages=tuple(parts)), pos
    except ValueError as exc:  # nested batches
        raise TransportError(str(exc)) from exc


for _mtype, _kind, _enc, _dec in (
        (Pw, _BK_PW, _enc_pw, _dec_pw),
        (W, _BK_W, _enc_pw, _dec_w),  # same field layout as Pw
        (PwAck, _BK_PWACK, _enc_pwack, _dec_pwack),
        (WriteAck, _BK_WRITEACK, _enc_writeack, _dec_writeack),
        (TagQuery, _BK_TAGQUERY, _enc_tagquery, _dec_tagquery),
        (TagQueryAck, _BK_TAGQUERYACK, _enc_tagqueryack, _dec_tagqueryack),
        (EpochFence, _BK_EPOCHFENCE, _enc_epochfence, _dec_epochfence),
        (EpochFenceAck, _BK_EPOCHFENCEACK, _enc_epochfenceack,
         _dec_epochfenceack),
        (WriteFenced, _BK_WRITEFENCED, _enc_writefenced, _dec_writefenced),
        (ReadRequest, _BK_READREQUEST, _enc_readrequest, _dec_readrequest),
        (ReadAck, _BK_READACK, _enc_readack, _dec_readack),
        (LeaseProbe, _BK_LEASEPROBE, _enc_leaseprobe, _dec_leaseprobe),
        (LeaseProbeAck, _BK_LEASEPROBEACK, _enc_leaseprobeack,
         _dec_leaseprobeack),
        (HistoryReadAck, _BK_HISTORYREADACK, _enc_historyreadack,
         _dec_historyreadack),
        (Batch, _BK_BATCH, _enc_batch, _dec_batch),
):
    register_binary_codec(_mtype, _kind, _enc, _dec)


def _encode_body_binary(buf: bytearray, message: Any,
                        strings: Dict[str, int]) -> None:
    """kind byte + message body, sharing the frame's string table."""
    message_type = type(message)
    encoder = _BIN_ENCODERS.get(message_type)
    if encoder is None:
        raise TransportError(
            f"no binary codec registered for {message_type.__name__}")
    buf.append(_BIN_KINDS[message_type])
    encoder(buf, message, strings)


def _decode_body_binary(data, pos: int,
                        strings: List[str]) -> Tuple[Any, int]:
    try:
        kind = data[pos]
    except IndexError:
        raise TransportError("truncated binary frame") from None
    decoder = _BIN_DECODERS.get(kind)
    if decoder is None:
        raise TransportError(f"no binary codec for kind byte {kind}")
    return decoder(data, pos + 1, strings)


def encode_message_binary(message: Any) -> bytes:
    """One message (or Batch) as a self-identifying binary frame."""
    buf = bytearray()
    buf.append(BINARY_MAGIC)
    _encode_body_binary(buf, message, {})
    return bytes(buf)


def decode_message_binary(wire: Union[bytes, bytearray,
                                      memoryview]) -> Any:
    try:
        magic = wire[0]
    except IndexError:
        raise TransportError("empty binary frame") from None
    if magic != BINARY_MAGIC:
        raise TransportError(f"bad binary frame magic {magic:#x}")
    message, pos = _decode_body_binary(wire, 1, [])
    if pos != len(wire):
        raise TransportError(
            f"{len(wire) - pos} trailing bytes after binary frame")
    return message


def _register_binary_extras() -> None:
    """Codecs for the baseline/extension vocabularies, so the TCP tier
    covers every protocol in the library, not just the paper's core."""
    from ..baselines.abd.protocol import (AbdQuery, AbdQueryAck, AbdStore,
                                          AbdStoreAck)
    from ..baselines.authenticated.protocol import (AuthQuery, AuthQueryAck,
                                                    AuthStore, AuthStoreAck)
    from ..core.atomic.protocol import WriteBack, WriteBackAck
    from ..crypto_sim import SignedValue

    def enc_abd_store(buf, m, strings):
        buf.append(1 if m.write_back else 0)
        buf += _S_I64.pack(m.nonce)
        _w_str(buf, m.register_id, strings)
        _w_tsval(buf, m.tsval, strings)

    def dec_abd_store(data, pos, strings):
        write_back = bool(data[pos])
        (nonce,) = _unpack(_S_I64, data, pos + 1)
        register_id, pos = _r_str(data, pos + 9, strings)
        tsval, pos = _r_tsval(data, pos, strings)
        return AbdStore(tsval=tsval, nonce=nonce, register_id=register_id,
                        write_back=write_back), pos

    def enc_abd_store_ack(buf, m, strings):
        buf += _S_FENCEACK.pack(m.nonce, 0, m.ts)
        _w_str(buf, m.register_id, strings)

    def dec_abd_store_ack(data, pos, strings):
        nonce, _, ts = _unpack(_S_FENCEACK, data, pos)
        register_id, pos = _r_str(data, pos + 20, strings)
        return AbdStoreAck(nonce=nonce, ts=ts,
                           register_id=register_id), pos

    def enc_nonce_only(buf, m, strings):
        buf += _S_I64.pack(m.nonce)
        _w_str(buf, m.register_id, strings)

    def dec_abd_query(data, pos, strings):
        (nonce,) = _unpack(_S_I64, data, pos)
        register_id, pos = _r_str(data, pos + 8, strings)
        return AbdQuery(nonce=nonce, register_id=register_id), pos

    def enc_abd_query_ack(buf, m, strings):
        buf += _S_I64.pack(m.nonce)
        _w_str(buf, m.register_id, strings)
        _w_value(buf, m.tsval, strings)

    def dec_abd_query_ack(data, pos, strings):
        (nonce,) = _unpack(_S_I64, data, pos)
        register_id, pos = _r_str(data, pos + 8, strings)
        tsval, pos = _r_value(data, pos, strings)
        return AbdQueryAck(nonce=nonce, tsval=tsval,
                           register_id=register_id), pos

    def enc_signed(buf, signed, strings):
        if signed is None:
            buf.append(0)
            return
        buf.append(1)
        _w_value(buf, signed.payload, strings)
        _w_str(buf, signed.key_id, strings)
        _w_value(buf, signed.tag, strings)

    def dec_signed(data, pos, strings):
        present = data[pos]
        pos += 1
        if not present:
            return None, pos
        payload, pos = _r_value(data, pos, strings)
        key_id, pos = _r_str(data, pos, strings)
        tag, pos = _r_value(data, pos, strings)
        return SignedValue(payload=payload, key_id=key_id, tag=tag), pos

    def enc_auth_store(buf, m, strings):
        buf += _S_I64.pack(m.nonce)
        _w_str(buf, m.register_id, strings)
        enc_signed(buf, m.signed, strings)

    def dec_auth_store(data, pos, strings):
        (nonce,) = _unpack(_S_I64, data, pos)
        register_id, pos = _r_str(data, pos + 8, strings)
        signed, pos = dec_signed(data, pos, strings)
        return AuthStore(signed=signed, nonce=nonce,
                         register_id=register_id), pos

    def dec_auth_store_ack(data, pos, strings):
        (nonce,) = _unpack(_S_I64, data, pos)
        register_id, pos = _r_str(data, pos + 8, strings)
        return AuthStoreAck(nonce=nonce, register_id=register_id), pos

    def dec_auth_query(data, pos, strings):
        (nonce,) = _unpack(_S_I64, data, pos)
        register_id, pos = _r_str(data, pos + 8, strings)
        return AuthQuery(nonce=nonce, register_id=register_id), pos

    def dec_auth_query_ack(data, pos, strings):
        (nonce,) = _unpack(_S_I64, data, pos)
        register_id, pos = _r_str(data, pos + 8, strings)
        signed, pos = dec_signed(data, pos, strings)
        return AuthQueryAck(nonce=nonce, signed=signed,
                            register_id=register_id), pos

    def enc_write_back(buf, m, strings):
        buf += _S_FENCEACK.pack(m.nonce, m.reader_index, 0)
        _w_str(buf, m.register_id, strings)
        _w_wtuple(buf, m.c, strings)

    def dec_write_back(data, pos, strings):
        nonce, reader_index, _ = _unpack(_S_FENCEACK, data, pos)
        register_id, pos = _r_str(data, pos + 20, strings)
        c, pos = _r_wtuple(data, pos, strings)
        return WriteBack(c=c, nonce=nonce, reader_index=reader_index,
                         register_id=register_id), pos

    def enc_write_back_ack(buf, m, strings):
        buf += _S_FENCEACK.pack(m.nonce, m.object_index, 0)
        _w_str(buf, m.register_id, strings)

    def dec_write_back_ack(data, pos, strings):
        nonce, object_index, _ = _unpack(_S_FENCEACK, data, pos)
        register_id, pos = _r_str(data, pos + 20, strings)
        return WriteBackAck(nonce=nonce, object_index=object_index,
                            register_id=register_id), pos

    register_binary_codec(AbdStore, 64, enc_abd_store, dec_abd_store)
    register_binary_codec(AbdStoreAck, 65, enc_abd_store_ack,
                          dec_abd_store_ack)
    register_binary_codec(AbdQuery, 66, enc_nonce_only, dec_abd_query)
    register_binary_codec(AbdQueryAck, 67, enc_abd_query_ack,
                          dec_abd_query_ack)
    register_binary_codec(AuthStore, 68, enc_auth_store, dec_auth_store)
    register_binary_codec(AuthStoreAck, 69, enc_nonce_only,
                          dec_auth_store_ack)
    register_binary_codec(AuthQuery, 70, enc_nonce_only, dec_auth_query)
    register_binary_codec(AuthQueryAck, 71, enc_auth_store,
                          dec_auth_query_ack)
    register_binary_codec(WriteBack, 72, enc_write_back, dec_write_back)
    register_binary_codec(WriteBackAck, 73, enc_write_back_ack,
                          dec_write_back_ack)

    from ..sim.server_centric import PushUpdate

    def enc_push_update(buf, m, strings):
        buf += _S_I64.pack(m.object_index)
        _w_value(buf, m.tsval, strings)

    def dec_push_update(data, pos, strings):
        (object_index,) = _unpack(_S_I64, data, pos)
        tsval, pos = _r_value(data, pos + 8, strings)
        return PushUpdate(object_index=object_index, tsval=tsval), pos

    register_binary_codec(PushUpdate, 74, enc_push_update, dec_push_update)


_register_binary_extras()
