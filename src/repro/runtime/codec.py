"""Wire codec: the binary encoding of every message.

The deterministic simulator passes Python objects by reference; the TCP
transport and the write-ahead log need real serialization.
:func:`encode_message_binary` / :func:`decode_message_binary` are total
over every registered message class and over payload values that are
scalars, ``bytes`` or ``⊥``.

Each message class declares its wire layout once, next to its fields::

    wire = (1, "ts:i64 wid:u32 register_id:str pw:tsval w:wtuple")

-- its kind byte, then its fields in wire order as ``attribute:codec``
items (the codecs are the keys of :data:`_FIELD_CODECS`; a bare ``Nx``
item is N zero bytes).  :func:`register_binary_codec` turns that
declaration into the class's encoder and decoder, generated once as
straight-line functions over the primitives below (the way
:mod:`dataclasses` builds ``__init__``); importing this module registers
the library's own vocabulary that way.

Every frame starts with :data:`BINARY_MAGIC`; the TCP framers reject a
frame that does not.  A decoded message is ``==`` to the original (all
message types are frozen dataclasses) and re-encodes to the same bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import struct
from typing import Any, Callable, Dict, List, NamedTuple, Tuple, Union

from ..crypto_sim import SignedValue
from ..errors import TransportError
from ..messages import HistoryEntry
from ..types import (BOTTOM, INITIAL_TSVAL, TimestampValue, TsrArray,
                     WriterTag, WriteTuple, _Bottom, intern_write_tuple)


# Frame layout (everything little-endian):
#
#   message := MAGIC kind:u8 fixed tails
#   fixed   := the fixed-width slots of every declared field, in declared
#              order, packed with the kind byte by one precompiled
#              ``struct`` per class (a counted field's count sits here)
#   tails   := the variable-width parts of the declared fields, in
#              declared order: strings, values, cells, history entries,
#              batch parts
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
# nonces) must fit their slot -- they are monotone counters, so this is
# not a practical limit; generic *values* fall back to a decimal big-int
# encoding.
#
# The readers below do no bounds checking of their own: a short or
# corrupt frame surfaces as IndexError / struct.error / ValueError,
# which every generated decoder turns into a TransportError.

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
_S_U32 = struct.Struct("<I")
_S_TSVAL = struct.Struct("<qI")        # ts (a tag's epoch), wid
_S_TSR_HDR = struct.Struct("<HH")      # num_objects, num_readers
# ts (a tag's epoch), wid, and a value tag or history-entry flags
_S_TSVAL_TAG = struct.Struct("<qIB")
_S_TSVAL_INT = struct.Struct("<qIBq")  # ts, wid, VAL_INT, value


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


def _w_tsr(buf: bytearray, arr: TsrArray) -> None:
    buf += _S_TSR_HDR.pack(arr.num_objects, arr.num_readers)
    cells = [-1 if cell is None else cell
             for row in arr for cell in row]
    buf += _cells_struct(len(cells)).pack(*cells)


def _r_tsr(data, pos: int) -> Tuple[TsrArray, int]:
    num_objects, num_readers = _S_TSR_HDR.unpack_from(data, pos)
    pos += 4
    count = num_objects * num_readers
    if count > 1 << 20:
        raise TransportError("tsr array implausibly large")
    codec = _cells_struct(count)
    cells = codec.unpack_from(data, pos)
    pos += codec.size
    if not cells or max(cells) < 0:
        # every cell nil: the initial array, shared per shape
        return _empty_tsr(num_objects, num_readers), pos
    rows = tuple(
        tuple(None if cell < 0 else cell
              for cell in cells[base:base + num_readers])
        for base in range(0, count, num_readers))
    return TsrArray(rows), pos


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
    ts, wid, tag = _S_TSVAL_TAG.unpack_from(data, pos)
    pos += 13
    if tag == _VAL_STR:
        value, pos = _r_str(data, pos, strings)
        if len(value) > _CACHE_VALUE_LIMIT:
            # Large payloads are not worth pinning in the intern cache.
            return TimestampValue(ts, value, wid=wid), pos
    elif tag == _VAL_INT:
        (value,) = _S_I64.unpack_from(data, pos)
        pos += 8
    elif tag == _VAL_BOTTOM:
        if ts == 0 and wid == 0:
            return INITIAL_TSVAL, pos
        value = BOTTOM
    else:
        # the value tag was the header's last byte
        value, pos = _r_value(data, pos - 1, strings)
        return TimestampValue(ts, value, wid=wid), pos
    return _intern_tsval(ts, wid, value), pos


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
    history field and the generic value encoder)."""
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


def _r_hentry_body(flags: int, data, pos: int,
                   strings: List[str]) -> Tuple[HistoryEntry, int]:
    """The history entry after its ``flags`` byte."""
    if flags == 4:
        w, pos = _r_wtuple(data, pos, strings)
        return _intern_hentry(w.tsval, w), pos
    pw = w = None
    if flags & 1:
        pw, pos = _r_tsval(data, pos, strings)
    if flags & 2:
        w, pos = _r_wtuple(data, pos, strings)
    return _intern_hentry(pw, w), pos


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
    tag = data[pos]
    pos += 1
    if tag == _VAL_STR:
        return _r_str(data, pos, strings)
    if tag == _VAL_INT:
        return _S_I64.unpack_from(data, pos)[0], pos + 8
    if tag == _VAL_NONE:
        return None, pos
    if tag == _VAL_TRUE:
        return True, pos
    if tag == _VAL_FALSE:
        return False, pos
    if tag == _VAL_BOTTOM:
        return BOTTOM, pos
    if tag == _VAL_FLOAT:
        return _S_F64.unpack_from(data, pos)[0], pos + 8
    if tag == _VAL_TSVAL:
        return _r_tsval(data, pos, strings)
    if tag == _VAL_TSR:
        return _r_tsr(data, pos)
    if tag == _VAL_WTUPLE:
        return _r_wtuple(data, pos, strings)
    if tag == _VAL_HENTRY:
        return _r_hentry_body(data[pos], data, pos + 1, strings)
    if tag == _VAL_BIGINT:
        (length,) = _S_U16.unpack_from(data, pos)
        raw = bytes(data[pos + 2:pos + 2 + length])
        if len(raw) != length:
            raise TransportError("truncated binary frame")
        return int(raw), pos + 2 + length
    if tag == _VAL_BYTES:
        (length,) = _S_U32.unpack_from(data, pos)
        raw = bytes(data[pos + 4:pos + 4 + length])
        if len(raw) != length:
            raise TransportError("truncated binary frame")
        return raw, pos + 4 + length
    raise TransportError(f"unknown binary value tag {tag}")


# -- tails of the named field codecs (see _tail and _counted) ----------------


def _w_signed(buf: bytearray, signed: Any, strings: Dict[str, int]) -> None:
    """An optional :class:`SignedValue`: a presence byte, then the
    payload, the key id and the tag."""
    if signed is None:
        buf.append(0)
        return
    buf.append(1)
    _w_value(buf, signed.payload, strings)
    _w_str(buf, signed.key_id, strings)
    _w_value(buf, signed.tag, strings)


def _r_signed(data, pos: int, strings: List[str]) -> Tuple[Any, int]:
    if not data[pos]:
        return None, pos + 1
    payload, pos = _r_value(data, pos + 1, strings)
    key_id, pos = _r_str(data, pos, strings)
    tag, pos = _r_value(data, pos, strings)
    return SignedValue(payload=payload, key_id=key_id, tag=tag), pos


def _w_cells(buf: bytearray, cells: Tuple[Any, ...],
             strings: Dict[str, int]) -> None:
    if len(cells) == 1:  # the single-reader case: no list, no lookup
        cell = cells[0]
        buf += _S_I64.pack(-1 if cell is None else cell)
        return
    buf += _cells_struct(len(cells)).pack(
        *[-1 if cell is None else cell for cell in cells])


def _r_cells(data, pos: int, count: int,
             strings: List[str]) -> Tuple[Tuple[Any, ...], int]:
    if count == 1:
        (cell,) = _S_I64.unpack_from(data, pos)
        return (None if cell < 0 else cell,), pos + 8
    codec = _cells_struct(count)
    cells = codec.unpack_from(data, pos)
    return tuple(None if cell < 0 else cell for cell in cells), \
        pos + codec.size


def _w_history(buf: bytearray, history: Dict[WriterTag, HistoryEntry],
               strings: Dict[str, int]) -> None:
    for tag, entry in history.items():
        buf += _S_TSVAL.pack(tag[0], tag[1])
        _w_hentry_body(buf, entry, strings)


def _r_history(data, pos: int, count: int, strings: List[str]
               ) -> Tuple[Dict[WriterTag, HistoryEntry], int]:
    history = {}
    unpack_entry = _S_TSVAL_TAG.unpack_from
    for _ in range(count):
        epoch, wid, flags = unpack_entry(data, pos)
        entry, pos = _r_hentry_body(flags, data, pos + 13, strings)
        history[WriterTag(epoch, wid)] = entry
    return history, pos


def _w_parts(buf: bytearray, parts: Tuple[Any, ...],
             strings: Dict[str, int]) -> None:
    encoders = _BIN_ENCODERS
    for part in parts:
        encoder = encoders.get(type(part))
        if encoder is None:
            raise TransportError(
                f"no binary codec registered for {type(part).__name__}")
        encoder(buf, part, strings)


def _r_parts(data, pos: int, count: int,
             strings: List[str]) -> Tuple[Tuple[Any, ...], int]:
    decoders = _BIN_DECODERS
    parts = []
    for _ in range(count):
        decoder = decoders.get(data[pos])
        if decoder is None:
            raise TransportError(f"no binary codec for kind byte {data[pos]}")
        part, pos = decoder(data, pos + 1, strings)
        parts.append(part)
    return tuple(parts), pos


# -- field codecs and the codec builder --------------------------------------


class _Field(NamedTuple):
    """One declared field, as fragments of the generated codec."""

    attrs: Tuple[str, ...]   # the message attributes it carries
    fmt: str = ""            # struct characters of its fixed slots
    pack: str = ""           # the slots' values, as expressions of ``m``
    slots: str = ""          # the names the slots unpack to
    unpack: str = ""         # statement turning slots into ``f_<attr>``
    write: str = ""          # tail encoder call
    read: str = ""           # tail decoder statement binding ``f_<attr>``


def _fixed(fmt: str) -> Callable[[str], _Field]:
    """An integer in one struct slot."""
    return lambda a: _Field((a,), fmt, f"m.{a}", f"f_{a}")


def _tail(name: str) -> Callable[[str], _Field]:
    """A variable-width field, written and read by ``_w_/_r_<name>``."""
    return lambda a: _Field(
        (a,), write=f"_w_{name}(buf, m.{a}, strings)",
        read=f"f_{a}, pos = _r_{name}(data, pos, strings)")


def _counted(fmt: str, name: str) -> Callable[[str], _Field]:
    """A sequence: its length in a fixed slot, its items in the tail."""
    return lambda a: _Field(
        (a,), fmt, f"len(m.{a})", f"n_{a}",
        write=f"_w_{name}(buf, m.{a}, strings)",
        read=f"f_{a}, pos = _r_{name}(data, pos, n_{a}, strings)")


def _flags(spec: str) -> _Field:
    """``a|b|...``: booleans as the bits of one byte, in declared order."""
    names = spec.split("|")
    bits = f"bits_{names[0]}"
    return _Field(
        tuple(names), "B",
        " | ".join(f"({1 << i} if m.{a} else 0)"
                   for i, a in enumerate(names)),
        bits,
        "; ".join(f"f_{a} = bool({bits} & {1 << i})"
                  for i, a in enumerate(names)))


def _opt_tag(a: str) -> _Field:
    """An optional :class:`WriterTag` as ``epoch + 1, writer_id``, so
    that an epoch slot of 0 means ``None``."""
    return _Field(
        (a,), "qI",
        f"0 if m.{a} is None else m.{a}.epoch + 1, "
        f"0 if m.{a} is None else m.{a}.writer_id",
        f"e_{a}, w_{a}",
        f"f_{a} = WriterTag(e_{a} - 1, w_{a}) if e_{a} else None")


#: The codecs a ``wire`` declaration may name.
_FIELD_CODECS: Dict[str, Callable[[str], _Field]] = {
    "u8": _fixed("B"),
    "u32": _fixed("I"),
    "i64": _fixed("q"),
    "flags": _flags,
    "opt_tag": _opt_tag,
    "str": _tail("str"),
    "tsval": _tail("tsval"),
    "wtuple": _tail("wtuple"),
    "value": _tail("value"),
    "signed": _tail("signed"),
    "cells": _counted("H", "cells"),      # u16-counted tsr cells
    "history": _counted("I", "history"),  # u32-counted history entries
    "parts": _counted("I", "parts"),      # u32-counted batch parts
}

#: What packing an unencodable field raises (out-of-range or non-integer
#: counters, a missing attribute, an unencodable string).
_ENCODE_ERRORS = (struct.error, TypeError, AttributeError, ValueError)
#: What reading past the end of a frame raises.
_TRUNCATED = (IndexError, struct.error)


def _field(item: str, owner: str) -> _Field:
    if ":" not in item:
        if item[-1:] == "x" and item[:-1].isdigit():
            return _Field((), item)  # zero padding
        raise TransportError(f"{owner}: bad wire layout item {item!r}")
    attrs, codec = item.split(":", 1)
    make = _FIELD_CODECS.get(codec)
    if make is None:
        raise TransportError(f"{owner}: unknown field codec {codec!r}")
    return make(attrs)


def _unencodable(message: Any, exc: Exception,
                 checks: Tuple[Tuple[str, Callable[..., Any]], ...]
                 ) -> TransportError:
    """The error for a message the encoder could not pack: encode its
    fields one at a time to name the culprit."""
    name = type(message).__name__
    for label, check in checks:
        try:
            check(message, bytearray(), {})
        except _ENCODE_ERRORS as field_exc:
            return TransportError(
                f"cannot encode {name}.{label}: {field_exc}")
    return TransportError(f"cannot encode {name}: {exc}")


def _build(cls: type, kind: int, layout: str, new: Callable[..., Any]
           ) -> Tuple[Callable[..., None], Callable[..., Tuple[Any, int]]]:
    """The encoder and decoder of ``cls``, generated from its layout;
    the decoder builds instances with ``new``, passing every field
    positionally in the dataclass's field order."""
    name = cls.__name__
    fields = [_field(item, name) for item in layout.split()]
    attrs = [f.name for f in dataclasses.fields(cls)]
    if sorted(a for field in fields for a in field.attrs) != sorted(attrs):
        raise TransportError(
            f"{name}: the wire layout must name each field exactly once")
    fixed = "".join(field.fmt for field in fields)
    unpack = struct.Struct("<" + fixed)
    namespace = dict(globals())
    checks = tuple(  # each field encoded alone, to name an unencodable one
        ("|".join(f.attrs), eval(
            f"lambda m, buf, strings: (struct.pack('<{f.fmt}', {f.pack}), "
            f"{f.write or None})", namespace))
        for f in fields if f.attrs)
    namespace.update(new=new, _checks=checks,
                     _pack=struct.Struct("<B" + fixed).pack,
                     _unpack_from=unpack.unpack_from)
    packs = ", ".join([str(kind)] + [f.pack for f in fields if f.pack])
    slots = ", ".join(f.slots for f in fields if f.slots)
    source = [
        "def encode(buf, m, strings):",
        "    try:",
        f"        buf += _pack({packs})",
        *(f"        {f.write}" for f in fields if f.write),
        "    except _ENCODE_ERRORS as exc:",
        "        raise _unencodable(m, exc, _checks) from None",
        "def decode(data, pos, strings):",
        "    try:",
    ]
    if slots:
        source += [f"        {slots}, = _unpack_from(data, pos)",
                   f"        pos += {unpack.size}"]
    source += [f"        {f.unpack}" for f in fields if f.unpack]
    source += [f"        {f.read}" for f in fields if f.read]
    source += [
        "        return new(" + ", ".join(f"f_{a}" for a in attrs) + "), pos",
        "    except _TRUNCATED:",
        f"        raise TransportError('truncated {name} frame') from None",
        "    except (TypeError, ValueError, RecursionError) as exc:",
        f"        raise TransportError(f'malformed {name} frame: {{exc}}')"
        " from None",
    ]
    exec(compile("\n".join(source), f"<wire codec of {name}>", "exec"),
         namespace)
    return namespace["encode"], namespace["decode"]


# -- registration and framing ------------------------------------------------

_BIN_ENCODERS: Dict[type, Callable[..., None]] = {}
_BIN_DECODERS: Dict[int, Callable[..., Tuple[Any, int]]] = {}
_BIN_KINDS: Dict[type, int] = {}

#: Modules whose message classes declare the library's wire vocabulary.
#: Kind bytes below 64 are reserved for :mod:`repro.messages`.
_VOCABULARY = ("repro.messages", "repro.baselines.abd.protocol",
               "repro.baselines.authenticated.protocol",
               "repro.sim.server_centric")


def register_binary_codec(message_type: type) -> None:
    """Give ``message_type`` a binary codec built from its declaration.

    The class (a frozen dataclass) declares ``wire = (kind_byte,
    layout)`` in its own body -- see the module docstring -- and may
    add a third item, the name of the classmethod decoded instances are
    built with (default: the class itself).  This is the one
    registration path, for the library's vocabulary and for user types
    alike.  Registering a class again is a no-op; a kind byte already
    bound to another class is refused.
    """
    declaration = message_type.__dict__.get("wire")
    if declaration is None:
        raise TransportError(
            f"{message_type.__name__} declares no wire layout")
    kind, layout, *constructor = declaration
    if _BIN_KINDS.get(message_type) == kind:
        return
    if kind in _BIN_DECODERS or not 0 <= kind <= 0xFF:
        raise TransportError(
            f"binary kind byte {kind} is already registered or not a byte")
    new = getattr(message_type, constructor[0]) if constructor \
        else message_type
    encoder, decoder = _build(message_type, kind, layout, new)
    _BIN_ENCODERS[message_type] = encoder
    _BIN_DECODERS[kind] = decoder
    _BIN_KINDS[message_type] = kind


def encode_message_binary(message: Any) -> bytes:
    """One message (or Batch) as a self-identifying binary frame."""
    encoder = _BIN_ENCODERS.get(type(message))
    if encoder is None:
        raise TransportError(
            f"no binary codec registered for {type(message).__name__}")
    buf = bytearray()
    buf.append(BINARY_MAGIC)
    encoder(buf, message, {})
    return bytes(buf)


def decode_message_binary(wire: Union[bytes, bytearray,
                                      memoryview]) -> Any:
    if len(wire) < 2 or wire[0] != BINARY_MAGIC:
        raise TransportError(f"not a binary frame: {bytes(wire[:2])!r}")
    decoder = _BIN_DECODERS.get(wire[1])
    if decoder is None:
        raise TransportError(f"no binary codec for kind byte {wire[1]}")
    message, pos = decoder(wire, 2, [])
    if pos != len(wire):
        raise TransportError(
            f"{len(wire) - pos} trailing bytes after binary frame")
    return message


for _module in _VOCABULARY:
    for _declared in vars(importlib.import_module(_module)).values():
        if (isinstance(_declared, type) and _declared.__module__ == _module
                and "wire" in _declared.__dict__):
            register_binary_codec(_declared)
