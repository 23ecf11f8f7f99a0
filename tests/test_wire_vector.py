"""Binary wire codec + vector round engine tests.

Covers the fast wire path end to end:

* property-based round trips and byte stability of the binary codec
  over every registered message class (tagged MWMR frames, ``Batch``
  envelopes), and one pinned frame per kind byte;
* fuzzed truncated/corrupted binary frames must fail with
  :class:`TransportError`, never another exception;
* the vector round engine: ``MuxClientHost.run_many`` under faults,
  deterministic ``SimKernel.invoke_many``, the TCP tier, and the
  ``handle_batch`` consistency guard.
"""

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.rules_registry import (_live_subclasses,
                                           _load_live_package)
from repro.automata.base import ClientOperation, resolve_batch_handler
from repro.adversary.byzantine import StaleReplier, ValueForger
from repro.baselines.abd.protocol import (AbdQuery, AbdQueryAck, AbdStore,
                                          AbdStoreAck)
from repro.baselines.authenticated.protocol import (AuthQuery, AuthQueryAck,
                                                    AuthStore, AuthStoreAck)
from repro.config import SystemConfig
from repro.core.atomic.protocol import WriteBack, WriteBackAck
from repro.core.regular import (CachedRegularStorageProtocol,
                                RegularStorageProtocol)
from repro.core.regular.object import RegularObject
from repro.core.safe import SafeStorageProtocol
from repro.crypto_sim import SignedValue, Signer
from repro.errors import FencedWriteError, TransportError
from repro.messages import (Batch, EpochFence, EpochFenceAck, HistoryEntry,
                            HistoryReadAck, LeaseProbe, LeaseProbeAck,
                            Message, Pw, PwAck, ReadAck, ReadRequest,
                            TagQuery, TagQueryAck, W, WriteAck, WriteFenced)
from repro.runtime import codec
from repro.runtime.codec import decode_message_binary, encode_message_binary
from repro.runtime.hosts import MuxClientHost, ObjectHost
from repro.runtime.memnet import AsyncNetwork
from repro.runtime.tcp import TcpObjectServer, TcpStorageClient
from repro.service import MultiRegisterStore
from repro.sim.kernel import SimKernel
from repro.sim.server_centric import PushUpdate
from repro.types import (BOTTOM, INITIAL_TSVAL, TimestampValue, TsrArray,
                         WRITER, WriterTag, WriteTuple, initial_write_tuple,
                         obj, reader)

CONFIG = SystemConfig.optimal(t=1, b=1, num_readers=2)


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# hypothesis strategies over the wire vocabulary
# ---------------------------------------------------------------------------

registers = st.sampled_from(["r0", "key:1", "key:2", "a-long/register·id"])
epochs = st.integers(min_value=0, max_value=2**40)
wids = st.integers(min_value=0, max_value=2**20)
indexes = st.integers(min_value=0, max_value=64)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=24),
    st.binary(max_size=24),
)


@st.composite
def tsvals(draw, min_ts=1):
    ts = draw(st.integers(min_value=min_ts, max_value=2**40))
    value = draw(scalars)
    if value is BOTTOM or (ts > 0 and isinstance(value, type(BOTTOM))):
        value = "v"
    if value is None:
        value = 0
    return TimestampValue(ts, value, wid=draw(wids))


@st.composite
def tsr_arrays(draw):
    num_objects = draw(st.integers(min_value=1, max_value=6))
    num_readers = draw(st.integers(min_value=1, max_value=3))
    rows = tuple(
        tuple(draw(st.one_of(st.none(),
                             st.integers(min_value=0, max_value=2**40)))
              for _ in range(num_readers))
        for _ in range(num_objects))
    return TsrArray(rows)


@st.composite
def wtuples(draw):
    return WriteTuple(draw(tsvals()), draw(tsr_arrays()))


@st.composite
def history_entries(draw):
    shape = draw(st.integers(min_value=0, max_value=2))
    if shape == 0:  # provisional: PW seen, W not yet
        return HistoryEntry(pw=draw(tsvals()), w=None)
    if shape == 1:  # complete, pw echoing the tuple's pair (the norm)
        w = draw(wtuples())
        return HistoryEntry(pw=w.tsval, w=w)
    return HistoryEntry(pw=draw(tsvals()), w=draw(wtuples()))


@st.composite
def histories(draw):
    tags = draw(st.lists(
        st.tuples(epochs, wids), min_size=0, max_size=6, unique=True))
    return {WriterTag(*tag): draw(history_entries()) for tag in tags}


@st.composite
def signed_values(draw):
    return SignedValue(payload=draw(tsvals()),
                       key_id=draw(st.sampled_from(["writer", "w·2"])),
                       tag=draw(st.binary(max_size=32)))


@st.composite
def messages(draw):
    kind = draw(st.integers(min_value=0, max_value=24))
    register_id = draw(registers)
    if kind == 0:
        tsval = draw(tsvals())
        return Pw(ts=tsval.ts, pw=tsval, w=draw(wtuples()),
                  register_id=register_id, wid=tsval.wid)
    if kind == 1:
        tsval = draw(tsvals())
        return W(ts=tsval.ts, pw=tsval, w=draw(wtuples()),
                 register_id=register_id, wid=tsval.wid)
    if kind == 2:
        return PwAck(ts=draw(epochs), object_index=draw(indexes),
                     tsr=tuple(draw(st.lists(
                         st.one_of(st.none(), epochs), max_size=4))),
                     top_epoch=draw(epochs), top_wid=draw(wids),
                     register_id=register_id, wid=draw(wids))
    if kind == 3:
        return WriteAck(ts=draw(epochs), object_index=draw(indexes),
                        register_id=register_id, wid=draw(wids))
    if kind == 4:
        return TagQuery(nonce=draw(epochs), register_id=register_id)
    if kind == 5:
        return TagQueryAck(nonce=draw(epochs),
                           object_index=draw(indexes),
                           epoch=draw(epochs), wid=draw(wids),
                           register_id=register_id)
    if kind == 6:
        return EpochFence(nonce=draw(epochs), epoch=draw(epochs),
                          register_id=register_id,
                          hard=draw(st.booleans()),
                          lift=draw(st.booleans()))
    if kind == 7:
        return EpochFenceAck(nonce=draw(epochs),
                             object_index=draw(indexes),
                             epoch=draw(epochs),
                             register_id=register_id)
    if kind == 8:
        return WriteFenced(object_index=draw(indexes),
                           epoch=draw(epochs),
                           fence_epoch=draw(epochs), wid=draw(wids),
                           nonce=draw(epochs), register_id=register_id)
    if kind == 9:
        from_ts = draw(st.one_of(
            st.none(), st.tuples(epochs, wids).map(lambda t: WriterTag(*t))))
        return ReadRequest(round_index=draw(st.sampled_from([1, 2])),
                           tsr=draw(epochs), reader_index=draw(indexes),
                           from_ts=from_ts, register_id=register_id)
    if kind == 10:
        return ReadAck(round_index=draw(st.sampled_from([1, 2])),
                       tsr=draw(epochs), object_index=draw(indexes),
                       pw=draw(tsvals()), w=draw(wtuples()),
                       register_id=register_id)
    if kind == 11:
        return HistoryReadAck(round_index=draw(st.sampled_from([1, 2])),
                              tsr=draw(epochs), object_index=draw(indexes),
                              history=draw(histories()),
                              register_id=register_id)
    if kind == 12:
        return LeaseProbe(nonce=draw(epochs), epoch=draw(epochs),
                          reader_index=draw(indexes), wid=draw(wids),
                          register_id=register_id)
    if kind == 13:
        return LeaseProbeAck(nonce=draw(epochs), object_index=draw(indexes),
                             epoch=draw(epochs), wid=draw(wids),
                             holds=draw(st.booleans()),
                             fenced=draw(st.booleans()),
                             register_id=register_id)
    if kind == 14:
        return AbdStore(tsval=draw(tsvals()), nonce=draw(epochs),
                        register_id=register_id,
                        write_back=draw(st.booleans()))
    if kind == 15:
        return AbdStoreAck(nonce=draw(epochs), ts=draw(epochs),
                           register_id=register_id)
    if kind == 16:
        return AbdQuery(nonce=draw(epochs), register_id=register_id)
    if kind == 17:
        return AbdQueryAck(nonce=draw(epochs),
                           tsval=draw(st.one_of(st.just(INITIAL_TSVAL),
                                                tsvals())),
                           register_id=register_id)
    if kind == 18:
        return AuthStore(signed=draw(signed_values()), nonce=draw(epochs),
                         register_id=register_id)
    if kind == 19:
        return AuthStoreAck(nonce=draw(epochs), register_id=register_id)
    if kind == 20:
        return AuthQuery(nonce=draw(epochs), register_id=register_id)
    if kind == 21:
        return AuthQueryAck(nonce=draw(epochs),
                            signed=draw(st.one_of(st.none(),
                                                  signed_values())),
                            register_id=register_id)
    if kind == 22:
        return WriteBack(c=draw(wtuples()), nonce=draw(epochs),
                         reader_index=draw(indexes), register_id=register_id)
    if kind == 23:
        return WriteBackAck(nonce=draw(epochs), object_index=draw(indexes),
                            register_id=register_id)
    return PushUpdate(object_index=draw(indexes), tsval=draw(tsvals()))


_ARR = TsrArray(((1, None), (None, 4)))
_PREV = WriteTuple(TimestampValue(2, "v2", wid=1), _ARR)
_SIGNED = Signer("writer").sign(TimestampValue(6, "s6"))

#: One frame per kind byte, recorded from the hand-written codec the
#: declarations replaced: the derived codec must reproduce every byte
#: (write-ahead logs and snapshots keep frames as they arrived).  The
#: PwAck frames were re-recorded when PW acks gained the top tag the
#: multi-writer writer checks its guess against (acks are replies, so
#: no log or snapshot holds one).
GOLDEN = [
    (Pw(ts=3, pw=TimestampValue(3, "v3", wid=2), w=_PREV, register_id="k",
            wid=2),
     "b101030000000000000002000000ff010000006b030000000000000002000000"
     "07ff02000000763302000000000000000100000007ff02000000763202000200"
     "0100000000000000ffffffffffffffffffffffffffffffff0400000000000000"),
    (W(ts=3, pw=TimestampValue(3, 33),
           w=WriteTuple(TimestampValue(3, 33), _ARR), register_id="k"),
     "b102030000000000000000000000ff010000006b030000000000000000000000"
     "0421000000000000000300000000000000000000000421000000000000000200"
     "02000100000000000000ffffffffffffffffffffffffffffffff040000000000"
     "0000"),
    (PwAck(ts=4, object_index=2, tsr=(5, None, 7), top_epoch=3, top_wid=2,
           register_id="k", wid=1),
     "b103040000000000000001000000020000000300000000000000020000000300"
     "0500000000000000ffffffffffffffff0700000000000000ff010000006b"),
    (WriteAck(ts=4, object_index=1, register_id="k", wid=3),
     "b10404000000000000000300000001000000ff010000006b"),
    (TagQuery(nonce=11, register_id="k"),
     "b1050b00000000000000ff010000006b"),
    (TagQueryAck(nonce=11, object_index=3, epoch=9, wid=2, register_id="k"),
     "b1060b0000000000000003000000090000000000000002000000ff010000006b"),
    (EpochFence(nonce=12, epoch=20, register_id="k", hard=True),
     "b1070c00000000000000140000000000000001ff010000006b"),
    (EpochFenceAck(nonce=12, object_index=1, epoch=20, register_id="k"),
     "b1080c00000000000000010000001400000000000000ff010000006b"),
    (WriteFenced(object_index=2, epoch=8, fence_epoch=20, wid=1, nonce=13,
                     register_id="k"),
     "b1090200000008000000000000001400000000000000010000000d0000000000"
     "0000ff010000006b"),
    (ReadRequest(round_index=2, tsr=6, reader_index=1,
                     from_ts=WriterTag(4, 2), register_id="k"),
     "b10a02060000000000000001000000050000000000000002000000ff01000000"
     "6b"),
    (ReadAck(round_index=1, tsr=6, object_index=0,
                 pw=TimestampValue(3, "v3", wid=2), w=_PREV, register_id="k"),
     "b10b01060000000000000000000000ff010000006b0300000000000000020000"
     "0007ff02000000763302000000000000000100000007ff020000007632020002"
     "000100000000000000ffffffffffffffffffffffffffffffff04000000000000"
     "00"),
    (HistoryReadAck(round_index=2, tsr=6, object_index=1, register_id="k",
                        history={  # flags 4, 1 and 1|2
                            WriterTag(2, 1): HistoryEntry(pw=_PREV.tsval,
                                                          w=_PREV),
                            WriterTag(3, 2): HistoryEntry(
                                pw=TimestampValue(3, "v3", wid=2), w=None),
                            WriterTag(4, 0): HistoryEntry(
                                pw=TimestampValue(4, b"\x00\xff"), w=_PREV)}),
     "b10c0206000000000000000100000003000000ff010000006b02000000000000"
     "00010000000402000000000000000100000007ff020000007632020002000100"
     "000000000000ffffffffffffffffffffffffffffffff04000000000000000300"
     "000000000000020000000103000000000000000200000007ff02000000763304"
     "000000000000000000000003040000000000000000000000080200000000ff02"
     "00000000000000010000000701020002000100000000000000ffffffffffffff"
     "ffffffffffffffffff0400000000000000"),
    (Batch(messages=(  # the other side of every flag and option
            PwAck(ts=4, object_index=0, tsr=(None,), top_epoch=0,
                  top_wid=0, register_id="k"),
            PwAck(ts=4, object_index=1, tsr=(9,), top_epoch=4, top_wid=3,
                  register_id="k2"),
            ReadRequest(round_index=1, tsr=7, reader_index=0, register_id="k"),
            EpochFence(nonce=21, epoch=0, register_id="k2", lift=True),
            LeaseProbeAck(nonce=22, object_index=0, epoch=1, fenced=True,
                          register_id="k"),
            AuthQueryAck(nonce=23, signed=None, register_id="k"),
            AbdStore(tsval=TimestampValue(5, None), nonce=24, register_id="k"),
        )),
     "b10d070000000304000000000000000000000000000000000000000000000000"
     "0000000100ffffffffffffffffff010000006b03040000000000000000000000"
     "0100000004000000000000000300000001000900000000000000ff020000006b"
     "320a010700000000000000000000000000000000000000000000000007150000"
     "0000000000000000000000000002010f16000000000000000000000001000000"
     "0000000000000000020047170000000000000000004000180000000000000000"
     "05000000000000000000000000"),
    (LeaseProbe(nonce=14, epoch=4, reader_index=1, wid=2, register_id="k"),
     "b10e0e0000000000000004000000000000000200000001000000ff010000006b"),
    (LeaseProbeAck(nonce=14, object_index=2, epoch=4, wid=2, holds=True,
                       register_id="k"),
     "b10f0e000000000000000200000004000000000000000200000001ff01000000"
     "6b"),
    (AbdStore(tsval=TimestampValue(5, "a5"), nonce=15, register_id="k",
                  write_back=True),
     "b140010f00000000000000ff010000006b05000000000000000000000007ff02"
     "0000006135"),
    (AbdStoreAck(nonce=15, ts=5, register_id="k"),
     "b1410f00000000000000000000000500000000000000ff010000006b"),
    (AbdQuery(nonce=16, register_id="k"),
     "b1421000000000000000ff010000006b"),
    (AbdQueryAck(nonce=16, tsval=TimestampValue(5, "a5", wid=1),
                     register_id="k"),
     "b1431000000000000000ff010000006b0905000000000000000100000007ff02"
     "0000006135"),
    (AuthStore(signed=_SIGNED, nonce=17, register_id="k"),
     "b1441100000000000000ff010000006b010906000000000000000000000007ff"
     "020000007336ff060000007772697465720820000000a677d5ae155db0ac4a27"
     "e069b4a2dc99142abae019a2b12c20c333b081a3c63f"),
    (AuthStoreAck(nonce=17, register_id="k"),
     "b1451100000000000000ff010000006b"),
    (AuthQuery(nonce=18, register_id="k"),
     "b1461200000000000000ff010000006b"),
    (AuthQueryAck(nonce=18, signed=_SIGNED, register_id="k"),
     "b1471200000000000000ff010000006b010906000000000000000000000007ff"
     "020000007336ff060000007772697465720820000000a677d5ae155db0ac4a27"
     "e069b4a2dc99142abae019a2b12c20c333b081a3c63f"),
    (WriteBack(c=WriteTuple(TimestampValue(7, "c7"), _ARR), nonce=19,
                  reader_index=1, register_id="k"),
     "b1481300000000000000010000000000000000000000ff010000006b07000000"
     "000000000000000007ff020000006337020002000100000000000000ffffffff"
     "ffffffffffffffffffffffff0400000000000000"),
    (WriteBackAck(nonce=19, object_index=3, register_id="k"),
     "b1491300000000000000030000000000000000000000ff010000006b"),
    (PushUpdate(object_index=2, tsval=TimestampValue(8, 2.5)),
     "b14a020000000000000009080000000000000000000000060000000000000440"),
]


class TestWireDeclarations:
    def test_kind_byte_registry_snapshot(self):
        """The kind-byte table derived from the declarations, and the
        frames above byte for byte: a reused or renumbered kind byte,
        or a drifted layout, is a wire break."""
        table = {cls.__name__: kind
                 for cls, kind in codec._BIN_KINDS.items()}
        assert table == {
            # core vocabulary (kinds < 64 are reserved for it)
            "Pw": 1, "W": 2, "PwAck": 3, "WriteAck": 4,
            "TagQuery": 5, "TagQueryAck": 6,
            "EpochFence": 7, "EpochFenceAck": 8, "WriteFenced": 9,
            "ReadRequest": 10, "ReadAck": 11, "HistoryReadAck": 12,
            "Batch": 13, "LeaseProbe": 14, "LeaseProbeAck": 15,
            # extension vocabularies (>= 64)
            "AbdStore": 64, "AbdStoreAck": 65,
            "AbdQuery": 66, "AbdQueryAck": 67,
            "AuthStore": 68, "AuthStoreAck": 69,
            "AuthQuery": 70, "AuthQueryAck": 71,
            "WriteBack": 72, "WriteBackAck": 73,
            "PushUpdate": 74,
        }
        assert sorted(bytes.fromhex(frame)[1] for _, frame in GOLDEN) \
            == sorted(table.values())
        for message, frame in GOLDEN:
            wire = bytes.fromhex(frame)
            assert encode_message_binary(message) == wire, message
            assert decode_message_binary(wire) == message

        # every message class of the package travels as a frame, except
        # history entries (they ride inside HistoryReadAck)
        _load_live_package()
        undeclared = sorted(
            cls.__name__ for cls in _live_subclasses(Message)
            if cls.__module__.startswith("repro.")
            and cls is not HistoryEntry and cls not in codec._BIN_KINDS)
        assert undeclared == []


class TestCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(messages())
    def test_binary_encoding_is_byte_stable(self, message):
        """A decoded frame re-encodes to the very same bytes: the WAL
        stores inbound frames as they arrived, so the bytes a replica
        logs and the bytes it would encode must not drift apart."""
        wire = encode_message_binary(message)
        decoded = decode_message_binary(wire)
        assert decoded == message
        assert encode_message_binary(decoded) == wire

    @settings(max_examples=60, deadline=None)
    @given(st.lists(messages(), min_size=0, max_size=5))
    def test_batch_equivalence(self, parts):
        batch = Batch(messages=tuple(parts))
        wire = encode_message_binary(batch)
        assert decode_message_binary(wire) == batch
        assert encode_message_binary(decode_message_binary(wire)) == wire

    @settings(max_examples=80, deadline=None)
    @given(messages())
    def test_truncated_frames_rejected(self, message):
        """Every strict prefix either fails with TransportError or (for a
        prefix that is itself a complete frame) decodes -- no other
        exception type may escape."""
        wire = encode_message_binary(message)
        for cut in range(len(wire)):
            try:
                decode_message_binary(wire[:cut])
            except TransportError:
                pass

    @settings(max_examples=80, deadline=None)
    @given(messages(), st.data())
    def test_corrupted_frames_never_crash(self, message, data):
        """Single-byte corruption decodes, raises TransportError, or
        (on payload bytes) yields a different message -- never an
        arbitrary exception."""
        wire = bytearray(encode_message_binary(message))
        position = data.draw(st.integers(min_value=0,
                                         max_value=len(wire) - 1))
        wire[position] ^= data.draw(st.integers(min_value=1,
                                                max_value=255))
        try:
            decode_message_binary(bytes(wire))
        except TransportError:
            pass


class TestCodecCaches:
    def test_equal_payloads_of_another_type_keep_their_type(self):
        """Regression: ``0 == False == 0.0`` (and ``0.0 == -0.0``) hash
        alike, so the codec's intern caches handed back whichever type
        they had seen first -- a written ``0`` decoded as ``False``, a
        ``1.0`` re-encoded as ``1``."""
        tsr = TsrArray.empty(4, 1)
        for value in (False, 0, 0.0, -0.0, 1.0, True, 1) * 2:
            pair = TimestampValue(9, value)
            for message in (
                    Pw(ts=9, pw=pair, w=WriteTuple(pair, tsr)),
                    HistoryReadAck(round_index=1, tsr=0, object_index=0,
                                   history={pair.tag: HistoryEntry(
                                       pw=pair, w=WriteTuple(pair, tsr))})):
                wire = encode_message_binary(message)
                decoded = decode_message_binary(wire)
                if isinstance(decoded, Pw):
                    got = [decoded.pw.value, decoded.w.value]
                else:
                    (entry,) = decoded.history.values()
                    got = [entry.pw.value, entry.w.value]
                assert [repr(v) for v in got] == [repr(value)] * 2
                assert encode_message_binary(decoded) == wire

    def test_nested_string_value_keeps_table_in_sync(self):
        """Regression: a write tuple whose *nested* value hides a string
        must not take the context-independent cached encoding -- that
        would desynchronize the frame's shared string table and corrupt
        later strings in the same frame."""
        arr = TsrArray.empty(2, 1)
        nested = WriteTuple(
            TimestampValue(7, TimestampValue(5, "shared-string")), arr)
        plain = initial_write_tuple(2, 1)
        batch = Batch(messages=(
            Pw(ts=7, pw=TimestampValue(7, "x"), w=nested,
               register_id="regA"),
            Pw(ts=1, pw=TimestampValue(1, "y"), w=plain,
               register_id="regB"),
            Pw(ts=2, pw=TimestampValue(2, "z"), w=plain,
               register_id="regB"),
        ))
        decoded = decode_message_binary(encode_message_binary(batch))
        assert decoded == batch
        assert decoded.messages[2].register_id == "regB"


class TestVectorEngine:
    def test_run_many_vector_rides_one_frame_per_replica_step(self):
        """256 keys' write round must cost S frames, not 256 * S."""
        async def scenario():
            store = MultiRegisterStore(CachedRegularStorageProtocol(),
                                       SystemConfig.optimal(
                                           t=1, b=1, num_readers=1))
            await store.start()
            keys = [f"k{i}" for i in range(64)]
            before = store.network.messages_sent
            await store.write_many({k: f"v-{k}" for k in keys})
            sent = store.network.messages_sent - before
            reads = await store.read_many(keys)
            await store.stop()
            assert reads == {k: f"v-{k}" for k in keys}
            # Write = 2 rounds broadcast (2*S=8 frames) + acks (one
            # reply frame per object per burst).  Allow slack for burst
            # splits, but a per-key framing regression (64*4 and up)
            # must fail loudly.
            assert sent < 64, f"write batch cost {sent} frames"

        run(scenario())

    def test_vector_write_read_with_byzantine_replica(self):
        """The vector path keeps the protocol's fault tolerance: one
        forging replica cannot corrupt batched reads."""
        async def scenario():
            config = SystemConfig.optimal(t=1, b=1, num_readers=1)
            store = MultiRegisterStore(RegularStorageProtocol(), config)
            await store.start()
            keys = [f"k{i}" for i in range(16)]
            await store.write_many({k: f"v-{k}" for k in keys})
            store.make_byzantine(0, ValueForger(
                store.object_automaton(0), config,
                forged_value="FORGED"))
            reads = await store.read_many(keys)
            await store.stop()
            assert reads == {k: f"v-{k}" for k in keys}

        run(scenario())

    def test_vector_batch_fails_fast_on_fence(self):
        """A fenced register fails the whole batch with the fence error
        (run_many's cancel-siblings contract)."""
        async def scenario():
            config = SystemConfig.optimal(t=1, b=1, num_readers=1)
            store = MultiRegisterStore(CachedRegularStorageProtocol(),
                                       config)
            await store.start()
            await store.write_many({"a": 1, "b": 2})
            # Hard-fence register "a" at every replica.
            for i in range(config.num_objects):
                automaton = store.object_automaton(i)
                automaton.fences["a"] = 10**6
            with pytest.raises(FencedWriteError):
                await store.write_many({"a": 10, "b": 20})
            # The fenced batch must leave both registers writable for
            # later (unfenced) work.
            for i in range(config.num_objects):
                automaton = store.object_automaton(i)
                automaton.fences.pop("a", None)
            await store.write_many({"a": 30, "b": 40})
            reads = await store.read_many(["a", "b"])
            await store.stop()
            assert reads == {"a": 30, "b": 40}

        run(scenario())

    def test_sim_invoke_many_vector_rounds(self):
        """The deterministic twin: batched writes+reads as Batch frames
        through the kernel, same results, batch envelopes on the wire."""
        config = SystemConfig.optimal(t=1, b=1, num_readers=1)
        protocol = CachedRegularStorageProtocol()
        kernel = SimKernel(config)
        kernel.register_objects(protocol.make_objects(config))
        states = protocol.client_states(config)
        keys = [f"k{i}" for i in range(12)]
        writes = kernel.invoke_many([
            protocol.make_write_to(states.writer(k), f"v-{k}", k)
            for k in keys])
        kernel.run_until(lambda: all(h.done for h in writes))
        assert all(h.result == "OK" for h in writes)
        read_handles = kernel.invoke_many([
            protocol.make_read_from(states.reader(k), k) for k in keys])
        kernel.run_until(lambda: all(h.done for h in read_handles))
        assert [h.result for h in read_handles] == \
            [f"v-{k}" for k in keys]
        batched = [e for e in kernel.trace
                   if e.payload is not None
                   and isinstance(e.payload, Batch)]
        assert batched, "vector rounds must ride Batch envelopes"

    def test_sim_invoke_many_with_stale_replier(self):
        config = SystemConfig.optimal(t=1, b=1, num_readers=1)
        protocol = RegularStorageProtocol()
        kernel = SimKernel(config)
        automata = protocol.make_objects(config)
        kernel.register_objects(automata)
        kernel.make_byzantine(obj(0), StaleReplier(automata[0], config))
        states = protocol.client_states(config)
        keys = [f"k{i}" for i in range(8)]
        writes = kernel.invoke_many([
            protocol.make_write_to(states.writer(k), f"v-{k}", k)
            for k in keys])
        kernel.run_until(lambda: all(h.done for h in writes))
        reads = kernel.invoke_many([
            protocol.make_read_from(states.reader(k), k) for k in keys])
        kernel.run_until(lambda: all(h.done for h in reads))
        assert [h.result for h in reads] == [f"v-{k}" for k in keys]

    def test_resolve_batch_handler_guards_overrides(self):
        """A subclass overriding on_message below a specialized
        handle_batch must not inherit the fast path silently."""
        config = SystemConfig.optimal(t=1, b=1, num_readers=1)
        plain = RegularObject(0, config)
        assert resolve_batch_handler(plain).__func__ \
            is RegularObject.handle_batch

        class Lying(RegularObject):
            def on_message(self, sender, message):
                return []  # drops everything

        lying = Lying(0, config)
        handler = resolve_batch_handler(lying)
        sink = []
        leftovers = handler(
            reader(0), (ReadRequest(round_index=1, tsr=1,
                                    reader_index=0),), sink)
        # The override's semantics (silence) must win over the parent's
        # fast path, which would have produced an ack.
        assert sink == [] and (leftovers or []) == []


class TagQuorum(ClientOperation):
    """Defines only the vector triple: one TagQuery round, done at a
    quorum of acks, returning the highest tag reported."""

    kind = "READ"

    def __init__(self, config):
        super().__init__(WRITER)
        self.config = config
        self.tags = {}

    def start_vector(self, sink, leftovers):
        self.begin_round()
        sink.append(TagQuery(nonce=self.operation_id,
                             register_id=self.register_id))

    def absorb(self, sender, message):
        if (isinstance(message, TagQueryAck)
                and message.nonce == self.operation_id):
            self.tags[sender.index] = message.tag

    def advance(self, sink, leftovers):
        if not self.done and len(self.tags) >= self.config.quorum_size:
            self.complete(max(self.tags.values()))


class TestOneClientContract:
    """Every engine runs operations through start_vector/absorb/advance
    alone; single-operation calls are one-member vector rounds."""

    def test_vector_only_operation_on_sim_kernel(self):
        config = SystemConfig.optimal(t=1, b=1, num_readers=1)
        kernel = SimKernel(config)
        kernel.register_objects(SafeStorageProtocol().make_objects(config))
        handle = kernel.run_operation(TagQuorum(config))
        assert handle.result == WriterTag(0, 0)
        assert handle.rounds_used == 1

    def test_vector_only_operation_on_mux_client_host(self):
        async def scenario():
            config = SystemConfig.optimal(t=1, b=1, num_readers=1)
            network = AsyncNetwork()
            hosts = [ObjectHost(o, network) for o in
                     SafeStorageProtocol().make_objects(config)]
            for host in hosts:
                host.start()
            client = MuxClientHost(WRITER, network)
            try:
                return await client.run(TagQuorum(config), timeout=5)
            finally:
                client.stop()
                for host in hosts:
                    host.stop()

        assert run(scenario()) == WriterTag(0, 0)

    def test_vector_only_operation_on_tcp_client(self):
        async def scenario():
            config = SystemConfig.optimal(t=1, b=1, num_readers=1)
            servers = [TcpObjectServer(o) for o in
                       SafeStorageProtocol().make_objects(config)]
            endpoints = [("127.0.0.1", await s.start()) for s in servers]
            client = TcpStorageClient(WRITER, endpoints)
            await client.connect()
            try:
                return await client.run(TagQuorum(config), timeout=5)
            finally:
                await client.close()
                for server in servers:
                    await server.stop()

        assert run(scenario()) == WriterTag(0, 0)

    def test_tcp_run_skips_an_aborted_endpoint(self):
        """A single-key run treats one dead replica as a slow object,
        as run_many does, instead of failing the operation."""
        async def scenario():
            protocol = RegularStorageProtocol()
            config = SystemConfig.optimal(t=1, b=1, num_readers=1)
            servers = [TcpObjectServer(o)
                       for o in protocol.make_objects(config)]
            endpoints = [("127.0.0.1", await s.start()) for s in servers]
            writer_client = TcpStorageClient(WRITER, endpoints)
            reader_client = TcpStorageClient(reader(0), endpoints)
            await writer_client.connect()
            await reader_client.connect()
            try:
                # replica 3 dies: listener gone, connections reset
                await servers[3].stop()
                for client in (writer_client, reader_client):
                    client._connections[3][1].transport.abort()
                await asyncio.sleep(0)
                written = await writer_client.run(
                    protocol.make_write(protocol.make_writer_state(config),
                                        "v"), timeout=5)
                read = await reader_client.run(
                    protocol.make_read(
                        protocol.make_reader_state(config, 0)), timeout=5)
                return written, read
            finally:
                await writer_client.close()
                await reader_client.close()
                for server in servers[:3]:
                    await server.stop()

        assert run(scenario()) == ("OK", "v")


class TestTcpWireFormats:
    def test_full_protocol_over_sockets(self):
        async def scenario():
            protocol = CachedRegularStorageProtocol()
            config = SystemConfig.optimal(t=1, b=1, num_readers=1)
            servers = [TcpObjectServer(o)
                       for o in protocol.make_objects(config)]
            ports = [await s.start() for s in servers]
            endpoints = [("127.0.0.1", p) for p in ports]
            states = protocol.client_states(config)
            writer_client = TcpStorageClient(WRITER, endpoints)
            reader_client = TcpStorageClient(reader(0), endpoints)
            await writer_client.connect()
            await reader_client.connect()
            try:
                keys = [f"k{i}" for i in range(6)]
                results = await writer_client.run_many([
                    protocol.make_write_to(states.writer(k), f"v-{k}", k)
                    for k in keys])
                assert results == ["OK"] * len(keys)
                reads = await reader_client.run_many([
                    protocol.make_read_from(states.reader(k), k)
                    for k in keys])
                assert reads == [f"v-{k}" for k in keys]
            finally:
                await writer_client.close()
                await reader_client.close()
                for server in servers:
                    await server.stop()

        run(scenario())
