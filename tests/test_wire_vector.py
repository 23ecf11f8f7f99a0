"""Binary wire codec + vector round engine tests.

Covers the fast wire path end to end:

* property-based round trips and byte stability of the binary codec
  over every message type (tagged MWMR frames, ``Batch`` envelopes);
* fuzzed truncated/corrupted binary frames must fail with
  :class:`TransportError`, never another exception;
* the vector round engine: ``MuxClientHost.run_many`` under faults,
  deterministic ``SimKernel.invoke_many``, the TCP tier, and the
  ``handle_batch`` consistency guard.
"""

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.base import resolve_batch_handler
from repro.adversary.byzantine import StaleReplier, ValueForger
from repro.config import SystemConfig
from repro.core.regular import (CachedRegularStorageProtocol,
                                RegularStorageProtocol)
from repro.core.regular.object import RegularObject
from repro.errors import FencedWriteError, TransportError
from repro.messages import (Batch, EpochFence, EpochFenceAck, HistoryEntry,
                            HistoryReadAck, Pw, PwAck, ReadAck, ReadRequest,
                            TagQuery, TagQueryAck, W, WriteAck, WriteFenced)
from repro.runtime.codec import decode_message_binary, encode_message_binary
from repro.runtime.tcp import TcpObjectServer, TcpStorageClient
from repro.service import MultiRegisterStore
from repro.sim.kernel import SimKernel
from repro.types import (BOTTOM, TimestampValue, TsrArray, WRITER,
                         WriterTag, WriteTuple, initial_write_tuple, obj,
                         reader)

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
def messages(draw):
    kind = draw(st.integers(min_value=0, max_value=11))
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
    return HistoryReadAck(round_index=draw(st.sampled_from([1, 2])),
                          tsr=draw(epochs), object_index=draw(indexes),
                          history=draw(histories()),
                          register_id=register_id)


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
    @given(messages(), st.data())
    def test_truncated_frames_rejected(self, message, data):
        """Any strict prefix either fails with TransportError or (for a
        prefix that is itself a complete frame) decodes -- no other
        exception type may escape."""
        wire = encode_message_binary(message)
        cut = data.draw(st.integers(min_value=0,
                                    max_value=len(wire) - 1))
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
                automaton.hard_fences.add("a")
                automaton.fences["a"] = 10**6
            with pytest.raises(FencedWriteError):
                await store.write_many({"a": 10, "b": 20})
            # The fenced batch must leave both registers writable for
            # later (unfenced) work.
            for i in range(config.num_objects):
                automaton = store.object_automaton(i)
                automaton.hard_fences.discard("a")
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
        kernel.make_byzantine(obj(0), StaleReplier(automata[0]))
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
