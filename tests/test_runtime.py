"""Tests for the asyncio runtime: codec, in-memory network, TCP tier."""

import asyncio

import pytest

from repro.baselines import AuthenticatedProtocol
from repro.config import SystemConfig
from repro.core.regular import RegularStorageProtocol
from repro.core.safe import SafeStorageProtocol
from repro.errors import TransportError
from repro.messages import (HistoryEntry, HistoryReadAck, Pw, PwAck, ReadAck,
                            ReadRequest, W, WriteAck)
from repro.runtime import AsyncStorage, TcpObjectServer, TcpStorageClient
from repro.runtime.codec import (BINARY_MAGIC, decode_message_binary,
                                 encode_message_binary)
from repro.types import (BOTTOM, INITIAL_TSVAL, TimestampValue, TsrArray,
                         WRITER, WriteTuple, initial_write_tuple, reader)


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------


class TestCodec:
    @pytest.fixture
    def wtuple(self):
        arr = TsrArray.empty(3, 2).with_entry(1, 0, 7)
        return WriteTuple(TimestampValue(2, "payload"), arr)

    @pytest.mark.parametrize("factory", [
        lambda wt: Pw(ts=2, pw=wt.tsval, w=wt),
        lambda wt: W(ts=2, pw=wt.tsval, w=wt),
        lambda wt: PwAck(ts=2, object_index=1, tsr=(0, 3)),
        lambda wt: WriteAck(ts=2, object_index=0),
        lambda wt: ReadRequest(round_index=1, tsr=4, reader_index=1),
        lambda wt: ReadRequest(round_index=2, tsr=5, reader_index=0,
                               from_ts=3),
        lambda wt: ReadAck(round_index=1, tsr=4, object_index=2,
                           pw=wt.tsval, w=wt),
    ])
    def test_roundtrip(self, factory, wtuple):
        message = factory(wtuple)
        assert decode_message_binary(encode_message_binary(message)) \
            == message

    def test_history_ack_roundtrip(self, wtuple):
        ack = HistoryReadAck(
            round_index=2, tsr=9, object_index=1,
            history={0: HistoryEntry(pw=INITIAL_TSVAL,
                                     w=initial_write_tuple(3, 2)),
                     2: HistoryEntry(pw=wtuple.tsval, w=None)})
        decoded = decode_message_binary(encode_message_binary(ack))
        assert decoded == ack
        assert decoded.history[2, 0].w is None

    def test_bottom_survives_the_wire(self):
        message = Pw(ts=1, pw=TimestampValue(1, "x"),
                     w=initial_write_tuple(2, 1))
        decoded = decode_message_binary(encode_message_binary(message))
        assert decoded.w.value is BOTTOM

    def test_malformed_wire_rejected(self):
        for wire in (
            b"",                                  # empty
            b'{"__kind": "WriteAck"}',            # bad magic
            bytes([BINARY_MAGIC, 0xEE]),          # unknown kind byte
            encode_message_binary(WriteAck(ts=2, object_index=0)) + b"\x00",
        ):
            with pytest.raises(TransportError):
                decode_message_binary(wire)

    def test_unregistered_type_rejected(self):
        with pytest.raises(TransportError):
            encode_message_binary(("tuple", "payload"))


# ---------------------------------------------------------------------------
# In-memory asyncio runtime
# ---------------------------------------------------------------------------


class TestAsyncStorage:
    @pytest.mark.parametrize("protocol_cls", [SafeStorageProtocol,
                                              RegularStorageProtocol,
                                              AuthenticatedProtocol])
    def test_write_then_read(self, protocol_cls):
        async def scenario():
            config = SystemConfig.optimal(t=1, b=1, num_readers=1)
            async with AsyncStorage(protocol_cls(), config) as storage:
                await storage.write("v1")
                return await storage.read(0)

        assert run(scenario()) == "v1"

    def test_initial_read_is_bottom(self):
        async def scenario():
            config = SystemConfig.optimal(t=1, b=1)
            async with AsyncStorage(SafeStorageProtocol(), config) as st:
                return await st.read(0)

        assert run(scenario()) is BOTTOM

    def test_concurrent_clients_with_jitter(self):
        async def scenario():
            config = SystemConfig.optimal(t=1, b=1, num_readers=2)
            async with AsyncStorage(SafeStorageProtocol(), config,
                                    jitter=0.003, seed=2) as storage:
                await storage.write("v1")
                results = await asyncio.gather(
                    storage.write("v2"), storage.read(0), storage.read(1))
                return results

        ok, r0, r1 = run(scenario())
        assert ok == "OK"
        assert r0 in ("v1", "v2")
        assert r1 in ("v1", "v2")

    def test_survives_object_crashes(self):
        async def scenario():
            config = SystemConfig.optimal(t=2, b=1, num_readers=1)
            async with AsyncStorage(SafeStorageProtocol(), config) as st:
                await st.write("v1")
                st.crash_object(0)
                st.crash_object(1)
                await st.write("v2")
                return await st.read(0)

        assert run(scenario()) == "v2"

    def test_byzantine_forger_absorbed(self):
        async def scenario():
            from repro.adversary.byzantine import ValueForger
            config = SystemConfig.optimal(t=1, b=1, num_readers=1)
            async with AsyncStorage(SafeStorageProtocol(), config) as st:
                honest = st._object_hosts[0].automaton
                st.make_byzantine(0, ValueForger(honest, config))
                await st.write("real")
                return await st.read(0)

        assert run(scenario()) == "real"

    def test_use_before_start_rejected(self):
        async def scenario():
            config = SystemConfig.optimal(t=1, b=1)
            storage = AsyncStorage(SafeStorageProtocol(), config)
            with pytest.raises(TransportError):
                await storage.write("x")

        run(scenario())


# ---------------------------------------------------------------------------
# TCP tier
# ---------------------------------------------------------------------------


class TestTcp:
    def test_full_protocol_over_sockets(self):
        async def scenario():
            protocol = RegularStorageProtocol()
            config = SystemConfig.optimal(t=1, b=1, num_readers=1)
            servers = [TcpObjectServer(o)
                       for o in protocol.make_objects(config)]
            ports = [await s.start() for s in servers]
            endpoints = [("127.0.0.1", p) for p in ports]
            wstate = protocol.make_writer_state(config)
            rstate = protocol.make_reader_state(config, 0)
            writer_client = TcpStorageClient(WRITER, endpoints)
            reader_client = TcpStorageClient(reader(0), endpoints)
            await writer_client.connect()
            await reader_client.connect()
            try:
                assert await writer_client.run(
                    protocol.make_write(wstate, "tcp-1")) == "OK"
                assert await reader_client.run(
                    protocol.make_read(rstate)) == "tcp-1"
                assert await writer_client.run(
                    protocol.make_write(wstate, "tcp-2")) == "OK"
                assert await reader_client.run(
                    protocol.make_read(rstate)) == "tcp-2"
            finally:
                await writer_client.close()
                await reader_client.close()
                for server in servers:
                    await server.stop()

        run(scenario())

    def test_slow_endpoint_not_required(self):
        """A client connected to only S-t objects still completes."""

        async def scenario():
            protocol = SafeStorageProtocol()
            config = SystemConfig.optimal(t=1, b=1, num_readers=1)
            objects = protocol.make_objects(config)
            servers = [TcpObjectServer(o) for o in objects[:-1]]  # drop one
            ports = [await s.start() for s in servers]
            endpoints = [("127.0.0.1", p) for p in ports]
            wstate = protocol.make_writer_state(config)
            rstate = protocol.make_reader_state(config, 0)
            wclient = TcpStorageClient(WRITER, endpoints)
            rclient = TcpStorageClient(reader(0), endpoints)
            await wclient.connect()
            await rclient.connect()
            try:
                assert await wclient.run(
                    protocol.make_write(wstate, "v")) == "OK"
                assert await rclient.run(protocol.make_read(rstate)) == "v"
            finally:
                await wclient.close()
                await rclient.close()
                for server in servers:
                    await server.stop()

        run(scenario())

    def test_object_client_rejected(self):
        from repro.types import obj
        with pytest.raises(TransportError):
            TcpStorageClient(obj(0), [])
