"""The addressed frame, the multi-replica server and the per-child link.

Everything here runs in one process: a :class:`TcpObjectServer` hosting
several automata stands in for a replica child, and a stub supervisor
tells :class:`ProcNetwork` where it listens.  The spawned-process side
is covered in ``tests/test_procs.py``.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.base import resolve_batch_handler
from repro.config import SystemConfig
from repro.core.regular import RegularStorageProtocol
from repro.errors import ConfigurationError, TransportError
from repro.messages import Batch, Pw, TagQuery, TagQueryAck
from repro.runtime.codec import BINARY_MAGIC
from repro.runtime.tcp import (ADDRESSED_MAGIC, TcpObjectServer,
                               _frame_binary, pack_addressed, read_frame,
                               split_addressed)
from repro.service.procs import ProcNetwork
from repro.types import (TimestampValue, TsrArray, WRITER, WriteTuple, obj,
                         reader)

CONFIG = SystemConfig.optimal(t=1, b=1, num_readers=2)
QUERY = TagQuery(nonce=7, register_id="k")


def run(coro):
    return asyncio.run(coro)


def _json_line(sender, msg):
    return json.dumps({"sender": sender, "msg": msg}).encode() + b"\n"


def _automata():
    return RegularStorageProtocol().make_objects(CONFIG)


def _plain(message_hex):
    """A message frame given in hex, as a plain frame from writer 0."""
    message = bytes.fromhex(message_hex)
    return (bytes([BINARY_MAGIC]) + (len(message) + 5).to_bytes(4, "little")
            + b"\x00" + b"\x00\x00\x00\x00" + message)


def _pw(ts=1, register_id="k"):
    tsval = TimestampValue(ts, f"v{ts}")
    tsr = TsrArray(tuple((0,) * CONFIG.num_readers
                         for _ in range(CONFIG.num_objects)))
    return Pw(ts=ts, pw=tsval, w=WriteTuple(tsval, tsr),
              register_id=register_id)


class _Recording:
    """An automaton wrapper and a frame hook writing to one event list."""

    def __init__(self, automata):
        self.events = []
        for automaton in automata:
            self._wrap(automaton)

    def _wrap(self, automaton):
        handler = resolve_batch_handler(automaton)
        index = automaton.object_index

        def handle_batch(sender, parts, sink):
            self.events.append(("handle", index, parts))
            return handler(sender, parts, sink)

        automaton.handle_batch = handle_batch

    def hook(self, index, sender, message, wire):
        self.events.append(("log", index, message, wire))


# ---------------------------------------------------------------------------
# the frame
# ---------------------------------------------------------------------------


class TestAddressedFrame:
    def test_inner_frame_is_a_slice_of_the_outer_one(self):
        inner = _frame_binary(WRITER, QUERY)
        outer = pack_addressed([0, 3, 2], inner)
        assert outer[0] == ADDRESSED_MAGIC
        assert outer.endswith(inner)
        dests, frame = split_addressed(outer[5:])
        assert dests == (0, 3, 2)
        assert frame == inner

    @pytest.mark.parametrize("dests", [[70000], list(range(256))])
    def test_unencodable_destination_lists(self, dests):
        with pytest.raises(TransportError):
            pack_addressed(dests, _frame_binary(WRITER, QUERY))

    @given(dests=st.lists(st.integers(0, 65535), min_size=1, max_size=8),
           cut=st.integers(0, 200), flip=st.integers(0, 200),
           xor=st.integers(1, 255))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_bodies_parse_or_raise_transport_error(self, dests, cut,
                                                          flip, xor):
        """Truncation and corruption: a clean parse or ``TransportError``,
        and a clean parse never invents a destination."""
        server = TcpObjectServer(_automata())
        outer = pack_addressed(dests, _frame_binary(reader(1), _pw()))
        head, body = outer[:5], bytearray(outer[5:])
        del body[len(body) - cut % len(body):]
        if body:
            body[flip % len(body)] ^= xor
        try:
            got, sender, message, wire = server._parse(head, bytes(body))
        except TransportError:
            return
        count = body[0]
        listed = [int.from_bytes(body[1 + 2 * i:3 + 2 * i], "little")
                  for i in range(count)]
        assert list(got) == listed
        assert wire == bytes(body[1 + 2 * count:])

    @pytest.mark.parametrize("body", [
        b"",                                         # no destination count
        b"\x00" + _frame_binary(WRITER, QUERY),      # ndest = 0
        b"\x03\x00\x00\x01",                         # list cut short
        b"\x01\x00\x00",                             # no inner frame
        b"\x01\x00\x00" + _frame_binary(WRITER, QUERY)[:-1],
        b"\x01\x00\x00" + _frame_binary(WRITER, QUERY) + b"\x00",
        b"\x01\x00\x00" + b"{" + _frame_binary(WRITER, QUERY)[1:],
    ])
    def test_malformed_bodies(self, body):
        with pytest.raises(TransportError):
            split_addressed(body)


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------


async def _exchange(server, blob, replies):
    """Send ``blob`` on a fresh connection; read ``replies`` frames."""
    reader_s, writer_s = await asyncio.open_connection(
        "127.0.0.1", server.port)
    try:
        writer_s.write(blob)
        await writer_s.drain()
        return [await asyncio.wait_for(read_frame(reader_s), 5)
                for _ in range(replies)]
    finally:
        writer_s.close()


class TestFanOut:
    def test_each_listed_replica_once_and_logged_before_handled(self):
        async def scenario():
            automata = _automata()
            recording = _Recording(automata)
            server = TcpObjectServer(automata, frame_hook=recording.hook)
            await server.start()
            try:
                inner = _frame_binary(WRITER, _pw())
                got = await _exchange(
                    server, pack_addressed([2, 0, 3], inner), 3)
            finally:
                await server.stop()
            return recording.events, got, inner

        events, got, inner = run(scenario())
        assert [(kind, index) for kind, index, *_ in events] == [
            ("log", 2), ("handle", 2), ("log", 0), ("handle", 0),
            ("log", 3), ("handle", 3)]
        # decoded once: every replica is handed the very same message,
        # and the hook the very bytes that arrived
        messages = {id(event[2]) for event in events if event[0] == "log"}
        assert len(messages) == 1
        assert all(event[3] == inner for event in events
                   if event[0] == "log")
        assert [sender for sender, _ in got] == [obj(2), obj(0), obj(3)]

    def test_unhosted_destination_is_dropped_and_counted(self):
        async def scenario():
            automata = _automata()
            recording = _Recording(automata)
            server = TcpObjectServer(automata[:2])
            await server.start()
            try:
                frame = pack_addressed([1, 3, 9],
                                       _frame_binary(WRITER, QUERY))
                got = await _exchange(server, frame, 1)
            finally:
                await server.stop()
            return server, recording.events, got

        server, events, got = run(scenario())
        assert [(kind, index) for kind, index, *_ in events] == [
            ("handle", 1)]
        assert server.misaddressed_frames == 2
        assert server.malformed_frames == 0
        (sender, reply), = got
        assert sender == obj(1) and isinstance(reply, TagQueryAck)

    def test_plain_frame_reaches_the_first_automaton(self):
        """What the supervisor's health ping relies on."""
        async def scenario():
            server = TcpObjectServer(_automata()[1:])
            await server.start()
            try:
                return await _exchange(
                    server, _frame_binary(reader(0), QUERY), 1)
            finally:
                await server.stop()

        (sender, reply), = run(scenario())
        assert sender == obj(1) and isinstance(reply, TagQueryAck)

    def test_a_batch_is_unbatched_once_for_all_replicas(self):
        async def scenario():
            automata = _automata()
            recording = _Recording(automata)
            server = TcpObjectServer(automata)
            await server.start()
            try:
                batch = Batch(messages=(_pw(1, "a"), _pw(1, "b")))
                await _exchange(server, pack_addressed(
                    [0, 1], _frame_binary(WRITER, batch)), 2)
            finally:
                await server.stop()
            return recording.events

        events = run(scenario())
        assert [index for _, index, _ in events] == [0, 1]
        assert events[0][2] is events[1][2] and len(events[0][2]) == 2


class TestMalformedInbound:
    BLOBS = {
        "bad magic": b"\x00\x01\x02\x03\x04\x05\x06",
        "oversized length": bytes([BINARY_MAGIC]) + b"\xff\xff\xff\xff",
        "undecodable body": (bytes([BINARY_MAGIC]) + b"\x07\x00\x00\x00"
                             + b"\x00\x00\x00\x00\x00\xb1\x7f"),
        "truncated destination list": (bytes([ADDRESSED_MAGIC])
                                       + b"\x03\x00\x00\x00" + b"\x05\x00\x00"),
        # newline-delimited JSON lines, as the retired JSON framing sent
        "json line over 64 KiB": b"{" + b" " * (1 << 17) + b"}\n",
        "json msg is a list": _json_line(
            {"role": "writer", "index": 0}, "[1, 2]"),
        "json sender is a list": _json_line(
            ["writer", 0], '{"__kind": "TagQuery", "nonce": 7, "r": "k"}'),
        "json ReadRequest with a string round": _json_line(
            {"role": "reader", "index": 0},
            '{"__kind": "ReadRequest", "k": "x", "tsr": 1, "j": 0, '
            '"from_ts": null, "r": "k"}'),
        # extension kinds cut short used to escape as IndexError
        "empty AbdStore body": _plain("b140"),
        "AuthStore cut before its signed flag": _plain(
            "b1440200000000000000ff020000007230"),
        "AuthQueryAck cut before its signed flag": _plain(
            "b1470200000000000000ff020000007230"),
        # ... and batches nested past the recursion limit as RecursionError
        "batches nested 2000 deep": _plain("b1" + "0d01000000" * 2000),
    }

    @pytest.mark.parametrize("name", sorted(BLOBS))
    def test_connection_closed_quietly_and_counted(self, name):
        async def scenario():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            server = TcpObjectServer(_automata())
            await server.start()
            try:
                reader_s, writer_s = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer_s.write(self.BLOBS[name])
                await writer_s.drain()
                # the server hangs up (with a reset if it left bytes
                # unread); nothing comes back
                try:
                    assert await asyncio.wait_for(reader_s.read(), 5) == b""
                except ConnectionResetError:
                    pass
                writer_s.close()
                # and it keeps serving everybody else
                (sender, _), = await _exchange(
                    server, _frame_binary(WRITER, QUERY), 1)
                assert sender == obj(0)
            finally:
                await server.stop()
            return server, unhandled

        server, unhandled = run(scenario())
        assert server.malformed_frames == 1
        assert unhandled == []

    def test_cancellation_is_not_swallowed(self):
        async def scenario():
            server = TcpObjectServer(_automata())
            await server.start()
            reader_s, writer_s = await asyncio.open_connection(
                "127.0.0.1", server.port)
            try:
                for _ in range(100):
                    if server._connections:
                        break
                    await asyncio.sleep(0.01)
                handler, = server._connections
                handler.cancel()
                await asyncio.wait([handler], timeout=5)
                return handler.cancelled()
            finally:
                writer_s.close()
                await server.stop()

        assert run(scenario())


# ---------------------------------------------------------------------------
# the link
# ---------------------------------------------------------------------------


class _StubSupervisor:
    """Where :class:`ProcNetwork` finds its children: here, in-process."""

    host = "127.0.0.1"

    def __init__(self, groups):
        self.groups = groups      # one tuple of object indices per child
        self.ports = {}           # group -> port (absent while down)

    def hosted_with(self, index):
        for group in self.groups:
            if index in group:
                return group
        raise ConfigurationError(f"no replica process hosts {index}")

    def port_of(self, index):
        return self.ports.get(self.hosted_with(index))


async def _start_child(supervisor, group, automata, **kwargs):
    server = TcpObjectServer([automata[i] for i in group], **kwargs)
    supervisor.ports[group] = await server.start()
    return server


async def _acks(inbox, count):
    """Take ``count`` envelopes parked in a consumer-less mailbox."""
    async def parked():
        while inbox.qsize() < count:
            await asyncio.sleep(0.001)
    await asyncio.wait_for(parked(), 5)
    acks = inbox.mail[:count]
    del inbox.mail[:count]
    return acks


class TestChildLink:
    @pytest.mark.parametrize("groups", [((0, 1, 2, 3),),
                                        ((0,), (1,), (2,), (3,)),
                                        ((0, 1), (2, 3))])
    def test_one_socket_write_per_round_and_child(self, groups):
        """A broadcast is S logical sends, one addressed frame and one
        socket write per child; the payload is encoded once."""
        async def scenario():
            automata = _automata()
            supervisor = _StubSupervisor(groups)
            servers = [await _start_child(supervisor, group, automata)
                       for group in groups]
            network = ProcNetwork(supervisor)
            inbox = network.register(WRITER)
            try:
                for round_ in range(3):
                    payload = TagQuery(nonce=round_, register_id="k")
                    for index in range(CONFIG.num_objects):
                        network.send(WRITER, obj(index), payload)
                    acks = await _acks(inbox, CONFIG.num_objects)
                    assert ({ack.sender for ack in acks}
                            == {obj(i) for i in range(CONFIG.num_objects)})
                    assert {ack.payload.nonce for ack in acks} == {round_}
                return network.messages_sent, network.links()
            finally:
                network.close()
                for server in servers:
                    await server.stop()

        sent, links = run(scenario())
        assert sent == 3 * CONFIG.num_objects
        assert len(links) == len(groups)
        assert all(link.writes == 3 and link.frames_written == 3
                   for link in links)

    def test_queued_rounds_leave_in_one_write(self):
        async def scenario():
            automata = _automata()
            supervisor = _StubSupervisor(((0, 1, 2, 3),))
            network = ProcNetwork(supervisor)
            inbox = network.register(WRITER)
            # child down: three rounds queue on the link
            for round_ in range(3):
                payload = TagQuery(nonce=round_, register_id="k")
                for index in range(4):
                    network.send(WRITER, obj(index), payload)
            link, = network.links()
            assert [dests for _, dests in link.queue] == [[0, 1, 2, 3]] * 3
            server = await _start_child(supervisor, (0, 1, 2, 3), automata)
            try:
                await _acks(inbox, 12)
                return link.writes, link.frames_written
            finally:
                network.close()
                await server.stop()

        assert run(scenario()) == (1, 3)

    def test_reconnects_before_writing_after_the_child_restarts(self):
        """The reader sees the child go (EOF) long before a write would
        fail; the first frame after the restart must not be written into
        the dead socket."""
        async def scenario():
            automata = _automata()
            group = (0, 1, 2, 3)
            supervisor = _StubSupervisor((group,))
            server = await _start_child(supervisor, group, automata)
            network = ProcNetwork(supervisor)
            inbox = network.register(WRITER)
            try:
                network.send(WRITER, obj(0), QUERY)
                await _acks(inbox, 1)
                # the child dies and comes back on another port
                del supervisor.ports[group]
                await server.stop()
                server = await _start_child(supervisor, group, automata)
                await asyncio.sleep(0.05)
                network.send(WRITER, obj(1), QUERY)
                ack, = await _acks(inbox, 1)
                return ack.sender
            finally:
                network.close()
                await server.stop()

        assert run(scenario()) == obj(1)

    def test_unhosted_object_is_refused(self):
        async def scenario():
            network = ProcNetwork(_StubSupervisor(((0, 1),)))
            with pytest.raises(ConfigurationError):
                network.send(WRITER, obj(5), QUERY)
            assert network.links() == []

        run(scenario())
