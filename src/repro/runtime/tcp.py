"""Localhost TCP transport: the same automata over real sockets.

Deployment shape: each base object runs a :class:`TcpObjectServer`; a
client opens one connection per object and drives its operation automata
through :class:`TcpStorageClient`.  Objects answer on the connection the
request arrived on -- the data-centric model's "objects only reply to
clients" rule falls out of the transport naturally.

Two frame formats share every connection (see :mod:`repro.runtime.codec`
for the message body):

* **plain** -- ``0xB1``, a little-endian ``u32`` body length, a compact
  sender id, then the struct-packed message body;
* **addressed** -- ``0xB2``, a ``u32`` body length, a ``u8`` destination
  count, that many ``u16`` object indices, then one complete *plain*
  frame.  A server hosting several replicas (the multiproc replica
  child) decodes the inner frame once and hands the same message to
  every listed replica -- one round costs one frame, not one per
  replica.  The inner frame is a contiguous slice of the outer one, so
  the write-ahead log stores it without re-encoding.

Any other first byte is not a frame: the server hangs up on that peer.
Batched requests are dispatched through the automata's ``handle_batch``
fast path and all replies to the requester coalesce into a single
response frame per replica.

This is the integration-test tier: slower than the in-memory network but
exercising serialization, framing and genuine OS-level interleaving.
"""

from __future__ import annotations

import asyncio
import functools
import struct
from typing import (Any, Awaitable, Callable, Dict, List, Optional, Sequence,
                    Tuple, Union)

from ..automata.base import (ClientOperation, ObjectAutomaton, Outgoing,
                             Sink, resolve_batch_handler)
from ..errors import ReplicaUnavailableError, TransportError
from ..messages import Batch, Message, register_of, unbatch
from ..types import (ProcessId, ROLE_OBJECT, ROLE_READER, ROLE_WRITER,
                     obj)
from .codec import BINARY_MAGIC, decode_message_binary, encode_message_binary
from .hosts import as_frame, coalesce_outgoing

_S_LEN = struct.Struct("<I")
_S_HEAD = struct.Struct("<BI")  # magic, body length
_S_FRAME_HEAD = struct.Struct("<BIBI")  # ... sender role, sender index
#: first byte of a frame that lists the replicas it is meant for.
ADDRESSED_MAGIC = 0xB2
#: the destination count of an addressed frame is one byte.
MAX_DESTINATIONS = 255
_ROLE_TO_CODE = {ROLE_WRITER: 0, ROLE_READER: 1, ROLE_OBJECT: 2}
_CODE_TO_ROLE = {code: role for role, code in _ROLE_TO_CODE.items()}


def _frame_binary(sender: ProcessId, payload: Any) -> bytes:
    # [0xB1][u32 len][role u8][u32 index][message-frame]
    body = encode_message_binary(payload)
    return _S_FRAME_HEAD.pack(BINARY_MAGIC, len(body) + 5,
                              _ROLE_TO_CODE[sender.role],
                              sender.index) + body


def _parse_binary_body(body: Union[bytes, memoryview]
                       ) -> Tuple[ProcessId, Any]:
    try:
        role = _CODE_TO_ROLE.get(body[0])
        if role is None:
            raise TransportError(f"unknown sender role code {body[0]}")
        (index,) = _S_LEN.unpack_from(body, 1)
        sender = ProcessId(role=role, index=index)
    except (IndexError, struct.error) as exc:
        raise TransportError(f"malformed frame header: {exc}") from exc
    return sender, decode_message_binary(memoryview(body)[5:])


@functools.lru_cache(maxsize=None)
def _dest_list(count: int) -> struct.Struct:
    # destination count, the destinations
    return struct.Struct(f"<B{count}H")


def pack_addressed(dests: Sequence[int], frame: bytes) -> bytes:
    """Wrap one plain frame with the object indices it is meant for."""
    try:
        listing = _dest_list(len(dests)).pack(len(dests), *dests)
    except struct.error as exc:
        raise TransportError(
            f"unencodable destination list {list(dests)!r}: {exc}") from exc
    return _S_HEAD.pack(ADDRESSED_MAGIC,
                        len(listing) + len(frame)) + listing + frame


def split_addressed(body: bytes) -> Tuple[Tuple[int, ...], bytes]:
    """``(destinations, inner plain frame)`` of an addressed frame body.

    The inner frame's own header is checked here, because the write-ahead
    log stores the slice as it is and recovery trusts its length field.
    """
    try:
        listing = _dest_list(body[0])
        dests = listing.unpack_from(body)[1:]
    except (IndexError, struct.error):
        raise TransportError("truncated destination list") from None
    if not dests:
        raise TransportError("addressed frame names no destination")
    frame = body[listing.size:]
    if (len(frame) < _S_HEAD.size or frame[0] != BINARY_MAGIC
            or _S_HEAD.unpack_from(frame)[1] != len(frame) - _S_HEAD.size):
        raise TransportError("addressed frame does not wrap one plain frame")
    return dests, frame


async def _read_raw(reader: asyncio.StreamReader
                    ) -> Optional[Tuple[bytes, bytes]]:
    """``(header, body)`` of one plain or addressed frame; ``None`` on
    clean EOF.

    Two reads per frame: the five header bytes (magic + length), then the
    body.  Any other first byte is a :class:`TransportError`.
    """
    try:
        head = await reader.readexactly(_S_HEAD.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TransportError("truncated frame header") from exc
    magic, length = _S_HEAD.unpack(head)
    if magic != BINARY_MAGIC and magic != ADDRESSED_MAGIC:
        raise TransportError(f"unknown frame format (first byte {magic:#x})")
    if length > 1 << 28:
        raise TransportError("binary frame implausibly large")
    try:
        return head, await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TransportError("truncated binary frame") from exc


async def read_frame(reader: asyncio.StreamReader
                     ) -> Optional[Tuple[ProcessId, Any]]:
    """Read one plain frame; ``None`` on clean EOF.

    Addressed frames only travel *towards* servers.
    """
    raw = await _read_raw(reader)
    if raw is None:
        return None
    head, body = raw
    if head[0] != BINARY_MAGIC:
        raise TransportError("addressed frame on a client connection")
    return _parse_binary_body(body)


#: ``frame_hook(object_index, sender, message, wire)``: ``message`` is the
#: decoded request (possibly a ``Batch``), ``wire`` the plain frame it
#: arrived as.  May return an awaitable.
FrameHook = Callable[[int, ProcessId, Any, bytes],
                     Optional[Awaitable[None]]]


class TcpObjectServer:
    """Serves object automata on one localhost TCP port.

    ``automaton`` is one object automaton or a sequence of them.  A
    plain frame is handled by the first; an *addressed* frame is decoded
    once and handled by every hosted automaton it lists, in list order,
    and all their replies leave in one socket write.  A destination
    nobody hosts is dropped and counted in :attr:`misaddressed_frames`
    -- to the sender it is a slow object.

    ``frame_hook`` (see :data:`FrameHook`) observes every request
    *before* the addressed automaton processes it -- the multiproc
    replica runtime hangs its write-ahead log here, so a message's
    effects cannot be acknowledged without its frame having been offered
    to the log first.  When the hook returns an awaitable (a policy
    ``fsync`` running in an executor) it is awaited before the message
    is handled.

    A peer that sends bytes which are not a frame -- whatever its first
    byte -- has its connection closed; :attr:`malformed_frames` counts
    those.
    """

    def __init__(self,
                 automaton: Union[ObjectAutomaton, Sequence[ObjectAutomaton]],
                 host: str = "127.0.0.1", port: int = 0,
                 frame_hook: Optional[FrameHook] = None):
        automata = (list(automaton) if isinstance(automaton, (list, tuple))
                    else [automaton])
        self.automaton = automata[0]
        self.host = host
        self.port = port
        self.frame_hook = frame_hook
        #: object index -> (its pid, its batch handler).
        self._replicas = {
            hosted.object_index: (obj(hosted.object_index),
                                  resolve_batch_handler(hosted))
            for hosted in automata}
        self._unaddressed = (self.automaton.object_index,)
        self.malformed_frames = 0
        self.misaddressed_frames = 0
        self._server: Optional[asyncio.AbstractServer] = None
        #: connection handler task -> the connection it serves.
        self._connections: Dict[Any, asyncio.StreamWriter] = {}

    async def start(self) -> int:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        # Claim the server before suspending so concurrent stops cannot
        # both drive the close sequence against a stale reference.
        server, self._server = self._server, None
        if server is None:
            return
        server.close()
        # Hang up on the peers too: their handlers then see EOF and
        # return by themselves, instead of being cancelled by whoever
        # tears the loop down.
        handlers = list(self._connections)
        for writer in self._connections.values():
            writer.close()
        await server.wait_closed()
        if handlers:
            await asyncio.wait(handlers)

    def _parse(self, head: bytes, body: bytes
               ) -> Tuple[Tuple[int, ...], ProcessId, Any, bytes]:
        """``(destinations, sender, message, wire)`` of one raw frame."""
        magic = head[0]
        if magic == ADDRESSED_MAGIC:
            dests, wire = split_addressed(body)
            sender, message = _parse_binary_body(
                memoryview(wire)[_S_HEAD.size:])
            return dests, sender, message, wire
        sender, message = _parse_binary_body(body)
        return self._unaddressed, sender, message, head + body

    def _respond(self, replica: Tuple[ProcessId, Any], sender: ProcessId,
                 parts: Tuple[Any, ...], out: List[bytes]) -> None:
        """Run one replica on a request; append its reply frames."""
        my_pid, handle_batch = replica
        # One request -> at most one response frame per replica: the
        # batch fast path appends every reply to the requester into one
        # sink, coalesced into a single Batch frame.
        sink: Sink = []
        leftovers = handle_batch(sender, parts, sink) or []
        for receiver, payload in coalesce_outgoing(leftovers):
            # Objects reply only to the requesting client; replies
            # addressed elsewhere cannot be routed on this socket.
            if receiver != sender:
                continue
            if isinstance(payload, Message) \
                    and not isinstance(payload, Batch):
                sink.append(payload)
            else:
                # An already-batched (or exotic) reply cannot ride
                # inside the sink frame; ship it as its own frame, as
                # the pre-batching server did.
                out.append(_frame_binary(my_pid, payload))
        if sink:
            out.append(_frame_binary(my_pid, as_frame(sink)))

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        replicas = self._replicas
        hook = self.frame_hook
        handler = asyncio.current_task()
        self._connections[handler] = writer
        try:
            while True:
                try:
                    raw = await _read_raw(reader)
                    if raw is None:
                        break
                    dests, sender, message, wire = self._parse(*raw)
                except TransportError:
                    self.malformed_frames += 1  # not a frame: hang up
                    break
                parts = unbatch(message)
                out: List[bytes] = []
                for index in dests:
                    replica = replicas.get(index)
                    if replica is None:
                        self.misaddressed_frames += 1
                        continue
                    if hook is not None:
                        pending = hook(index, sender, message, wire)
                        if pending is not None:
                            await pending
                    self._respond(replica, sender, parts, out)
                if out:
                    writer.write(b"".join(out))
                    await writer.drain()
        except ConnectionError:
            pass
        finally:
            del self._connections[handler]
            writer.close()


class TcpStorageClient:
    """Drives client operations against a set of TCP object endpoints."""

    def __init__(self, pid: ProcessId,
                 endpoints: List[Tuple[str, int]]):
        if not pid.is_client:
            raise TransportError(f"{pid!r} is not a client")
        self.pid = pid
        self.endpoints = endpoints
        self._connections: List[
            Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._inbox: "asyncio.Queue[Tuple[ProcessId, Any]]" = asyncio.Queue()
        self._pumps: List[asyncio.Task] = []
        #: per-endpoint reconnect serialization (created on demand).
        self._reconnect_locks: Dict[int, asyncio.Lock] = {}

    async def connect(self) -> None:
        for host, port in self.endpoints:
            reader, writer = await asyncio.open_connection(host, port)
            self._connections.append((reader, writer))
            self._pumps.append(asyncio.get_running_loop().create_task(
                self._pump(reader)))

    async def close(self) -> None:
        for task in self._pumps:
            task.cancel()
        await asyncio.gather(*self._pumps, return_exceptions=True)
        self._pumps.clear()
        for _, writer in self._connections:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass
        self._connections.clear()

    async def _pump(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                parsed = await read_frame(reader)
                if parsed is None:
                    return
                self._inbox.put_nowait(parsed)
        except (ConnectionResetError, TransportError, OSError):
            return  # dead peer: the next send reconnects

    async def _reconnect(self, index: int,
                         broken: asyncio.StreamWriter
                         ) -> asyncio.StreamWriter:
        """Re-open one endpoint's connection after a broken pipe.

        Serialized per endpoint: without the lock, two writers hitting
        the same broken pipe would both open a socket -- one of the two
        is then orphaned (never closed, its pump task alive) and the
        replica sees a phantom duplicate connection.  The identity
        double-check makes the late arrival adopt the winner's socket
        instead of tearing it down again.
        """
        lock = self._reconnect_locks.setdefault(index, asyncio.Lock())
        async with lock:
            _, current = self._connections[index]
            if current is not broken:
                return current  # a concurrent writer already reconnected
            broken.close()
            host, port = self.endpoints[index]
            reader, writer = await asyncio.open_connection(host, port)
            self._connections[index] = (reader, writer)
            self._pumps.append(asyncio.get_running_loop().create_task(
                self._pump(reader)))
            return writer

    async def _write_frame(self, index: int, frame: bytes) -> None:
        """Write to one endpoint, reconnecting once on a broken pipe.

        A peer that died surfaces as a raw ``ConnectionResetError`` /
        ``BrokenPipeError``; after one failed reconnect attempt it is
        re-raised as the *typed*
        :class:`~repro.errors.ReplicaUnavailableError`, which retry
        policies absorb -- the window in which a killed replica process
        is being restarted by its supervisor looks like any other
        transient failure to callers.
        """
        _, writer = self._connections[index]
        try:
            writer.write(frame)
            await writer.drain()
            return
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        try:
            writer = await self._reconnect(index, writer)
            writer.write(frame)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise ReplicaUnavailableError(
                f"object endpoint {index} "
                f"({self.endpoints[index][0]}:{self.endpoints[index][1]}) "
                f"is unreachable: {exc}") from exc

    async def _send(self, receiver: ProcessId, payload: Any) -> None:
        if not receiver.is_object:
            raise TransportError("TCP clients only talk to objects")
        if receiver.index >= len(self._connections):
            return  # endpoint not configured: behaves like a slow object
        await self._write_frame(
            receiver.index, _frame_binary(self.pid, payload))

    async def _broadcast(self, sink: Sink) -> None:
        """One frame carrying the whole sink to every endpoint.

        A single unreachable endpoint is *skipped* rather than failing
        the broadcast: to the protocol it is a slow object, and every
        round is quorum-based -- failing the whole operation over one
        dead replica would throw away exactly the fault tolerance the
        replication pays for.
        """
        if not sink:
            return
        frame = _frame_binary(self.pid, as_frame(sink))
        for index in range(len(self._connections)):
            try:
                await self._write_frame(index, frame)
            except ReplicaUnavailableError:
                continue

    async def run(self, operation: ClientOperation,
                  timeout: Optional[float] = 30.0) -> Any:
        for receiver, payload in operation.start() or []:
            await self._send(receiver, payload)

        async def pump() -> Any:
            while not operation.done:
                sender, message = await self._inbox.get()
                for part in unbatch(message):
                    for receiver, payload in (
                            operation.on_message(sender, part) or []):
                        await self._send(receiver, payload)
            return operation.result

        if operation.done:
            return operation.result
        if timeout is None:
            return await pump()
        return await asyncio.wait_for(pump(), timeout)

    async def run_many(self, operations: List[ClientOperation],
                       timeout: Optional[float] = 30.0) -> List[Any]:
        """Run same-client operations as vector rounds, one per register.

        Each round leaves as one frame per endpoint carrying every
        member's payload for that step; inbound frames are absorbed part
        by part and each touched operation advances once per frame.
        """
        by_register: Dict[str, ClientOperation] = {}
        for operation in operations:
            if operation.register_id in by_register:
                raise TransportError(
                    f"two operations address register "
                    f"{operation.register_id!r}")
            by_register[operation.register_id] = operation
        sink: Sink = []
        leftovers: Outgoing = []
        for operation in operations:
            operation.start_vector(sink, leftovers)
        await self._broadcast(sink)
        for receiver, payload in coalesce_outgoing(leftovers):
            await self._send(receiver, payload)

        async def pump() -> List[Any]:
            while not all(op.done for op in by_register.values()):
                sender, message = await self._inbox.get()
                dirty: List[ClientOperation] = []
                for part in unbatch(message):
                    operation = by_register.get(register_of(part))
                    if operation is None or operation.done:
                        continue
                    operation.absorb(sender, part)
                    if operation not in dirty:
                        dirty.append(operation)
                sink: Sink = []
                leftovers: Outgoing = []
                for operation in dirty:
                    if not operation.done:
                        operation.advance(sink, leftovers)
                await self._broadcast(sink)
                for receiver, payload in coalesce_outgoing(leftovers):
                    await self._send(receiver, payload)
            return [op.result for op in operations]

        if all(op.done for op in operations):
            return [op.result for op in operations]
        if timeout is None:
            return await pump()
        return await asyncio.wait_for(pump(), timeout)
