"""Per-replica durability: write-ahead log + compacting snapshots.

The paper's model is crash-*stop*: a crashed base object never comes
back, and :meth:`~repro.service.reconfig.ReconfigCoordinator.
heal_replica` replaces it with a blank one.  The multiproc deployment
(:mod:`repro.service.procs`) upgrades replicas to crash-*recovery*: every
state-mutating message a replica receives is appended to a write-ahead
log before its effects can be acknowledged durably, and the log is
periodically compacted into a snapshot file.  A restarted replica
replays snapshot + WAL and rejoins with the state of a slow-but-correct
replica -- then the ordinary ``heal_replica`` path installs current
tuples on top, exactly as for an in-proc replacement.

Record layout (both the WAL and snapshot files)::

    [u32 payload length][u32 crc32(payload)][payload]

where the payload is one **binary wire frame** -- the same
``[0xB1][u32 len][sender][message]`` bytes the TCP tier ships
(:func:`repro.runtime.tcp._frame_binary`).  Storing raw frames means the
log needs no schema of its own: recovery feeds the frames back through
the automaton's ``handle_batch`` with a discarded reply sink, and any
message the codec can carry, the log can carry.  It also means a serving
replica never encodes what it logs: the payload of an unbatched message
*is* the frame it arrived as (:func:`durable_records`), and the
compactor keeps those bytes, so a snapshot is a concatenation.

Durability is *torn-tail safe*: a crash mid-append leaves a final record
with a short or corrupt payload; :meth:`WriteAheadLog.replay` verifies
each record's CRC, truncates the file back to the last intact record,
and returns only the verified prefix.  Snapshot files are written to a
temp name and atomically renamed, so a crash mid-snapshot leaves the
previous snapshot in place.

Only *durable* messages are logged (:func:`is_durable`): ``Pw`` and
``W`` rounds, ``WriteBack`` installs and the ABD and authenticated
baselines' ``AbdStore``/``AuthStore`` mutate register slots,
``EpochFence`` mutates fence state.  Queries (``TagQuery``,
``ReadRequest``) are read-only and replayable from nothing.
"""

from __future__ import annotations

import asyncio
import os
import struct
import zlib
from typing import (Any, Awaitable, Dict, List, Optional, Sequence,
                    Tuple)

from ..baselines.abd.protocol import AbdStore
from ..baselines.authenticated.protocol import AuthStore
from ..errors import TransportError
from ..messages import Batch, EpochFence, Message, Pw, W, WriteBack
from ..types import ProcessId, TimestampValue, WriterTag

_S_RECORD = struct.Struct("<II")  # payload length, crc32(payload)

#: Message types whose receipt mutates object state and must therefore
#: survive a restart.  Everything else is a query or an ack.
DURABLE_TYPES = (Pw, W, WriteBack, EpochFence, AbdStore, AuthStore)

#: ``"batch"`` fsync cadence: records between forced syncs.
FSYNC_BATCH_INTERVAL = 64


def is_durable(message: Any) -> bool:
    """Whether a message mutates object state (must be logged)."""
    return isinstance(message, DURABLE_TYPES)


def pack_frame(sender: ProcessId, message: Message) -> bytes:
    """One WAL/snapshot payload: the message as a binary wire frame."""
    from .tcp import _frame_binary  # late: tcp imports hosts, not wal
    return _frame_binary(sender, message)


def unpack_frame(frame: bytes) -> Tuple[ProcessId, Any]:
    """Decode a stored frame back to ``(sender, message)``."""
    from .tcp import _parse_binary_body
    if len(frame) < 5:
        raise TransportError("stored frame shorter than its header")
    (length,) = struct.unpack_from("<I", frame, 1)
    return _parse_binary_body(frame[5:5 + length])


def durable_records(sender: ProcessId, message: Any,
                    wire: Optional[bytes] = None
                    ) -> Sequence[Tuple[Message, bytes]]:
    """``(message, WAL payload)`` per durable part of one inbound request.

    ``wire`` is the binary frame the request arrived as.  For an
    unbatched message that frame *is* ``pack_frame(sender, message)``,
    so it is logged as it stands; the parts of a ``Batch`` share one
    string table on the wire and are framed one by one.  Build this once
    per inbound frame: every replica that logs it shares the result.
    """
    if not isinstance(message, Batch):
        if not is_durable(message):
            return ()
        return ((message, wire if wire is not None
                 else pack_frame(sender, message)),)
    return [(part, pack_frame(sender, part))
            for part in message.messages if is_durable(part)]


def _pack_record(payload: bytes) -> bytes:
    return _S_RECORD.pack(len(payload), zlib.crc32(payload)) + payload


def scan_records(blob: bytes) -> Tuple[List[bytes], int]:
    """Parse length-delimited records; returns ``(payloads, good_end)``.

    ``good_end`` is the offset just past the last record whose length
    and CRC both verify -- everything beyond it is a torn tail.
    """
    payloads: List[bytes] = []
    offset = 0
    size = len(blob)
    while offset + _S_RECORD.size <= size:
        length, crc = _S_RECORD.unpack_from(blob, offset)
        start = offset + _S_RECORD.size
        end = start + length
        if end > size:
            break  # short payload: torn mid-append
        payload = blob[start:end]
        if zlib.crc32(payload) != crc:
            break  # corrupt record: everything after is suspect
        payloads.append(payload)
        offset = end
    return payloads, offset


class WriteAheadLog:
    """An append-only log of binary wire frames with CRC framing.

    Every append is ``flush()``\\ ed into the kernel page cache before it
    returns: a record acknowledged to the caller survives ``kill -9`` of
    the logging process under *every* policy -- userspace buffers die
    with the process, the page cache does not.  ``fsync`` then selects
    how much a whole-machine failure (power loss, kernel panic) may
    cost: ``"always"`` syncs every append, ``"batch"`` every
    :data:`FSYNC_BATCH_INTERVAL` appends (and on :meth:`sync`/
    :meth:`close`), ``"never"`` leaves syncing to the OS.  All three
    keep the format torn-tail safe.
    """

    def __init__(self, path: str, fsync: str = "batch"):
        if fsync not in ("always", "batch", "never"):
            raise TransportError(f"unknown WAL fsync policy {fsync!r}")
        self.path = path
        self.fsync = fsync
        self._appends_since_sync = 0
        self._fh = open(path, "ab")

    # -- writing ------------------------------------------------------------
    def _write(self, payloads: Sequence[bytes]) -> bool:
        """Write and flush records; whether the policy wants a sync now."""
        self._fh.write(b"".join([_pack_record(p) for p in payloads]))
        self._fh.flush()  # past userspace: a SIGKILL now loses nothing
        if self.fsync == "batch":
            self._appends_since_sync += len(payloads)
            if self._appends_since_sync < FSYNC_BATCH_INTERVAL:
                return False
            self._appends_since_sync = 0
            return True
        return self.fsync == "always"

    def append(self, payload: bytes) -> None:
        if self._write((payload,)):
            os.fsync(self._fh.fileno())

    def append_records(self, payloads: Sequence[bytes]
                       ) -> Optional[Awaitable[None]]:
        """:meth:`append` for asyncio serving loops, several records at once.

        The write + flush happen inline (so record order matches call
        order and the records already survive a process kill).  When the
        policy wants an ``os.fsync`` it runs in the default executor and
        its future is returned: a blocking disk sync never stalls the
        serving loop, and the caller must await it before it replies
        (durable before ack).  Otherwise -- most appends under
        ``"batch"``, all under ``"never"`` -- returns ``None``.
        """
        if self._write(payloads):
            return asyncio.get_running_loop().run_in_executor(
                None, os.fsync, self._fh.fileno())
        return None

    def sync(self) -> None:
        self._fh.flush()
        if self.fsync != "never":
            os.fsync(self._fh.fileno())
        self._appends_since_sync = 0

    def reset(self) -> None:
        """Discard every record (the snapshot now covers them)."""
        self._fh.truncate(0)
        self._fh.seek(0)
        self.sync()

    def close(self) -> None:
        if not self._fh.closed:
            self.sync()
            self._fh.close()

    # -- recovery -----------------------------------------------------------
    def replay(self) -> List[bytes]:
        """Verified record payloads, oldest first; truncates a torn tail.

        Safe to call on the open log (recovery happens before serving);
        the write handle is repositioned past the verified prefix so
        later appends continue exactly where the intact log ends.
        """
        self._fh.flush()
        with open(self.path, "rb") as fh:
            blob = fh.read()
        payloads, good_end = scan_records(blob)
        if good_end < len(blob):
            self._fh.truncate(good_end)
        self._fh.seek(0, os.SEEK_END)
        return payloads


class SnapshotStore:
    """Atomic snapshot files next to a replica's WAL.

    One current snapshot per replica (``snapshot.bin``), written via a
    temp file + ``os.replace`` so readers only ever observe a complete
    snapshot or the previous one.  The record framing is the WAL's, so
    a damaged snapshot degrades the same way: the verified prefix loads,
    the torn tail is dropped.
    """

    FILENAME = "snapshot.bin"

    def __init__(self, directory: str):
        self.directory = directory
        self.path = os.path.join(directory, self.FILENAME)

    def save(self, payloads: List[bytes]) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            for payload in payloads:
                fh.write(_pack_record(payload))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    def load(self) -> List[bytes]:
        try:
            with open(self.path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            return []
        payloads, _ = scan_records(blob)
        return payloads


class _RegisterDigest:
    """The compacted durable state of one register slot.

    Keeps the frame of the maximum-tag ``Pw`` seen, of the maximum-tag
    complete tuple (a ``W``, a ``WriteBack`` install, or a baseline's
    ``AbdStore``/``AuthStore``) and of the highest fence (mirroring
    :meth:`~repro.automata.base.MultiRegisterObject._on_epoch_fence`:
    the epoch only ratchets up, a frame without the hard flag retires
    nothing, and a ``lift`` clears it).  What the object refused while
    the register was fenced is not kept: write rounds, a writer's
    ``AbdStore`` (not a write-back) and a signed ``AuthStore``.
    Replaying these two-or-three frames leaves a fresh automaton holding
    the same top tag, top value and fence state as one that processed
    the whole log -- lower history entries are dropped, which is the
    state of a correct-but-slow replica and what ``heal_replica``'s
    install tops up.

    Frames are kept as the bytes they were logged as, so taking a
    snapshot encodes nothing.
    """

    __slots__ = ("pw", "w", "fence")

    def __init__(self):
        self.pw: Optional[Tuple[WriterTag, bytes]] = None
        self.w: Optional[Tuple[WriterTag, bytes]] = None
        self.fence: Optional[Tuple[int, bytes]] = None

    def observe(self, sender: ProcessId, message: Message,
                payload: Optional[bytes] = None) -> None:
        """``payload`` is ``pack_frame(sender, message)`` if the caller
        already holds it."""
        if isinstance(message, (Pw, W)) and self.fence is not None:
            return  # refused: the fence retired the register here
        if isinstance(message, Pw):
            if self.pw is None or message.tag >= self.pw[0]:
                self.pw = (message.tag,
                           payload or pack_frame(sender, message))
        elif isinstance(message, (W, WriteBack)):
            if self.w is None or message.tag >= self.w[0]:
                self.w = (message.tag,
                          payload or pack_frame(sender, message))
        elif isinstance(message, EpochFence):
            if message.lift:
                self.fence = None
            elif message.hard and (self.fence is None
                                   or message.epoch >= self.fence[0]):
                self.fence = (message.epoch,
                              payload or pack_frame(sender, message))
        elif isinstance(message, AbdStore):
            if self.fence is None or message.write_back:
                self._keep_tuple(message.tsval.tag, sender, message,
                                 payload)
        elif isinstance(message, AuthStore):
            signed = message.signed.payload
            if self.fence is None and isinstance(signed, TimestampValue):
                self._keep_tuple(signed.tag, sender, message, payload)

    def _keep_tuple(self, tag: WriterTag, sender: ProcessId,
                    message: Message, payload: Optional[bytes]) -> None:
        """A baseline's stored pair: kept as the ``w`` frame if its tag
        is the highest seen (the object adopts only a higher one)."""
        if self.w is None or tag >= self.w[0]:
            self.w = (tag, payload or pack_frame(sender, message))

    def frames(self) -> List[bytes]:
        """Replay frames, write rounds before the fence.

        The fence comes last so replaying the write rounds is never
        refused by the very fence that postdates them.
        """
        return [kept[1] for kept in (self.pw, self.w, self.fence)
                if kept is not None]


class FrameCompactor:
    """Folds the durable message stream into a bounded snapshot.

    Observing every durable message (recovered *and* newly logged), it
    maintains per-register digests whose total size is ``O(registers)``
    regardless of write volume -- the log can be truncated after every
    snapshot without losing recoverability.
    """

    def __init__(self):
        self._registers: Dict[str, _RegisterDigest] = {}

    def observe(self, sender: ProcessId, message: Message,
                payload: Optional[bytes] = None) -> None:
        register_id = getattr(message, "register_id", None)
        if register_id is None:
            return
        digest = self._registers.get(register_id)
        if digest is None:
            digest = self._registers[register_id] = _RegisterDigest()
        digest.observe(sender, message, payload)

    def snapshot_frames(self) -> List[bytes]:
        frames: List[bytes] = []
        for register_id in sorted(self._registers):
            frames.extend(self._registers[register_id].frames())
        return frames

    def __len__(self) -> int:
        return len(self._registers)


class ReplicaDurability:
    """One replica's durable state: WAL + snapshots + compactor.

    The facade the multiproc replica runtime drives:

    * :meth:`recover` -- load snapshot + WAL, return the frames to feed
      through the automaton (and prime the compactor with them);
    * :meth:`log_records` -- called per inbound frame with its
      :func:`durable_records`; they are appended to the WAL and folded
      into the compactor (:meth:`log` is the one-message, synchronous
      form);
    * :meth:`take_snapshot` -- persist the compactor's digest
      atomically, then truncate the WAL;
    * :meth:`close` -- final sync.
    """

    def __init__(self, directory: str, fsync: str = "batch"):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.snapshots = SnapshotStore(directory)
        self.wal = WriteAheadLog(os.path.join(directory, "wal.bin"),
                                 fsync=fsync)
        self.compactor = FrameCompactor()
        #: durable records appended since the last snapshot; drives the
        #: serving loop's snapshot cadence.
        self.records_since_snapshot = 0

    def recover(self) -> List[Tuple[ProcessId, Any]]:
        recovered: List[Tuple[ProcessId, Any]] = []
        wal_payloads = self.wal.replay()
        self.records_since_snapshot = len(wal_payloads)
        for payload in self.snapshots.load() + wal_payloads:
            try:
                sender, message = unpack_frame(payload)
            except TransportError:
                continue  # an undecodable frame cannot be replayed
            self.compactor.observe(sender, message, payload)
            recovered.append((sender, message))
        return recovered

    def log(self, sender: ProcessId, message: Any) -> None:
        for part, payload in durable_records(sender, message):
            self.compactor.observe(sender, part, payload)
            self.wal.append(payload)
            self.records_since_snapshot += 1

    def log_records(self, sender: ProcessId,
                    records: Sequence[Tuple[Message, bytes]]
                    ) -> Optional[Awaitable[None]]:
        """Log one frame's :func:`durable_records` from a serving loop.

        Returns what :meth:`WriteAheadLog.append_records` returns: the
        policy ``fsync`` to await before the frame is acknowledged, or
        ``None`` when none is due.
        """
        if not records:
            return None
        observe = self.compactor.observe
        for part, payload in records:
            observe(sender, part, payload)
        self.records_since_snapshot += len(records)
        return self.wal.append_records([payload for _, payload in records])

    def take_snapshot(self) -> int:
        """Persist the digest and truncate the WAL; returns frame count."""
        frames = self.compactor.snapshot_frames()
        self.snapshots.save(frames)
        self.wal.reset()
        self.records_since_snapshot = 0
        return len(frames)

    def close(self) -> None:
        self.wal.close()


__all__ = [
    "DURABLE_TYPES",
    "FrameCompactor",
    "ReplicaDurability",
    "SnapshotStore",
    "WriteAheadLog",
    "durable_records",
    "is_durable",
    "pack_frame",
    "scan_records",
    "unpack_frame",
]
