"""WAL + snapshot durability (:mod:`repro.runtime.wal`).

Three families:

1. record framing: CRC-framed round-trips over generated frame
   payloads, including torn-tail truncation on arbitrary cut points;
2. frame codec: ``unpack_frame(pack_frame(...))`` over generated
   durable protocol messages, and the zero-re-encode path: what a
   serving replica logs (a slice of the inbound frame) and snapshots
   (the logged bytes, concatenated) is byte for byte what
   ``pack_frame`` would have produced -- so the on-disk format is the
   one older data directories were written in;
3. snapshot + replay equivalence: an automaton recovered from
   snapshot + WAL holds the same top tag, value and fence state as the
   automaton that processed the original message stream.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata.base import resolve_batch_handler
from repro.config import SystemConfig
from repro.core.regular import RegularStorageProtocol
from repro.messages import Batch, EpochFence, Pw, ReadRequest, TagQuery, W
from repro.runtime.tcp import TcpObjectServer, pack_addressed
from repro.runtime.wal import (DURABLE_TYPES, FrameCompactor,
                               ReplicaDurability, SnapshotStore,
                               WriteAheadLog, durable_records, is_durable,
                               pack_frame, scan_records, unpack_frame)
from repro.types import (TimestampValue, TsrArray, WriteTuple, WriterTag,
                         obj, reader, writer)

CONFIG = SystemConfig.optimal(t=1, b=1, num_readers=2)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

registers = st.sampled_from(["k0", "key:1", "a/b·c", "", "ключ-🔑"])
epochs = st.integers(min_value=1, max_value=2**32)
wids = st.integers(min_value=0, max_value=2**10)
#: ``None`` stands for the default ``"v<ts>.<wid>"`` string.
values = st.one_of(st.none(), st.text(max_size=12),
                   st.integers(-2**80, 2**80), st.binary(max_size=12),
                   st.floats(allow_nan=False), st.booleans())


def _tsval(ts, wid, value=None):
    return TimestampValue(ts, f"v{ts}.{wid}" if value is None else value,
                          wid=wid)


def _wtuple(ts, wid, value=None):
    tsr = TsrArray(tuple((0,) * CONFIG.num_readers
                         for _ in range(CONFIG.num_objects)))
    return WriteTuple(_tsval(ts, wid, value), tsr)


@st.composite
def durable_messages(draw):
    register_id = draw(registers)
    shape = draw(st.integers(min_value=0, max_value=2))
    if shape == 2:
        return EpochFence(nonce=draw(st.integers(0, 2**20)),
                          epoch=draw(epochs), register_id=register_id,
                          hard=draw(st.booleans()),
                          lift=draw(st.booleans()))
    ts, wid, value = draw(epochs), draw(wids), draw(values)
    cls = Pw if shape == 0 else W
    return cls(ts=ts, pw=_tsval(ts, wid, value),
               w=_wtuple(ts - 1 or 1, wid, value),
               register_id=register_id, wid=wid)


@st.composite
def senders(draw):
    role = draw(st.integers(0, 2))
    index = draw(st.integers(0, 8))
    return (writer, reader, obj)[role](index)


# ---------------------------------------------------------------------------
# 1. record framing
# ---------------------------------------------------------------------------


class TestRecordFraming:
    @given(payloads=st.lists(st.binary(min_size=0, max_size=200),
                             max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_scan_recovers_all_records(self, tmp_path_factory, payloads):
        path = str(tmp_path_factory.mktemp("wal") / "wal.bin")
        log = WriteAheadLog(path, fsync="never")
        for payload in payloads:
            log.append(payload)
        log.close()
        with open(path, "rb") as fh:
            recovered, good_end = scan_records(fh.read())
        assert recovered == payloads
        assert good_end == os.path.getsize(path)

    @given(st.lists(st.binary(min_size=1, max_size=64), min_size=1,
                    max_size=12),
           st.integers(min_value=1, max_value=10_000),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_torn_tail_is_truncated(self, payloads, cut, flip):
        blob = b""
        boundaries = [0]
        log_records = []
        for payload in payloads:
            import struct
            import zlib
            blob += struct.pack("<II", len(payload),
                                zlib.crc32(payload)) + payload
            boundaries.append(len(blob))
            log_records.append(payload)
        cut = min(cut, len(blob))
        torn = blob[:cut]
        if flip and cut > 0:
            # also corrupt the final byte, not just shorten the file
            torn = torn[:-1] + bytes([torn[-1] ^ 0xFF])
        recovered, good_end = scan_records(torn)
        # the verified prefix is exactly the records wholly intact
        assert good_end in boundaries
        assert recovered == log_records[:boundaries.index(good_end)]

    def test_replay_truncates_file_and_appends_continue(self, tmp_path):
        path = str(tmp_path / "wal.bin")
        log = WriteAheadLog(path, fsync="always")
        log.append(b"one")
        log.append(b"two")
        log.close()
        # simulate a torn append
        with open(path, "ab") as fh:
            fh.write(b"\x99\x00\x00\x00garbage")
        log = WriteAheadLog(path, fsync="always")
        assert log.replay() == [b"one", b"two"]
        log.append(b"three")
        log.close()
        log = WriteAheadLog(path)
        assert log.replay() == [b"one", b"two", b"three"]
        log.close()

    def test_reset_empties_the_log(self, tmp_path):
        log = WriteAheadLog(str(tmp_path / "wal.bin"))
        log.append(b"gone")
        log.reset()
        assert log.replay() == []
        log.append(b"kept")
        assert log.replay() == [b"kept"]
        log.close()


# ---------------------------------------------------------------------------
# 2. frame codec
# ---------------------------------------------------------------------------


class TestFrameCodec:
    @given(senders(), durable_messages())
    @settings(max_examples=100, deadline=None)
    def test_pack_unpack_roundtrip(self, sender, message):
        sender2, message2 = unpack_frame(pack_frame(sender, message))
        assert sender2 == sender
        assert message2 == message

    def test_is_durable_classification(self):
        assert is_durable(Pw(ts=1, pw=_tsval(1, 0), w=_wtuple(1, 0)))
        assert is_durable(W(ts=1, pw=_tsval(1, 0), w=_wtuple(1, 0)))
        assert is_durable(EpochFence(nonce=0, epoch=3))
        assert not is_durable(TagQuery(nonce=0))
        assert not is_durable(ReadRequest(round_index=1, tsr=1,
                                          reader_index=0))

    @given(sender=senders(), message=durable_messages())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_durability_roundtrip_through_files(self, tmp_path_factory,
                                                sender, message):
        directory = str(tmp_path_factory.mktemp("replica"))
        store = ReplicaDurability(directory, fsync="never")
        store.log(sender, message)
        store.close()
        recovered = ReplicaDurability(directory).recover()
        assert recovered == [(sender, message)]


class TestZeroReencode:
    """The bytes a serving replica logs and snapshots, against
    ``pack_frame`` of the messages they decode to."""

    #: ``_pack_record(pack_frame(...))`` as the parent commit wrote it:
    #: a ``Pw`` (unicode register id and value, a bigint) from writer 1
    #: and a hard ``EpochFence`` from reader 0.
    PINNED = [
        (writer(1),
         Pw(ts=3, pw=TimestampValue(3, "ключ-🔑", wid=1),
            w=WriteTuple(TimestampValue(2, 2**70, wid=1),
                         _wtuple(1, 0).tsrarray),
            register_id="a/b·c", wid=1),
         "ab000000d67f42ffb1a60000000001000000b1010300000000000000010000"
         "00ff06000000612f62c2b76303000000000000000100000007ff0d000000d0"
         "bad0bbd18ed1872df09f94910200000000000000010000000516003131383"
         "0353931363230373137343131333033343234040002" + "00" * 65),
        (reader(0),
         EpochFence(nonce=5, epoch=9, register_id="a/b·c", hard=True),
         "2800000071e689d0b1230000000100000000b10705000000000000000900000"
         "00000000001ff06000000612f62c2b763"),
    ]

    @staticmethod
    def _as_served(sender, message, dests=(0, 1, 2, 3)):
        """``(sender, message, wire)`` as the replica child's server
        hands an addressed frame to its frame hook."""
        server = TcpObjectServer(
            RegularStorageProtocol().make_objects(CONFIG))
        outer = pack_addressed(dests, pack_frame(sender, message))
        _, sender, message, wire = server._parse(outer[:5], outer[5:])
        return sender, message, wire

    @given(senders(), durable_messages())
    @settings(max_examples=150, deadline=None)
    def test_sliced_payload_is_pack_frame(self, sender, message):
        sender2, message2, wire = self._as_served(sender, message)
        (logged, payload), = durable_records(sender2, message2, wire)
        assert payload is wire  # not re-encoded
        assert payload == pack_frame(sender2, logged)
        assert (sender2, logged) == (sender, message)

    @given(senders(), st.lists(durable_messages(), min_size=2, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_batch_parts_are_framed_one_by_one(self, sender, parts):
        batch = Batch(messages=(TagQuery(nonce=1), *parts))
        sender2, batch2, wire = self._as_served(sender, batch)
        records = durable_records(sender2, batch2, wire)
        assert [part for part, _ in records] == parts
        assert [payload for _, payload in records] == [
            pack_frame(sender, part) for part in parts]

    def test_queries_are_not_logged(self):
        assert not durable_records(*self._as_served(writer(0),
                                                    TagQuery(nonce=0)))
        assert not durable_records(writer(0), Batch(messages=(
            TagQuery(nonce=0), TagQuery(nonce=1))))

    def test_on_disk_records_are_the_parent_commits(self, tmp_path):
        """Logged through the serving path, the file holds exactly the
        bytes the previous format did -- and those bytes recover."""
        store = ReplicaDurability(str(tmp_path), fsync="never")
        for sender, message, _ in self.PINNED:
            sender, message, wire = self._as_served(sender, message)
            assert store.log_records(
                sender, durable_records(sender, message, wire)) is None
        store.close()
        with open(store.wal.path, "rb") as fh:
            assert fh.read().hex() == "".join(
                record for _, _, record in self.PINNED)
        assert ReplicaDurability(str(tmp_path)).recover() == [
            (sender, message) for sender, message, _ in self.PINNED]

    @staticmethod
    def _reencoded_snapshot(stream):
        """The digest as specified, kept as messages and encoded at
        snapshot time (what the compactor did before it kept bytes)."""
        tops, fences = {}, {}
        for sender, message in stream:
            key = message.register_id
            if isinstance(message, EpochFence):
                if message.lift:
                    fences.pop(key, None)
                    continue
                _, old = fences.get(key, (None, None))
                fences[key] = (sender, EpochFence(
                    nonce=message.nonce, register_id=key,
                    epoch=max(message.epoch, old.epoch if old else 0),
                    hard=message.hard or bool(old and old.hard)))
            else:
                slot = (key, type(message))
                if slot not in tops or message.tag >= tops[slot][1].tag:
                    tops[slot] = (sender, message)
        frames = []
        for key in sorted({k for k, _ in tops} | set(fences)):
            for kept in (tops.get((key, Pw)), tops.get((key, W)),
                         fences.get(key)):
                if kept is not None:
                    frames.append(pack_frame(*kept))
        return frames

    @given(st.lists(st.tuples(senders(), durable_messages()), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_snapshot_from_cached_bytes_is_the_reencoded_one(self, stream):
        cached = FrameCompactor()
        for sender, message in stream:
            cached.observe(sender, message, pack_frame(sender, message))
        assert cached.snapshot_frames() == self._reencoded_snapshot(stream)


# ---------------------------------------------------------------------------
# 3. snapshot + replay equivalence
# ---------------------------------------------------------------------------


def _drive(automaton, stream, durability=None):
    """Feed ``(sender, message)`` pairs, optionally logging them."""
    handler = resolve_batch_handler(automaton)
    for sender, message in stream:
        if durability is not None:
            durability.log(sender, message)
        handler(sender, (message,), [])


def _write_stream(keys, writes_per_key):
    stream = []
    for key in keys:
        for ts in range(1, writes_per_key + 1):
            pw, w = _tsval(ts, 0), _wtuple(max(ts - 1, 1), 0)
            stream.append((writer(0), Pw(ts=ts, pw=pw, w=w,
                                         register_id=key)))
            stream.append((writer(0), W(ts=ts, pw=pw, w=_wtuple(ts, 0),
                                        register_id=key)))
    return stream


class TestSnapshotReplayEquivalence:
    def _fresh(self):
        return RegularStorageProtocol().make_objects(CONFIG)[0]

    def _assert_equivalent(self, reference, recovered, keys):
        for key in keys:
            ref, rec = reference._slot(key), recovered._slot(key)
            assert rec.top_tag() == ref.top_tag()
            top = ref.top_tag()
            assert rec.history[top] == ref.history[top]

    def test_wal_only_replay_matches(self, tmp_path):
        keys = ["a", "b", "c"]
        stream = _write_stream(keys, writes_per_key=5)
        durability = ReplicaDurability(str(tmp_path), fsync="never")
        reference = self._fresh()
        _drive(reference, stream, durability)
        durability.close()

        recovered_store = ReplicaDurability(str(tmp_path))
        recovered = self._fresh()
        _drive(recovered, recovered_store.recover())
        self._assert_equivalent(reference, recovered, keys)

    def test_snapshot_plus_wal_replay_matches(self, tmp_path):
        keys = ["a", "b"]
        durability = ReplicaDurability(str(tmp_path), fsync="never")
        reference = self._fresh()
        # first burst -> snapshot, second burst stays in the WAL
        first = _write_stream(keys, writes_per_key=4)
        _drive(reference, first, durability)
        assert durability.take_snapshot() > 0
        second = []
        for key in keys:
            for ts in range(5, 8):
                pw, w = _tsval(ts, 0), _wtuple(ts - 1, 0)
                second.append((writer(0), Pw(ts=ts, pw=pw, w=w,
                                             register_id=key)))
                second.append((writer(0), W(ts=ts, pw=pw,
                                            w=_wtuple(ts, 0),
                                            register_id=key)))
        _drive(reference, second, durability)
        durability.close()

        recovered_store = ReplicaDurability(str(tmp_path))
        recovered = self._fresh()
        _drive(recovered, recovered_store.recover())
        self._assert_equivalent(reference, recovered, keys)

    def test_snapshot_plus_wal_replay_matches_with_fences(self, tmp_path):
        """Fence, merged fence (a later, lower, hard one), lift and a
        fence after the lift, on both sides of a snapshot."""
        def fence(key, nonce, epoch, **flags):
            return (writer(1), EpochFence(nonce=nonce, epoch=epoch,
                                          register_id=key, **flags))

        def write(key, ts):
            pw = _tsval(ts, 0)
            return [(writer(0), Pw(ts=ts, pw=pw, w=_wtuple(ts - 1 or 1, 0),
                                   register_id=key)),
                    (writer(0), W(ts=ts, pw=pw, w=_wtuple(ts, 0),
                                  register_id=key))]

        keys = ["a", "b", "c", "d"]
        first = [*write("a", 1), *write("a", 2), fence("a", 1, 2),
                 *write("b", 1), fence("b", 2, 9, hard=True),
                 fence("c", 3, 4), *write("d", 1), fence("d", 4, 7)]
        second = [*write("a", 3), fence("a", 5, 1, hard=True),  # merges
                  fence("b", 6, 0, lift=True), *write("b", 2),
                  fence("b", 7, 2),
                  fence("c", 8, 0, lift=True),
                  fence("d", 9, 8)]
        durability = ReplicaDurability(str(tmp_path), fsync="never")
        reference = self._fresh()
        _drive(reference, first, durability)
        assert durability.take_snapshot() > 0
        _drive(reference, second, durability)
        durability.close()

        for snapshot_again in (False, True):
            store = ReplicaDurability(str(tmp_path))
            recovered = self._fresh()
            _drive(recovered, store.recover())
            self._assert_equivalent(reference, recovered, keys)
            assert recovered.fences == reference.fences == {
                "a": 2, "b": 2, "d": 8}
            assert recovered.hard_fences == reference.hard_fences == {"a"}
            if not snapshot_again:
                store.take_snapshot()  # from recovered (on-disk) bytes
            store.close()

    def test_snapshot_bounds_state_and_truncates_wal(self, tmp_path):
        durability = ReplicaDurability(str(tmp_path), fsync="never")
        _drive(self._fresh(), _write_stream(["k"], 50), durability)
        assert durability.records_since_snapshot == 100
        frames = durability.take_snapshot()
        # 50 writes compact to the top Pw + W of the one register
        assert frames == 2
        assert durability.records_since_snapshot == 0
        assert durability.wal.replay() == []
        durability.close()

    def test_fence_state_survives_recovery(self, tmp_path):
        durability = ReplicaDurability(str(tmp_path), fsync="never")
        reference = self._fresh()
        stream = _write_stream(["k"], 3) + [
            (writer(0), EpochFence(nonce=1, epoch=9, register_id="k")),
        ]
        _drive(reference, stream, durability)
        durability.take_snapshot()
        durability.close()

        recovered = self._fresh()
        _drive(recovered, ReplicaDurability(str(tmp_path)).recover())
        # a write below the recovered fence is refused on both automata
        low = Pw(ts=5, pw=_tsval(5, 0), w=_wtuple(4, 0), register_id="k")
        for automaton in (reference, recovered):
            sink = []
            resolve_batch_handler(automaton)(writer(0), (low,), sink)
            kinds = [type(m).__name__ for m in sink]
            assert "WriteFenced" in kinds, kinds

    def test_fence_lift_clears_digest(self):
        compactor = FrameCompactor()
        compactor.observe(writer(0), EpochFence(nonce=1, epoch=9,
                                                register_id="k",
                                                hard=True))
        compactor.observe(writer(0), EpochFence(nonce=2, epoch=0,
                                                register_id="k",
                                                lift=True))
        frames = compactor.snapshot_frames()
        assert frames == []  # nothing durable left for the register

    def test_corrupt_snapshot_degrades_to_prefix(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        frames = [pack_frame(writer(0), m)
                  for _, m in _write_stream(["k"], 2)]
        store.save(frames)
        with open(store.path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)[0]
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last ^ 0xFF]))
        loaded = store.load()
        assert loaded == frames[:-1]


class TestConfigKnobs:
    def test_deployment_validation(self):
        with pytest.raises(Exception):
            SystemConfig.optimal(t=1, b=1).with_deployment("clustered")
        with pytest.raises(Exception):
            SystemConfig.optimal(t=1, b=1).with_deployment(
                "multiproc", wal_fsync="sometimes")
        config = SystemConfig.optimal(t=1, b=1).with_deployment(
            "multiproc", wal_fsync="always")
        assert config.deployment == "multiproc"
        assert config.wal_fsync == "always"
        assert config.quorum_size == 3  # the rest of the config is kept

    def test_fsync_policies_all_replayable(self, tmp_path):
        for fsync in ("always", "batch", "never"):
            path = str(tmp_path / f"wal-{fsync}.bin")
            log = WriteAheadLog(path, fsync=fsync)
            for i in range(70):  # crosses the batch-sync interval
                log.append(b"x%d" % i)
            log.close()
            log = WriteAheadLog(path)
            assert len(log.replay()) == 70
            log.close()
