"""Wire-codec coverage for register-addressed messages and batches."""

import pytest

from repro.baselines.abd.protocol import (AbdQuery, AbdQueryAck, AbdStore,
                                          AbdStoreAck)
from repro.core.atomic.protocol import WriteBack, WriteBackAck
from repro.errors import TransportError
from repro.messages import (Batch, HistoryEntry, HistoryReadAck, Pw, PwAck,
                            ReadAck, ReadRequest, TagQueryAck, W, WriteAck,
                            register_of, unbatch)
from repro.runtime.codec import (BINARY_MAGIC, decode_message_binary,
                                 encode_message_binary)
from repro.types import (DEFAULT_REGISTER, TimestampValue, TsrArray,
                         WriterTag, WriteTuple)


@pytest.fixture
def wtuple() -> WriteTuple:
    return WriteTuple(TimestampValue(3, "v3"), TsrArray.empty(4, 2))


def roundtrip(message):
    return decode_message_binary(encode_message_binary(message))


class TestRegisterFieldRoundTrips:
    @pytest.mark.parametrize("register_id", ["r0", "user:42", "キー"])
    def test_core_messages(self, wtuple, register_id):
        messages = [
            Pw(ts=3, pw=wtuple.tsval, w=wtuple, register_id=register_id),
            W(ts=3, pw=wtuple.tsval, w=wtuple, register_id=register_id),
            PwAck(ts=3, object_index=1, tsr=(0, 2),
                  register_id=register_id),
            WriteAck(ts=3, object_index=2, register_id=register_id),
            ReadRequest(round_index=1, tsr=5, reader_index=0,
                        register_id=register_id),
            ReadAck(round_index=2, tsr=6, object_index=0, pw=wtuple.tsval,
                    w=wtuple, register_id=register_id),
            HistoryReadAck(round_index=1, tsr=7, object_index=3,
                           history={3: HistoryEntry(pw=wtuple.tsval,
                                                    w=wtuple)},
                           register_id=register_id),
        ]
        for message in messages:
            decoded = roundtrip(message)
            assert decoded == message
            assert decoded.register_id == register_id
            assert register_of(decoded) == register_id

    def test_extension_messages(self, wtuple):
        messages = [
            AbdStore(tsval=wtuple.tsval, nonce=9, register_id="k1"),
            AbdStoreAck(nonce=9, ts=3, register_id="k1"),
            AbdQuery(nonce=2, register_id="k2"),
            AbdQueryAck(nonce=2, tsval=wtuple.tsval, register_id="k2"),
            WriteBack(c=wtuple, nonce=4, reader_index=1, register_id="k3"),
            WriteBackAck(nonce=4, object_index=0, register_id="k3"),
        ]
        for message in messages:
            assert roundtrip(message) == message

    def test_tag_returning_read_frames_keep_tags(self, wtuple):
        """The frames a tag-returning read rides on round-trip their
        MWMR tags exactly -- the observed tag a read reports (and a
        snapshot cut records) comes entirely out of these fields; there
        is no extra wire frame."""
        tagged = TimestampValue(3, "v3", wid=2)
        messages = [
            # Suffix request anchored at a multi-writer tag.
            ReadRequest(round_index=1, tsr=5, reader_index=1,
                        from_ts=WriterTag(4, 2), register_id="snap:k"),
            # Safe-protocol ack: the tag lives in the pw pair.
            ReadAck(round_index=2, tsr=6, object_index=0, pw=tagged,
                    w=wtuple, register_id="snap:k"),
            # Regular-protocol ack: tags key the history mapping.
            HistoryReadAck(round_index=2, tsr=7, object_index=3,
                           history={WriterTag(3, 2): HistoryEntry(
                               pw=tagged, w=None)},
                           register_id="snap:k"),
            # The discovery ack of the MWMR write path.
            TagQueryAck(nonce=11, object_index=2, epoch=9, wid=3,
                        register_id="snap:k"),
        ]
        for message in messages:
            decoded = roundtrip(message)
            assert decoded == message
        decoded_request = roundtrip(messages[0])
        assert decoded_request.from_ts == WriterTag(4, 2)
        decoded_ack = roundtrip(messages[1])
        assert decoded_ack.pw.tag == WriterTag(3, 2)
        decoded_history = roundtrip(messages[2])
        (key, entry), = decoded_history.history.items()
        assert key == WriterTag(3, 2) and type(key) is WriterTag
        assert entry.pw.tag == WriterTag(3, 2)
        assert roundtrip(messages[3]).tag == WriterTag(9, 3)

    def test_tagged_write_frames_keep_writer_ids(self, wtuple):
        for message in [
            Pw(ts=3, pw=wtuple.tsval, w=wtuple, register_id="k",
               wid=7),
            W(ts=3, pw=wtuple.tsval, w=wtuple, register_id="k", wid=7),
            PwAck(ts=3, object_index=1, tsr=(0, 2), register_id="k",
                  wid=7),
            WriteAck(ts=3, object_index=2, register_id="k", wid=7),
        ]:
            decoded = roundtrip(message)
            assert decoded == message
            assert decoded.wid == 7

    def test_register_of_defaults_for_plain_payloads(self):
        assert register_of("probe") == DEFAULT_REGISTER
        assert register_of(object()) == DEFAULT_REGISTER


class TestBatchCodec:
    def test_batch_roundtrip(self, wtuple):
        batch = Batch(messages=(
            WriteAck(ts=1, object_index=0, register_id="a"),
            PwAck(ts=2, object_index=0, tsr=(0,), register_id="b"),
            ReadRequest(round_index=1, tsr=3, reader_index=0,
                        register_id="c"),
        ))
        decoded = roundtrip(batch)
        assert decoded == batch
        assert [register_of(part) for part in unbatch(decoded)] == \
            ["a", "b", "c"]

    def test_unbatch_of_plain_message_is_identity(self):
        message = WriteAck(ts=1, object_index=0)
        assert unbatch(message) == (message,)

    def test_batches_do_not_nest(self):
        inner = Batch(messages=(WriteAck(ts=1, object_index=0),))
        with pytest.raises(ValueError):
            Batch(messages=(inner,))

    def test_batch_size_accounts_for_parts(self, wtuple):
        parts = tuple(WriteAck(ts=n, object_index=0) for n in range(10))
        batch = Batch(messages=parts)
        assert batch.estimated_size() >= sum(p.estimated_size()
                                             for p in parts)

    def test_unknown_kind_still_rejected(self):
        with pytest.raises(TransportError):
            decode_message_binary(bytes([BINARY_MAGIC, 63]))
