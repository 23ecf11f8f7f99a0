"""Codec coverage for baseline and extension message vocabularies."""

import pytest

from repro.baselines.abd.protocol import (AbdQuery, AbdQueryAck, AbdStore,
                                          AbdStoreAck)
from repro.baselines.authenticated.protocol import (AuthQuery, AuthQueryAck,
                                                    AuthStore, AuthStoreAck)
from repro.core.atomic import WriteBack, WriteBackAck
from repro.crypto_sim import Signer
from repro.errors import TransportError
from repro.runtime import codec
from repro.runtime.codec import (_S_I64, decode_message_binary,
                                 encode_message_binary, register_binary_codec)
from repro.types import (TimestampValue, TsrArray, WriteTuple,
                         initial_write_tuple)


def roundtrip(message):
    decoded = decode_message_binary(encode_message_binary(message))
    assert decoded == message
    return decoded


class TestAbdCodecs:
    def test_store(self):
        roundtrip(AbdStore(tsval=TimestampValue(5, "v"), nonce=9))

    def test_store_ack(self):
        roundtrip(AbdStoreAck(nonce=9, ts=5))

    def test_query_pair(self):
        roundtrip(AbdQuery(nonce=1))
        roundtrip(AbdQueryAck(nonce=1, tsval=TimestampValue(2, 17)))


class TestAuthCodecs:
    def test_signed_roundtrip_verifies(self):
        signer = Signer("writer")
        signed = signer.sign(TimestampValue(4, "v"))
        decoded = roundtrip(AuthStore(signed=signed, nonce=2))
        # the signature must still verify after the wire trip
        assert signer.public_key().verify(decoded.signed)

    def test_none_signed(self):
        roundtrip(AuthQueryAck(nonce=3, signed=None))

    def test_query_and_acks(self):
        roundtrip(AuthQuery(nonce=4))
        roundtrip(AuthStoreAck(nonce=4))


class TestAtomicCodecs:
    def test_write_back(self):
        c = WriteTuple(TimestampValue(3, "wb"),
                       TsrArray.empty(4, 2).with_entry(1, 1, 8))
        roundtrip(WriteBack(c=c, nonce=5, reader_index=1))

    def test_write_back_initial_tuple(self):
        roundtrip(WriteBack(c=initial_write_tuple(4, 1), nonce=1,
                            reader_index=0))

    def test_write_back_ack(self):
        roundtrip(WriteBackAck(nonce=5, object_index=2))


class TestRegisterCodec:
    def test_user_defined_type(self, monkeypatch):
        # register into copies, so the shipped kind-byte table is intact
        # for every later test
        for table in ("_BIN_ENCODERS", "_BIN_DECODERS", "_BIN_KINDS"):
            monkeypatch.setattr(codec, table, dict(getattr(codec, table)))
        from dataclasses import dataclass
        from repro.messages import Message

        @dataclass(frozen=True)
        class Probe(Message):
            seq: int

        def encode(buf, m, strings):
            buf += _S_I64.pack(m.seq)

        def decode(data, pos, strings):
            return Probe(seq=_S_I64.unpack_from(data, pos)[0]), pos + 8

        register_binary_codec(Probe, 120, encode, decode)
        roundtrip(Probe(seq=42))
        # re-registering the same binding is idempotent ...
        register_binary_codec(Probe, 120, encode, decode)
        # ... but a kind byte already bound elsewhere is refused
        with pytest.raises(TransportError):
            register_binary_codec(Probe, 64, encode, decode)


class TestFenceCodecs:
    def test_epoch_fence_roundtrip(self):
        from repro.messages import EpochFence, EpochFenceAck, WriteFenced
        roundtrip(EpochFence(nonce=7, epoch=12, register_id="k"))
        roundtrip(EpochFenceAck(nonce=7, object_index=2, epoch=12,
                                register_id="k"))
        roundtrip(WriteFenced(object_index=1, epoch=9, fence_epoch=12,
                              wid=3, nonce=5, register_id="k"))

    def test_abd_store_write_back_flag(self):
        plain = AbdStore(tsval=TimestampValue(5, "v"), nonce=9)
        wb = AbdStore(tsval=TimestampValue(5, "v"), nonce=9,
                      write_back=True)
        assert roundtrip(plain).write_back is False
        assert roundtrip(wb).write_back is True
        # the flag is the byte after the kind byte; nothing else differs
        plain_wire = encode_message_binary(plain)
        wb_wire = encode_message_binary(wb)
        assert (plain_wire[2], wb_wire[2]) == (0, 1)
        assert plain_wire[3:] == wb_wire[3:]
