"""Unit tests for the client host's admission and completion rules.

The delivery seam itself (mailboxes, consumers, the flush) is covered in
``tests/test_mailbox.py``.
"""

import asyncio
import gc

import pytest

from repro.automata.base import ClientOperation
from repro.config import SystemConfig
from repro.core.regular import CachedRegularStorageProtocol
from repro.core.regular.reader import RegularReadOperation
from repro.core.safe.writer import SafeWriteOperation
from repro.errors import TransportError
from repro.runtime.hosts import MuxClientHost
from repro.runtime.memnet import AsyncNetwork
from repro.service import MultiRegisterStore
from repro.types import obj, reader

MWMR = SystemConfig.optimal(t=1, b=1, num_readers=2, num_writers=2)


def run(coro):
    return asyncio.run(coro)


class Silent(ClientOperation):
    """Sends nothing and never completes on its own."""

    kind = "READ"
    config = MWMR

    def start(self):
        return []

    def on_message(self, sender, message):
        return []


class Instant(Silent):
    def start(self):
        self.complete("now")
        return []


class TestMuxClientHost:
    def test_rejects_object_pids(self):
        with pytest.raises(TransportError):
            MuxClientHost(obj(0), AsyncNetwork())

    def test_rejects_foreign_operation(self):
        async def scenario():
            host = MuxClientHost(reader(0), AsyncNetwork())
            with pytest.raises(TransportError):
                await host.run(Silent(reader(1)))

        run(scenario())

    def test_timeout_withdraws_the_operation(self):
        async def scenario():
            host = MuxClientHost(reader(0), AsyncNetwork())
            with pytest.raises(asyncio.TimeoutError):
                await host.run(Silent(reader(0)), timeout=0.05)
            # the register is free again
            return await host.run(Instant(reader(0)), timeout=1)

        assert run(scenario()) == "now"

    def test_rejects_a_second_broadcast_width(self):
        class Wider(Instant):
            config = SystemConfig.optimal(t=2, b=1)

        async def scenario():
            host = MuxClientHost(reader(0), AsyncNetwork())
            await host.run(Instant(reader(0)), timeout=1)
            with pytest.raises(TransportError):
                await host.run(Wider(reader(0)), timeout=1)
            # the refused call left nothing pending behind
            return await host.run(Instant(reader(0)), timeout=1)

        assert run(scenario()) == "now"

    def test_zero_communication_completion(self):
        async def scenario():
            host = MuxClientHost(reader(0), AsyncNetwork())
            return await host.run(Instant(reader(0)), timeout=1)

        assert run(scenario()) == "now"


class TestOneDriver:
    """Single-key calls ride the vector round engine -- absorb per ack,
    one advance per burst -- with no second, per-ack path beside it."""

    def test_single_key_calls_never_step_on_message(self, monkeypatch):
        def refuse(self, sender, message):
            raise AssertionError("the host stepped an operation per ack")

        monkeypatch.setattr(SafeWriteOperation, "on_message", refuse)
        monkeypatch.setattr(RegularReadOperation, "on_message", refuse)

        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          MWMR) as store:
                sent = store.network.messages_sent
                await store.write("k", "v", writer_index=1)
                put = store.network.messages_sent - sent
                sent = store.network.messages_sent
                value = await store.read("k")
                get = store.network.messages_sent - sent
                return put, get, value

        # An uncontended MWMR put is PW (checking its guessed tag) and
        # W: two request/ack rounds; an uncontended get decides on
        # round one.
        s = MWMR.num_objects
        assert run(scenario()) == (4 * s, 2 * s, "v")

    def test_cancelled_run_withdraws_its_operation(self):
        async def scenario():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context))
            host = MuxClientHost(reader(0), AsyncNetwork())
            call = asyncio.ensure_future(
                host.run(Silent(reader(0)), timeout=0.05))
            await asyncio.sleep(0)
            call.cancel()
            with pytest.raises(asyncio.CancelledError):
                await call
            # the register admits the next operation at once
            result = await host.run(Instant(reader(0)), timeout=1)
            await asyncio.sleep(0.1)  # past the cancelled call's deadline
            gc.collect()
            return result, errors

        assert run(scenario()) == ("now", [])

    def test_empty_batches(self):
        async def scenario():
            host = MuxClientHost(reader(0), AsyncNetwork())
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          MWMR) as store:
                return (await host.run_many([]),
                        await store.read_many([]),
                        await store.write_many({}))

        assert run(scenario()) == ([], {}, {})
