"""Unit tests for the client host's admission and completion rules.

The delivery seam itself (mailboxes, consumers, the flush) is covered in
``tests/test_mailbox.py``.
"""

import asyncio

import pytest

from repro.automata.base import ClientOperation
from repro.errors import TransportError
from repro.runtime.hosts import MuxClientHost
from repro.runtime.memnet import AsyncNetwork
from repro.types import obj, reader


def run(coro):
    return asyncio.run(coro)


class Silent(ClientOperation):
    """Sends nothing and never completes on its own."""

    kind = "READ"

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

    def test_zero_communication_completion(self):
        async def scenario():
            host = MuxClientHost(reader(0), AsyncNetwork())
            return await host.run(Instant(reader(0)), timeout=1)

        assert run(scenario()) == "now"
