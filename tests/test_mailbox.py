"""The in-process delivery seam: mailboxes, consumers and the flush.

Covers :class:`AsyncNetwork` on its own (plain-function consumers), the
two hosts as consumers, and the fairness pin: a flush holds the loop for
the operations in flight, never across two calls of one session.
"""

import asyncio
import time

import pytest

from repro.api import Cluster
from repro.automata.base import ClientOperation
from repro.config import SystemConfig
from repro.core.regular import (CachedRegularStorageProtocol,
                                RegularStorageProtocol)
from repro.errors import TransportError
from repro.messages import Batch, Pw, TagQuery
from repro.runtime.hosts import MuxClientHost, ObjectHost
from repro.runtime.memnet import AsyncNetwork
from repro.service.store import MultiRegisterStore
from repro.types import WRITER, obj, reader

CONFIG = SystemConfig.optimal(t=1, b=1, num_readers=2)


def run(coro):
    return asyncio.run(coro)


def _query(nonce):
    return TagQuery(nonce=nonce, register_id="k")


def _replica(index=0):
    return RegularStorageProtocol().make_objects(CONFIG)[index]


def _collect(network, pid):
    """Attach a consumer that keeps every burst it is called with."""
    bursts = []
    network.register(pid)
    network.attach(pid, bursts.append)
    return bursts


def _errors():
    """Route the running loop's exception reports into a list."""
    reports = []
    asyncio.get_running_loop().set_exception_handler(
        lambda loop, context: reports.append(context))
    return reports


class TestMailbox:
    def test_sends_of_one_step_arrive_as_one_burst(self):
        async def scenario():
            net = AsyncNetwork()
            bursts = _collect(net, reader(0))
            for n in range(5):
                net.send(WRITER, reader(0), n)
            assert bursts == []  # delivery is a later callback, not a call
            await asyncio.sleep(0)
            return bursts, net.messages_sent

        bursts, sent = run(scenario())
        assert [[e.payload for e in burst] for burst in bursts] \
            == [[0, 1, 2, 3, 4]]
        assert {(e.sender, e.receiver) for e in bursts[0]} \
            == {(WRITER, reader(0))}
        assert sent == 5

    def test_ready_mailboxes_are_served_in_wake_order(self):
        async def scenario():
            net = AsyncNetwork()
            order = []
            for j in (0, 1):
                net.register(reader(j))
                net.attach(reader(j), lambda burst, j=j: order.append(
                    (j, [e.payload for e in burst])))
            net.send(WRITER, reader(1), "a")
            net.send(WRITER, reader(0), "b")
            net.send(WRITER, reader(1), "c")
            await asyncio.sleep(0)
            return order

        assert run(scenario()) == [(1, ["a", "c"]), (0, ["b"])]

    def test_unregistered_receiver_rejected(self):
        async def scenario():
            net = AsyncNetwork()
            with pytest.raises(TransportError):
                net.inbox(reader(5))
            with pytest.raises(TransportError):
                net.send(WRITER, reader(5), "nobody home")
            with pytest.raises(TransportError):
                net.attach(reader(5), print)

        run(scenario())

    def test_second_consumer_is_refused_until_the_first_detaches(self):
        async def scenario():
            net = AsyncNetwork()
            first = _collect(net, reader(0))
            with pytest.raises(TransportError):
                net.attach(reader(0), print)
            net.detach(reader(0), print)  # not the one attached: a no-op
            net.send(WRITER, reader(0), 1)
            await asyncio.sleep(0)
            net.detach(reader(0), first.append)
            net.attach(reader(0), print)
            return len(first)

        assert run(scenario()) == 1

    def test_mail_parks_without_a_consumer_and_keeps_its_order(self):
        async def scenario():
            net = AsyncNetwork()
            mailbox = net.register(reader(0))
            assert net.register(reader(0)) is mailbox  # hand-over
            for n in range(3):
                net.send(WRITER, reader(0), n)
            await asyncio.sleep(0)
            parked = mailbox.qsize()
            bursts = []
            net.attach(reader(0), bursts.append)
            await asyncio.sleep(0)
            return parked, [e.payload for e in bursts[0]], mailbox.qsize()

        assert run(scenario()) == (3, [0, 1, 2], 0)

    def test_crash_drops_and_restore_resumes(self):
        async def scenario():
            net = AsyncNetwork()
            bursts = _collect(net, reader(0))
            net.send(WRITER, reader(0), "before")
            net.crash(reader(0))
            net.send(WRITER, reader(0), "lost")
            await asyncio.sleep(0)
            net.restore(reader(0))
            net.send(WRITER, reader(0), "after")
            await asyncio.sleep(0)
            return ([e.payload for burst in bursts for e in burst],
                    net.messages_sent)

        # sent while crashed stays lost; the counter counts every send
        assert run(scenario()) == (["before", "after"], 3)

    def test_jitter_delivers_everything_and_drain_waits(self):
        async def scenario():
            net = AsyncNetwork(jitter=0.005, seed=1)
            bursts = _collect(net, reader(0))
            for n in range(20):
                net.send(WRITER, reader(0), n)
            await net.drain()
            await asyncio.sleep(0)
            return [e.payload for burst in bursts for e in burst]

        payloads = run(scenario())
        assert sorted(payloads) == list(range(20))
        assert payloads != list(range(20))  # per-message delays reorder

    def test_a_consumer_mailing_itself_is_not_reentered(self):
        async def scenario():
            net = AsyncNetwork()
            net.register(reader(0))
            depth = 0
            seen = []

            def consumer(burst):
                nonlocal depth
                depth += 1
                assert depth == 1, "consumer entered re-entrantly"
                for envelope in burst:
                    seen.append(envelope.payload)
                    if envelope.payload < 3:
                        net.send(reader(0), reader(0), envelope.payload + 1)
                depth -= 1

            net.attach(reader(0), consumer)
            net.send(WRITER, reader(0), 0)
            await asyncio.sleep(0)  # one callback serves the whole chain
            return seen

        assert run(scenario()) == [0, 1, 2, 3]

    def test_a_raising_consumer_does_not_stop_its_neighbours(self):
        async def scenario():
            reports = _errors()
            net = AsyncNetwork()
            net.register(reader(0))

            def broken(burst):
                raise RuntimeError("boom")

            net.attach(reader(0), broken)
            neighbour = _collect(net, reader(1))
            net.send(WRITER, reader(0), "x")
            net.send(WRITER, reader(1), "y")
            await asyncio.sleep(0)
            net.send(WRITER, reader(1), "z")  # the network still delivers
            await asyncio.sleep(0)
            return ([e.payload for burst in neighbour for e in burst],
                    [type(r["exception"]) for r in reports])

        assert run(scenario()) == (["y", "z"], [RuntimeError])


class TestObjectHost:
    def test_a_burst_is_answered_with_one_frame_per_sender(self):
        async def scenario():
            net = AsyncNetwork()
            host = ObjectHost(_replica(), net)
            host.start()
            acks = {j: _collect(net, reader(j)) for j in (0, 1)}
            for nonce in (1, 2, 3):
                net.send(reader(0), obj(0), _query(nonce))
            net.send(reader(1), obj(0), _query(9))
            await asyncio.sleep(0)
            host.stop()
            return acks, net.messages_sent

        acks, sent = run(scenario())
        (envelope,), = acks[0]
        assert isinstance(envelope.payload, Batch)
        assert [ack.nonce for ack in envelope.payload.messages] == [1, 2, 3]
        (single,), = acks[1]
        assert single.payload.nonce == 9  # a lone reply stays unwrapped
        assert sent == 4 + 2

    def test_replacement_host_drains_parked_mail_in_order(self):
        async def scenario():
            net = AsyncNetwork()
            acks = _collect(net, WRITER)
            old = ObjectHost(_replica(), net)
            old.start()
            old.stop()
            old.stop()  # idempotent
            for nonce in (1, 2, 3):
                net.send(WRITER, obj(0), _query(nonce))
            await asyncio.sleep(0)
            parked = net.inbox(obj(0)).qsize()
            new = ObjectHost(_replica(), net)
            new.start()
            old.stop()  # a stale stop must not unplug the replacement
            await asyncio.sleep(0)
            return parked, acks, net.inbox(obj(0)).qsize()

        parked, acks, left = run(scenario())
        assert (parked, left) == (3, 0)
        (envelope,), = acks
        assert [ack.nonce for ack in envelope.payload.messages] == [1, 2, 3]

    def test_poisoned_frame_is_dropped_and_the_replica_keeps_serving(self):
        """Regression: an exception out of ``handle_batch`` used to kill
        the replica's task -- one bad frame spent the whole ``t`` budget,
        silently."""
        poison = Pw(ts=None, pw=None, w=None, register_id="k")

        async def scenario():
            reports = _errors()
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          CONFIG) as store:
                await store.write("k", "v1")
                store.network.send(WRITER, obj(0), poison)
                await asyncio.sleep(0)
                await store.write("k", "v2")
                await store.write("k", "v3")
                # every replica, the poisoned one included, took both writes
                assert [store.object_automaton(i).slots["k"].ts
                        for i in range(CONFIG.num_objects)] \
                    == [3] * CONFIG.num_objects
                assert store.network.inbox(obj(0)).qsize() == 0
                assert [host.handler_errors
                        for host in store._object_hosts] == [1, 0, 0, 0]
                assert len(reports) == 1

        run(scenario())

    def test_poison_costs_only_its_own_envelope(self):
        async def scenario():
            _errors()
            net = AsyncNetwork()
            host = ObjectHost(_replica(), net)
            host.start()
            acks = _collect(net, WRITER)
            net.send(WRITER, obj(0), _query(1))
            net.send(WRITER, obj(0), Batch((
                _query(2), Pw(ts=None, pw=None, w=None, register_id="k"))))
            net.send(WRITER, obj(0), _query(3))
            await asyncio.sleep(0)
            return acks, host.handler_errors

        acks, errors = run(scenario())
        (envelope,), = acks
        # the poisoned envelope's half-built reply (nonce 2) goes with it
        assert [ack.nonce for ack in envelope.payload.messages] == [1, 3]
        assert errors == 1


class _Stuck(ClientOperation):
    kind = "READ"
    config = CONFIG

    def start(self):
        return []

    def on_message(self, sender, message):
        return []


class TestMuxClientHost:
    def test_stop_fails_waiters_of_operations_in_flight(self):
        async def scenario():
            net = AsyncNetwork()
            host = MuxClientHost(reader(0), net)
            waiter = asyncio.ensure_future(host.run(_Stuck(reader(0))))
            await asyncio.sleep(0)
            host.stop()
            with pytest.raises(TransportError):
                await asyncio.wait_for(waiter, 1)
            # detached: replies now park instead of being consumed
            net.send(obj(0), reader(0), _query(1))
            await asyncio.sleep(0)
            return net.inbox(reader(0)).qsize()

        assert run(scenario()) == 1

    def test_run_after_stop_reattaches(self):
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          CONFIG) as store:
                await store.write("k", "v1")
                store._reader_hosts[0].stop()
                return await store.read("k", timeout=1)

        assert run(scenario()) == "v1"


class TestFairness:
    """One flush may run an operation's rounds back to back, but never
    two calls of one session: other tasks get the loop in between."""

    def test_a_ticker_advances_once_per_completed_call(self):
        async def scenario():
            ticks = 0

            async def ticker():
                nonlocal ticks
                while True:
                    await asyncio.sleep(0)
                    ticks += 1

            async def closed_loop(call, calls):
                gaps = []
                for n in range(calls):
                    before = ticks
                    await call(n)
                    gaps.append(ticks - before)
                return gaps

            config = SystemConfig.optimal(t=1, b=1, num_readers=2,
                                          num_writers=2)
            async with Cluster(CachedRegularStorageProtocol,
                               config) as cluster:
                single, batch = cluster.session(), cluster.session()
                items = {f"b{i}": "x" for i in range(256)}

                async def single_key(n):
                    if n % 2:
                        await single.put("a", f"v{n}")
                    else:
                        await single.get("a")

                task = asyncio.ensure_future(ticker())
                try:
                    return await asyncio.gather(
                        closed_loop(single_key, 200),
                        closed_loop(lambda n: batch.put_many(items), 20))
                finally:
                    task.cancel()

        single_gaps, batch_gaps = run(scenario())
        assert min(single_gaps) >= 1
        assert min(batch_gaps) >= 1

    def test_timeout_fires_on_time_when_no_quorum_can_form(self):
        async def scenario():
            async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                          CONFIG) as store:
                await store.write("k", "v1")
                for index in range(CONFIG.t + 1):
                    store.crash_object(index)
                start = time.perf_counter()
                with pytest.raises(asyncio.TimeoutError):
                    await store.write("k", "v2", timeout=0.05)
                return time.perf_counter() - start

        assert 0.05 <= run(scenario()) < 0.15  # ~2x, plus CI slack
