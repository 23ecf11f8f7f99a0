"""Micro-benchmarks of the substrates themselves.

Not tied to a paper artifact; these watch the simulator and the hot
protocol paths so optimization work (or regressions) show up in numbers:

* kernel message throughput (deliveries/second);
* object automaton handler cost;
* candidate-tracker predicate evaluation with many candidates;
* wire-codec encode/decode throughput;
* the vector round engine (batched multi-key writes+reads end to end).
"""

import asyncio

from repro.config import SystemConfig
from repro.core.regular import CachedRegularStorageProtocol
from repro.core.safe import SafeStorageProtocol
from repro.core.safe.object import SafeObject
from repro.core.safe.predicates import CandidateTracker
from repro.messages import HistoryReadAck, HistoryEntry, ReadRequest
from repro.runtime.codec import (decode_message_binary,
                                 encode_message_binary)
from repro.service import MultiRegisterStore
from repro.system import StorageSystem
from repro.types import TimestampValue, TsrArray, WriteTuple, reader


def test_kernel_throughput(benchmark):
    """Messages the kernel can route per benchmark round (100 ops)."""
    config = SystemConfig.optimal(t=2, b=1, num_readers=1)
    system = StorageSystem(SafeStorageProtocol(), config,
                           trace_enabled=False)
    counter = [0]

    def burst():
        for _ in range(10):
            counter[0] += 1
            system.write(f"v{counter[0]}")
        return system.metrics()["messages_delivered"]

    delivered = benchmark(burst)
    assert delivered > 0


def test_object_handler_cost(benchmark):
    config = SystemConfig.optimal(t=2, b=1, num_readers=1)
    object_ = SafeObject(0, config)
    tsr = [0]

    def handle():
        tsr[0] += 1
        return object_.on_message(reader(0),
                                  ReadRequest(1, tsr[0], reader_index=0))

    replies = benchmark(handle)
    assert len(replies) == 1


def test_candidate_tracker_cost(benchmark):
    """safe()/highCand()/elimination over 20 candidates x 20 objects."""
    arr = TsrArray.empty(20, 1)
    candidates = [WriteTuple(TimestampValue(ts, f"v{ts}"), arr)
                  for ts in range(1, 21)]

    def evaluate():
        tracker = CandidateTracker(elimination_threshold=7,
                                   confirmation_threshold=3)
        for i, c in enumerate(candidates):
            tracker.record_first_round(i % 20, c.tsval, c)
        for i, c in enumerate(reversed(candidates)):
            tracker.record_second_round(i % 20, c.tsval, c)
        return tracker.returnable()

    result = evaluate()
    benchmark(evaluate)
    assert result is None or result.ts >= 1


def test_binary_codec_throughput(benchmark):
    """Encode+decode of a 50-entry history ack."""
    arr = TsrArray.empty(6, 2)
    history = {
        ts: HistoryEntry(pw=TimestampValue(ts, f"v{ts}"),
                         w=WriteTuple(TimestampValue(ts, f"v{ts}"), arr))
        for ts in range(1, 51)
    }
    ack = HistoryReadAck(round_index=1, tsr=3, object_index=0,
                         history=history)

    def roundtrip():
        return decode_message_binary(encode_message_binary(ack))

    decoded = benchmark(roundtrip)
    assert decoded == ack


def test_vector_round_engine(benchmark):
    """Batched 32-key write+read through the vector round engine,
    end to end on the asyncio tier (store lifecycle included)."""
    config = SystemConfig.optimal(t=1, b=1, num_readers=1)
    keys = [f"key:{n}" for n in range(32)]

    async def batch() -> int:
        store = MultiRegisterStore(CachedRegularStorageProtocol(), config)
        await store.start()
        await store.write_many({key: f"v-{key}" for key in keys})
        reads = await store.read_many(keys)
        await store.stop()
        return len(reads)

    count = benchmark(lambda: asyncio.run(batch()))
    assert count == len(keys)
