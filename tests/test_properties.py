"""Property-based tests (hypothesis) on core invariants.

Four families:

1. value types: TsrArray derivation laws, TimestampValue total order;
2. wire codec: decode(encode(m)) == m over generated messages;
3. protocol safety/regularity under *generated* schedules and fault
   plans -- the heavyweight property: any seeded random run of the
   paper's protocols must satisfy its register specification;
4. the conflict-free-quorum search agrees with a brute-force oracle on
   small instances.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary import random_plan
from repro.config import SystemConfig
from repro.core.regular import (CachedRegularStorageProtocol,
                                RegularStorageProtocol)
from repro.core.safe import SafeStorageProtocol
from repro.core.safe.predicates import exists_conflict_free_quorum
from repro.harness import WorkloadSpec, run_concurrent
from repro.messages import Pw, ReadAck, ReadRequest
from repro.runtime.codec import decode_message_binary, encode_message_binary
from repro.sim import RandomScheduler
from repro.spec import check_regularity, check_safety, check_wait_freedom
from repro.system import StorageSystem
from repro.types import TimestampValue, TsrArray, WriteTuple

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

values = st.one_of(st.text(max_size=8), st.integers(-1000, 1000),
                   st.booleans())
timestamps = st.integers(1, 10**6)


@st.composite
def tsvals(draw):
    return TimestampValue(draw(timestamps), draw(values))


@st.composite
def tsr_arrays(draw, max_s=5, max_r=3):
    s = draw(st.integers(1, max_s))
    r = draw(st.integers(1, max_r))
    rows = draw(st.lists(
        st.lists(st.one_of(st.none(), st.integers(0, 50)),
                 min_size=r, max_size=r),
        min_size=s, max_size=s))
    return TsrArray.from_lists(rows)


@st.composite
def write_tuples(draw):
    return WriteTuple(draw(tsvals()), draw(tsr_arrays()))


# ---------------------------------------------------------------------------
# 1. value-type laws
# ---------------------------------------------------------------------------


@given(tsr_arrays(), st.data())
def test_tsr_with_entry_changes_exactly_one_cell(arr, data):
    i = data.draw(st.integers(0, arr.num_objects - 1))
    j = data.draw(st.integers(0, arr.num_readers - 1))
    v = data.draw(st.integers(0, 99))
    updated = arr.with_entry(i, j, v)
    for (oi, oj, cell) in updated.entries():
        if (oi, oj) == (i, j):
            assert cell == v
        else:
            assert cell == arr.get(oi, oj)


@given(tsr_arrays())
def test_tsr_hash_consistent_with_eq(arr):
    clone = TsrArray.from_lists([list(row) for row in arr])
    assert arr == clone and hash(arr) == hash(clone)


@given(st.lists(tsvals(), min_size=2, max_size=6))
def test_tsval_order_total_and_ts_monotone(pairs):
    ordered = sorted(pairs)
    for a, b in zip(ordered, ordered[1:]):
        assert a.ts <= b.ts  # order refines timestamp order


# ---------------------------------------------------------------------------
# 2. codec round-trips
# ---------------------------------------------------------------------------


@given(write_tuples())
@settings(max_examples=50)
def test_codec_roundtrip_pw(wt):
    message = Pw(ts=wt.ts if wt.ts > 0 else 1, pw=wt.tsval, w=wt)
    assert decode_message_binary(encode_message_binary(message)) == message


@given(write_tuples(), st.integers(1, 2), st.integers(1, 100))
@settings(max_examples=50)
def test_codec_roundtrip_read_ack(wt, round_index, tsr):
    message = ReadAck(round_index=round_index, tsr=tsr, object_index=0,
                      pw=wt.tsval, w=wt)
    assert decode_message_binary(encode_message_binary(message)) == message


@given(st.integers(1, 2), st.integers(1, 1000),
       st.integers(0, 5), st.one_of(st.none(), st.integers(0, 100)))
def test_codec_roundtrip_read_request(k, tsr, j, from_ts):
    message = ReadRequest(round_index=k, tsr=tsr, reader_index=j,
                          from_ts=from_ts)
    assert decode_message_binary(encode_message_binary(message)) == message


# ---------------------------------------------------------------------------
# 3. protocol specifications under generated schedules/faults
# ---------------------------------------------------------------------------

_PROTOCOLS = {
    "safe": (SafeStorageProtocol, check_safety),
    "regular": (RegularStorageProtocol, check_regularity),
    "cached": (CachedRegularStorageProtocol, check_regularity),
}


@given(
    protocol_name=st.sampled_from(sorted(_PROTOCOLS)),
    t=st.integers(1, 2),
    schedule_seed=st.integers(0, 10**6),
    fault_seed=st.integers(0, 10**6),
    workload_seed=st.integers(0, 10**6),
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_protocols_meet_their_specification(protocol_name, t, schedule_seed,
                                            fault_seed, workload_seed):
    protocol_cls, checker = _PROTOCOLS[protocol_name]
    b = 1 if t == 1 else 2
    config = SystemConfig.optimal(t=t, b=b, num_readers=2)
    system = StorageSystem(protocol_cls(), config,
                           scheduler=RandomScheduler(schedule_seed),
                           trace_enabled=False)
    random_plan(config, fault_seed).apply(system)
    run_concurrent(system, WorkloadSpec(num_writes=4, reads_per_reader=3,
                                        seed=workload_seed))
    checker(system.history).assert_ok()
    check_wait_freedom(system.history).assert_ok()


@given(schedule_seed=st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_safe_rounds_never_exceed_two(schedule_seed):
    config = SystemConfig.optimal(t=1, b=1, num_readers=1)
    system = StorageSystem(SafeStorageProtocol(), config,
                           scheduler=RandomScheduler(schedule_seed),
                           trace_enabled=False)
    system.write("a")
    handle = system.read_handle(0)
    assert handle.rounds_used <= 2
    write = system.write("b")
    assert write.rounds_used <= 2


# ---------------------------------------------------------------------------
# 4. conflict-free quorum search vs brute force
# ---------------------------------------------------------------------------


def _brute_force(responders, pairs, quorum):
    bad = {frozenset(p) if p[0] != p[1] else p[0] for p in pairs}
    loops = {p[0] for p in pairs if p[0] == p[1]}
    candidates = [v for v in responders if v not in loops]
    for size in range(quorum, len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            chosen = set(subset)
            if any(frozenset((a, b)) in bad
                   for a in chosen for b in chosen if a < b):
                continue
            return True
    return False


@given(
    n=st.integers(3, 7),
    quorum=st.integers(2, 5),
    edges=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                   max_size=8),
)
@settings(max_examples=120, deadline=None)
def test_quorum_search_matches_brute_force(n, quorum, edges):
    responders = set(range(n))
    pairs = {(a, b) for a, b in edges if a < n and b < n}
    fast = exists_conflict_free_quorum(responders, pairs, quorum)
    slow = _brute_force(responders, pairs, quorum)
    assert fast == slow
