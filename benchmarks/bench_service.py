#!/usr/bin/env python3
"""Service-tier throughput: per-key stores vs the multiplexed store.

The workload writes then reads every key once, end to end (store
construction, operation rounds, teardown), at 64-1024 keys:

* **per-key baseline** -- one one-register
  :class:`~repro.service.MultiRegisterStore` per key, the
  pre-service-tier deployment of ``examples/replicated_kv_store.py``:
  every key builds its own object hosts, mailboxes and client hosts
  (4 replicas => 4 object hosts + 6 mailboxes per key);
* **multiplexed** -- one :class:`~repro.service.MultiRegisterStore`:
  the same 4 replica tasks serve *all* keys, with batched rounds
  coalescing same-step messages per object into single envelopes;
* **multi-writer (contended)** -- the same multiplexed store in MWMR
  mode: ``W`` writer hosts race on *every* key (tag-discovery round,
  ``(epoch, writer_id)`` arbitration), measuring what write contention
  costs on top of the multiplexing win.

A fourth mode exercises **reconfiguration**: a live reshard from 2 to 3
shard groups of a :class:`~repro.service.ShardedKVStore` while a load
loop keeps putting/getting every key -- moved keys must hand off without
losing a read, unmoved keys must keep serving, and mid-handoff writes
may only fail *fast* (epoch-fenced), never silently vanish.

A fifth mode exercises **cross-shard snapshot reads** through the client
API (:mod:`repro.api`): writer sessions keep mutating a keyspace
spanning both shard groups while a reader session takes repeated
``session.snapshot()`` cuts; every certified cut must pass
:func:`~repro.spec.checkers.check_snapshot_consistency` against the
recorded history (and the whole run per-register tag regularity).

A sixth mode measures **multi-process scaling**: the same sharded
workload served by supervised replica child processes (WAL + snapshot
durability, binary TCP wire) at 1/2/4 processes vs the in-process
figure.  On hosts with >= 4 CPUs the widest point must reach 2x the
in-process throughput; on smaller hosts the ratio is recorded and the
mode gates on correctness (zero restarts, every read correct).  A
vector-ack tripwire also checks batched rounds move strictly fewer
envelopes than per-key operation fan-out.

A seventh mode is **read-heavy fast reads**: a 10:1 read:write workload
on the atomic protocol, run classic-first then re-run with the tag-lease
fast path enabled on the *same started store*.  Uncontended, the fast
phase must beat classic ops/s and move strictly fewer messages;
contended (racing writers), the adaptive backoff must keep it within
10% of classic -- with zero atomicity or fast-read freshness violations
either way.

All run the same protocol automata (Section 5.1 cached regular storage)
on the same in-memory asyncio network.  Results go to a JSON file
(default ``BENCH_service.json``) and the run fails if multiplexing is
not at least 3x faster than per-key at 256 keys, or if the reshard
breaks any of the invariants above.

Run:  python benchmarks/bench_service.py [--full] [--smoke] [--output PATH]
(``--smoke`` is the CI configuration: 64 keys, fewer repeats, a relaxed
2x gate -- fast enough for every push, still a real regression tripwire;
it includes the reshard-under-load case.)
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List

from repro import SystemConfig
from repro.api import Cluster, RetryPolicy
from repro.core.atomic import AtomicStorageProtocol
from repro.core.regular import CachedRegularStorageProtocol
from repro.errors import (BusyRegisterError, FencedWriteError,
                          SnapshotContentionError)
from repro.service import (MultiRegisterStore, ReconfigCoordinator,
                           ShardedKVStore)
from repro.spec.checkers import (check_fast_read_freshness,
                                 check_mwmr_atomicity,
                                 check_mwmr_regularity,
                                 check_per_register,
                                 check_snapshot_consistency)

CONFIG = SystemConfig.optimal(t=1, b=1, num_readers=1)
MWMR_WRITERS = 4
MWMR_CONFIG = SystemConfig.optimal(t=1, b=1, num_readers=1,
                                   num_writers=MWMR_WRITERS)
MULTIPROC_CONFIG = CONFIG.with_deployment("multiproc")


async def run_per_key_baseline(num_keys: int) -> Dict[str, Any]:
    """One store (replica set + hosts) per key, each serving one register."""
    started = time.perf_counter()
    stores: Dict[str, MultiRegisterStore] = {}
    for n in range(num_keys):
        store = MultiRegisterStore(CachedRegularStorageProtocol(), CONFIG,
                                   seed=n)
        await store.start()
        stores[f"key:{n}"] = store
    await asyncio.gather(*(store.write(key, f"value-{key}")
                           for key, store in stores.items()))
    reads = await asyncio.gather(*(store.read(key)
                                   for key, store in stores.items()))
    for store in stores.values():
        await store.stop()
    elapsed = time.perf_counter() - started
    assert all(value == f"value-key:{n}"
               for n, value in enumerate(reads)), "baseline read mismatch"
    return {
        "elapsed_s": elapsed,
        "replica_tasks": CONFIG.num_objects * num_keys,
        "messages_sent": sum(store.network.messages_sent
                             for store in stores.values()),
    }


async def run_multiplexed(num_keys: int) -> Dict[str, Any]:
    """One MultiRegisterStore serving every key over one replica set.

    Batched mode: ``write_many``/``read_many`` drive the whole keyspace
    through the vector round engine -- one frame per (replica, step).
    """
    started = time.perf_counter()
    keys = [f"key:{n}" for n in range(num_keys)]
    async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                  CONFIG) as store:
        await store.write_many({key: f"value-{key}" for key in keys})
        reads = await store.read_many(keys)
        messages = store.network.messages_sent
    elapsed = time.perf_counter() - started
    assert all(reads[key] == f"value-{key}"
               for key in keys), "multiplexed read mismatch"
    return {
        "elapsed_s": elapsed,
        "replica_tasks": CONFIG.num_objects,
        "messages_sent": messages,
    }


async def run_multiplexed_unbatched(num_keys: int) -> Dict[str, Any]:
    """The same multiplexed store driven one operation per key.

    Isolates what batching the calls buys: identical store, identical
    protocol, but per-key ``write``/``read`` calls fanned out with
    ``asyncio.gather`` -- every call launches its own first round.  Each
    call is a one-member vector round, so later rounds whose acks land
    in one burst still share frames: the delta versus
    :func:`run_multiplexed` is the batching contract, not envelope
    counts alone.
    """
    started = time.perf_counter()
    keys = [f"key:{n}" for n in range(num_keys)]
    async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                  CONFIG) as store:
        await asyncio.gather(*(store.write(key, f"value-{key}")
                               for key in keys))
        reads = dict(zip(keys, await asyncio.gather(
            *(store.read(key) for key in keys))))
        messages = store.network.messages_sent
    elapsed = time.perf_counter() - started
    assert all(reads[key] == f"value-{key}"
               for key in keys), "unbatched read mismatch"
    return {
        "elapsed_s": elapsed,
        "replica_tasks": CONFIG.num_objects,
        "messages_sent": messages,
    }


async def run_multi_writer(num_keys: int) -> Dict[str, Any]:
    """MWMR contention: every writer host writes *every* key, racing."""
    started = time.perf_counter()
    keys = [f"key:{n}" for n in range(num_keys)]
    async with MultiRegisterStore(CachedRegularStorageProtocol(),
                                  MWMR_CONFIG) as store:
        await asyncio.gather(*(
            store.write_many({key: f"w{w}-{key}" for key in keys},
                             writer_index=w)
            for w in range(MWMR_WRITERS)
        ))
        reads = await store.read_many(keys)
        messages = store.network.messages_sent
    elapsed = time.perf_counter() - started
    prefixes = tuple(f"w{w}-" for w in range(MWMR_WRITERS))
    assert all(str(reads[key]).startswith(prefixes) for key in keys), \
        "multi-writer read returned a value no writer wrote"
    return {
        "elapsed_s": elapsed,
        "replica_tasks": MWMR_CONFIG.num_objects,
        "messages_sent": messages,
        "writers": MWMR_WRITERS,
    }


async def run_reshard_under_load(num_keys: int) -> Dict[str, Any]:
    """Live reshard 2 -> 3 shard groups while puts/gets keep flowing.

    The load loop hammers the keyspace for the whole duration of the
    handoff; puts that hit a key mid-migration fail fast with
    :class:`~repro.errors.FencedWriteError` (counted, expected), while
    every operation on unmoved keys must succeed.  Afterwards every key
    must read either its pre-reshard value or a load-written one.
    """
    started = time.perf_counter()
    keys = [f"key:{n}" for n in range(num_keys)]
    kv = ShardedKVStore(CachedRegularStorageProtocol, CONFIG,
                        num_shards=2, seed=42)
    async with kv:
        await kv.put_many({key: f"v-{key}" for key in keys})
        done = asyncio.Event()
        stats = {"puts": 0, "gets": 0, "fenced": 0, "busy": 0}

        async def load() -> None:
            i = 0
            while not done.is_set():
                key = keys[i % num_keys]
                try:
                    await kv.put(key, f"load-{i}-{key}")
                    stats["puts"] += 1
                except FencedWriteError:
                    stats["fenced"] += 1  # key mid-handoff: expected
                try:
                    value = await kv.get(keys[(i * 13) % num_keys])
                    assert value is not None, "read lost during reshard"
                    stats["gets"] += 1
                except BusyRegisterError:
                    stats["busy"] += 1  # lost the admission race to the
                    i += 1              # coordinator's snapshot; retry
                    continue
                i += 1

        loader = asyncio.create_task(load())
        report = await ReconfigCoordinator(kv).add_shard()
        done.set()
        await loader
        moved = len(report.moved)
        for key in keys:
            value = await kv.get(key)
            assert value is not None and (
                value == f"v-{key}" or value.startswith("load-")), \
                f"{key} read {value!r} after reshard"
    elapsed = time.perf_counter() - started
    return {
        "elapsed_s": elapsed,
        "num_keys": num_keys,
        "moved_keys": moved,
        "concurrent_puts": stats["puts"],
        "concurrent_gets": stats["gets"],
        "fenced_writes": stats["fenced"],
        "busy_retries": stats["busy"],
        "ok": moved > 0 and stats["puts"] > 0 and stats["gets"] > 0,
    }


async def run_snapshot_reads(num_keys: int) -> Dict[str, Any]:
    """Mixed writers vs. repeated cross-shard snapshot reads.

    Two writer sessions keep mutating a keyspace spanning both shard
    groups while a reader session takes consistent snapshots of all of
    it through the client API.  Snapshots that cannot certify a cut
    within their round budget count as *contended* (expected under
    write pressure); every snapshot that does certify must pass
    :func:`check_snapshot_consistency` against the recorded history --
    along with per-register tag regularity for the whole run.
    """
    started = time.perf_counter()
    keys = [f"key:{n}" for n in range(num_keys)]
    cluster = Cluster(CachedRegularStorageProtocol, MWMR_CONFIG,
                      num_shards=2, seed=7, record_history=True)
    stats = {"writes": 0, "snapshots": 0, "contended": 0}
    async with cluster:
        shards_spanned = len({cluster.kv.shard_for(k) for k in keys})
        writers = [cluster.session(retry=RetryPolicy(attempts=10))
                   for _ in range(2)]
        snapper = cluster.session()
        await writers[0].put_many({key: "init" for key in keys})
        done = asyncio.Event()

        async def write_load(session, w):
            i = 0
            while not done.is_set():
                await session.put(keys[(i * 2 + w) % num_keys],
                                  f"w{w}-{i}")
                stats["writes"] += 1
                i += 1
                # Paced: back-to-back writes on every key would deny
                # snapshots any quiet window to certify a cut in.
                await asyncio.sleep(0.002)

        load = [asyncio.create_task(write_load(s, w))
                for w, s in enumerate(writers)]
        for _ in range(10):
            try:
                snap = await snapper.snapshot(keys, max_rounds=16)
                assert len(snap) == num_keys
                stats["snapshots"] += 1
            except SnapshotContentionError:
                stats["contended"] += 1
        done.set()
        await asyncio.gather(*load)
        # Disjoint reports: per-register write/read semantics vs the
        # snapshot cuts (admin().check() would merge the two).
        registers = check_per_register(cluster.history,
                                       check_mwmr_regularity)
        cuts = check_snapshot_consistency(cluster.history)
        recorded = len(cluster.history.snapshots())
    elapsed = time.perf_counter() - started
    return {
        "elapsed_s": elapsed,
        "num_keys": num_keys,
        "shards_spanned": shards_spanned,
        "writers": 2,
        "concurrent_writes": stats["writes"],
        "snapshots_certified": stats["snapshots"],
        "snapshots_contended": stats["contended"],
        "cut_violations": len(cuts.violations),
        "register_violations": len(registers.violations),
        "ok": (stats["snapshots"] > 0 and stats["writes"] > 0
               and shards_spanned >= 2
               and recorded == stats["snapshots"]
               and registers.ok and cuts.ok),
    }


def bench_snapshots(num_keys: int) -> Dict[str, Any]:
    row = asyncio.run(run_snapshot_reads(num_keys))
    print(f"  snapshot reads under write load | {num_keys} keys over "
          f"{row['shards_spanned']} shards | "
          f"{row['snapshots_certified']} certified + "
          f"{row['snapshots_contended']} contended | "
          f"{row['concurrent_writes']} concurrent writes | "
          f"{row['cut_violations']} cut violations | "
          f"{row['elapsed_s']:.3f}s | "
          f"{'OK' if row['ok'] else 'FAIL'}")
    return row


#: Read-heavy workload shape: reads per write, per round.
READ_HEAVY_RATIO = 10


async def _read_heavy_phase(store: MultiRegisterStore, keys: List[str],
                            rounds: int, writers: int) -> Dict[str, Any]:
    """One timed 10:1 read:write phase against an already-started store.

    Each round issues one write per writer plus ``READ_HEAVY_RATIO``
    reads per write, all concurrently (reads race the writes, as a real
    read-mostly service would).  A warm-up read sweep outside the timer
    arms reader-side caches -- and, when the fast path is enabled,
    leases -- so classic and fast phases start from symmetric state.
    """
    await asyncio.gather(*(store.read(key) for key in keys))
    n = len(keys)
    mark = store.network.messages_sent
    reads = writes = 0
    started = time.perf_counter()
    for r in range(rounds):
        write_coros = [store.write(keys[(r + w) % n], f"w{w}-r{r}",
                                   writer_index=w)
                       for w in range(writers)]
        total_reads = READ_HEAVY_RATIO * writers
        read_coros = [store.read(keys[(r * total_reads + j) % n])
                      for j in range(total_reads)]
        await asyncio.gather(*write_coros, *read_coros)
        writes += writers
        reads += total_reads
    elapsed = time.perf_counter() - started
    ops = reads + writes
    return {
        "elapsed_s": elapsed,
        "ops": ops,
        "ops_per_s": ops / elapsed,
        "reads": reads,
        "writes": writes,
        "messages_sent": store.network.messages_sent - mark,
    }


async def run_read_heavy(num_keys: int, rounds: int,
                         writers: int) -> Dict[str, Any]:
    """Classic vs fast reads on the *same started store*.

    The atomic protocol makes the comparison sharpest (classic READ is
    up to 3 rounds incl. write-back; a fast read is 1 probe round) and
    lets the run gate on :func:`check_mwmr_atomicity` outright.  The
    classic phase runs first with the fast path disabled, then
    ``enable_fast_reads()`` flips the same store and the identical
    workload re-runs -- same replica tasks, same network, same history.
    """
    config = (MWMR_CONFIG if writers > 1 else CONFIG)
    keys = [f"key:{n}" for n in range(num_keys)]
    async with MultiRegisterStore(AtomicStorageProtocol(), config,
                                  record_history=True, seed=5) as store:
        await store.write_many({key: f"init-{key}" for key in keys})
        classic = await _read_heavy_phase(store, keys, rounds, writers)
        store.enable_fast_reads()
        fast = await _read_heavy_phase(store, keys, rounds, writers)
        stats = store.stats()
        atomicity = check_per_register(store.history,
                                       check_mwmr_atomicity)
        freshness = check_fast_read_freshness(store.history)
    return {
        "num_keys": num_keys,
        "rounds": rounds,
        "writers": writers,
        "read_write_ratio": READ_HEAVY_RATIO,
        "classic": classic,
        "fast": fast,
        "fast_speedup": fast["ops_per_s"] / classic["ops_per_s"],
        "fast_reads_taken": stats["fast_reads_taken"],
        "fast_read_fallbacks": stats["fast_read_fallbacks"],
        "lease_invalidations": stats["lease_invalidations"],
        "atomicity_violations": len(atomicity.violations),
        "freshness_violations": len(freshness.violations),
        "fast_reads_checked": freshness.checked_reads,
    }


def bench_read_heavy(num_keys: int, rounds: int,
                     uncontended_gate: float) -> Dict[str, Any]:
    """The fast-read headline numbers plus their tripwires.

    * uncontended (single writer): fast phase must reach
      ``uncontended_gate``x the classic ops/s *and* move strictly fewer
      messages for the same operation count;
    * contended (``MWMR_WRITERS`` racing writers): the adaptive backoff
      must keep the fast phase within 10% of classic throughput;
    * both: zero atomicity violations, zero fast-read freshness
      violations, and the fast path must actually have fired.
    """
    gc.collect()
    solo = asyncio.run(run_read_heavy(num_keys, rounds, writers=1))
    gc.collect()
    contended = asyncio.run(run_read_heavy(num_keys, rounds,
                                           writers=MWMR_WRITERS))
    messages_ok = (solo["fast"]["messages_sent"]
                   < solo["classic"]["messages_sent"])
    checkers_ok = all(
        row["atomicity_violations"] == 0
        and row["freshness_violations"] == 0
        and row["fast_reads_checked"] > 0
        for row in (solo, contended))
    ok = (solo["fast_speedup"] >= uncontended_gate
          and contended["fast_speedup"] >= 0.9
          and messages_ok and checkers_ok)
    print(f"  read-heavy {READ_HEAVY_RATIO}:1 | {num_keys} keys x "
          f"{rounds} rounds | classic "
          f"{solo['classic']['ops_per_s']:8.0f} op/s | fast "
          f"{solo['fast']['ops_per_s']:8.0f} op/s | "
          f"{solo['fast_speedup']:.2f}x | msgs "
          f"{solo['fast']['messages_sent']}/"
          f"{solo['classic']['messages_sent']}")
    print(f"    contended x{MWMR_WRITERS} | classic "
          f"{contended['classic']['ops_per_s']:8.0f} op/s | fast "
          f"{contended['fast']['ops_per_s']:8.0f} op/s | "
          f"{contended['fast_speedup']:.2f}x | "
          f"{contended['fast_read_fallbacks']} fallbacks | "
          f"{'OK' if ok else 'FAIL'}")
    return {
        "uncontended": solo,
        "contended": contended,
        "uncontended_gate": uncontended_gate,
        "contended_gate": 0.9,
        "fast_fewer_messages": messages_ok,
        "checkers_clean": checkers_ok,
        "ok": ok,
    }


async def run_serving_rounds(kv: ShardedKVStore, keys: List[str],
                             rounds: int) -> Dict[str, Any]:
    """Timed put/get rounds over a started store (start cost excluded:
    the scaling claim is about serving throughput, not spawn latency)."""
    started = time.perf_counter()
    correct = True
    for r in range(rounds):
        await kv.put_many({key: f"r{r}-{key}" for key in keys})
        reads = await kv.get_many(keys)
        correct = correct and all(reads[key] == f"r{r}-{key}"
                                  for key in keys)
    elapsed = time.perf_counter() - started
    ops = rounds * 2 * len(keys)
    return {
        "elapsed_s": elapsed,
        "ops": ops,
        "ops_per_s": ops / elapsed,
        "rounds": rounds,
        "correct": correct,
    }


async def run_multiproc_point(num_keys: int, num_procs: int,
                              data_dir: str, rounds: int
                              ) -> Dict[str, Any]:
    """One multiproc data point: ``num_procs`` shard groups, each a
    supervised child process serving its replica set over TCP."""
    keys = [f"key:{n}" for n in range(num_keys)]
    kv = ShardedKVStore(CachedRegularStorageProtocol, MULTIPROC_CONFIG,
                        num_shards=num_procs, seed=11,
                        data_dir=data_dir, granularity="group")
    spawn_started = time.perf_counter()
    await kv.start()
    spawn_s = time.perf_counter() - spawn_started
    try:
        row = await run_serving_rounds(kv, keys, rounds)
        restarts = sum(sum(shard.supervisor.restarts.values())
                       for shard in kv.shards.values())
    finally:
        await kv.stop()
    row.update({
        "processes": num_procs,
        "spawn_s": round(spawn_s, 4),
        "restarts": restarts,
        "ok": row.pop("correct") and restarts == 0,
    })
    return row


async def run_inproc_reference(num_keys: int, num_shards: int,
                               rounds: int) -> Dict[str, Any]:
    """The same sharded workload in one interpreter -- the GIL-bound
    figure the 4-process point is compared against."""
    keys = [f"key:{n}" for n in range(num_keys)]
    async with ShardedKVStore(CachedRegularStorageProtocol, CONFIG,
                              num_shards=num_shards, seed=11) as kv:
        row = await run_serving_rounds(kv, keys, rounds)
    row["ok"] = row.pop("correct")
    return row


def bench_multiproc(num_keys: int, procs_list: List[int],
                    rounds: int) -> Dict[str, Any]:
    """Multi-process serving: ops/s at 1/2/4 supervised replica
    processes beside the in-process figure on the same shard topology.

    Multiproc is the durability/isolation mode, not a scaling mode: the
    ratio is recorded, the gate is correctness (zero restarts, every
    read correct).  ``benchmarks/perf`` (``mixed_multiproc`` over
    ``mixed_inproc``) is where the per-op tax is measured and split by
    layer.
    """
    cpu_count = os.cpu_count() or 1
    gc.collect()
    inproc = asyncio.run(run_inproc_reference(
        num_keys, max(procs_list), rounds))
    print(f"  multiproc serving | {num_keys} keys x {rounds} rounds | "
          f"inproc ({max(procs_list)} shards) "
          f"{inproc['ops_per_s']:8.0f} op/s")
    points = []
    for procs in procs_list:
        gc.collect()
        data_dir = tempfile.mkdtemp(prefix="repro-bench-multiproc-")
        try:
            point = asyncio.run(run_multiproc_point(
                num_keys, procs, data_dir, rounds))
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
        points.append(point)
        print(f"    {procs} process(es) | {point['ops_per_s']:8.0f} op/s "
              f"| spawn {point['spawn_s']:.2f}s | "
              f"{point['restarts']} restarts | "
              f"{'OK' if point['ok'] else 'FAIL'}")
    widest = points[-1]
    ratio = widest["ops_per_s"] / inproc["ops_per_s"]
    ok = inproc["ok"] and all(p["ok"] for p in points)
    print(f"    {widest['processes']}-process vs inproc: {ratio:.2f}x "
          f"({cpu_count} CPU(s); recorded, not gated) | "
          f"{'OK' if ok else 'FAIL'}")
    return {
        "num_keys": num_keys,
        "rounds": rounds,
        "cpu_count": cpu_count,
        "inproc_reference": inproc,
        "points": points,
        "scaling_ratio": round(ratio, 3),
        "gate": "every read correct, zero supervisor restarts",
        "ok": ok,
    }


def bench_reshard(num_keys: int) -> Dict[str, Any]:
    row = asyncio.run(run_reshard_under_load(num_keys))
    print(f"  reshard 2->3 under load | {num_keys} keys | "
          f"{row['moved_keys']} moved | "
          f"{row['concurrent_puts']} puts + {row['concurrent_gets']} gets "
          f"concurrent | {row['fenced_writes']} fenced | "
          f"{row['elapsed_s']:.3f}s | "
          f"{'OK' if row['ok'] else 'FAIL'}")
    return row


def _measure(runner, num_keys: int, repeats: int) -> Dict[str, Any]:
    """Best-of-N full-lifecycle time (scheduler/GC noise dominates
    one-shot numbers; the minimum is the standard least-noise estimator
    -- cf. ``timeit`` -- and is applied symmetrically to every mode).

    Timed around ``asyncio.run`` so the event loop's own teardown is
    included -- cancelling a per-key baseline's thousands of replica
    tasks is real work the multiplexed store never schedules.
    """
    samples = []
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        row = asyncio.run(runner(num_keys))
        row["elapsed_s"] = time.perf_counter() - started
        samples.append(row)
    samples.sort(key=lambda row: row["elapsed_s"])
    best = samples[0]
    best["median_s"] = round(statistics.median(
        row["elapsed_s"] for row in samples), 4)
    best["samples_s"] = [round(row["elapsed_s"], 4) for row in samples]
    return best


def bench(num_keys: int, repeats: int = 7) -> Dict[str, Any]:
    baseline = _measure(run_per_key_baseline, num_keys, repeats)
    multiplexed = _measure(run_multiplexed, num_keys, repeats)
    unbatched = _measure(run_multiplexed_unbatched, num_keys, repeats)
    multi_writer = _measure(run_multi_writer, num_keys, repeats)
    operations = 2 * num_keys  # one write + one read per key
    for row in (baseline, multiplexed, unbatched):
        row["ops"] = operations
        row["ops_per_s"] = operations / row["elapsed_s"]
    # The contended mode performs W writes + 1 read per key.
    multi_writer["ops"] = (MWMR_WRITERS + 1) * num_keys
    multi_writer["ops_per_s"] = multi_writer["ops"] / \
        multi_writer["elapsed_s"]
    speedup = baseline["elapsed_s"] / multiplexed["elapsed_s"]
    batching_gain = unbatched["elapsed_s"] / multiplexed["elapsed_s"]
    print(f"  {num_keys:>5} keys | per-key {baseline['elapsed_s']:7.3f}s "
          f"({baseline['ops_per_s']:8.0f} op/s, "
          f"{baseline['replica_tasks']:>5} replica tasks) | "
          f"multiplexed {multiplexed['elapsed_s']:7.3f}s "
          f"({multiplexed['ops_per_s']:8.0f} op/s, "
          f"{multiplexed['replica_tasks']} tasks) | {speedup:5.1f}x | "
          f"unbatched {unbatched['elapsed_s']:7.3f}s "
          f"(vector gain {batching_gain:4.2f}x) | "
          f"mwmr x{MWMR_WRITERS} {multi_writer['elapsed_s']:7.3f}s "
          f"({multi_writer['ops_per_s']:8.0f} op/s)")
    return {
        "num_keys": num_keys,
        "per_key_baseline": baseline,
        "multiplexed": multiplexed,
        "multiplexed_unbatched": unbatched,
        "multi_writer": multi_writer,
        "speedup": speedup,
        "vector_batching_gain": batching_gain,
    }


#: PR-4's recorded multiplexed throughput at 256 keys (ops/s), the
#: baseline the vector round engine is gated against (>= 1.5x).
PR4_MULTIPLEXED_OPS_256 = 13625.7


async def run_smoke_suite(num_keys: int) -> Dict[str, Dict[str, Any]]:
    """All throughput modes in one event loop (the CI configuration).

    One started multiplexed store is reused across the batched and
    unbatched modes (distinct key ranges) instead of rebuilding the
    cluster per mode, so the added batched mode does not inflate CI
    time; per-mode timing starts after the shared setup.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    rows["per_key_baseline"] = await run_per_key_baseline(num_keys)
    store = MultiRegisterStore(CachedRegularStorageProtocol(), CONFIG)
    await store.start()
    try:
        batch_keys = [f"key:b:{n}" for n in range(num_keys)]
        mark = store.network.messages_sent
        started = time.perf_counter()
        await store.write_many({key: f"value-{key}"
                                for key in batch_keys})
        reads = await store.read_many(batch_keys)
        rows["multiplexed"] = {
            "elapsed_s": time.perf_counter() - started,
            "replica_tasks": CONFIG.num_objects,
            # per-mode delta: the store is shared across modes
            "messages_sent": store.network.messages_sent - mark,
        }
        assert all(reads[key] == f"value-{key}" for key in batch_keys)
        solo_keys = [f"key:u:{n}" for n in range(num_keys)]
        mark = store.network.messages_sent
        started = time.perf_counter()
        await asyncio.gather(*(store.write(key, f"value-{key}")
                               for key in solo_keys))
        solo_reads = dict(zip(solo_keys, await asyncio.gather(
            *(store.read(key) for key in solo_keys))))
        rows["multiplexed_unbatched"] = {
            "elapsed_s": time.perf_counter() - started,
            "replica_tasks": CONFIG.num_objects,
            "messages_sent": store.network.messages_sent - mark,
        }
        assert all(solo_reads[key] == f"value-{key}"
                   for key in solo_keys)
    finally:
        await store.stop()
    rows["multi_writer"] = await run_multi_writer(num_keys)
    return rows


def bench_smoke(num_keys: int) -> Dict[str, Any]:
    gc.collect()
    rows = asyncio.run(run_smoke_suite(num_keys))
    baseline = rows["per_key_baseline"]
    multiplexed = rows["multiplexed"]
    unbatched = rows["multiplexed_unbatched"]
    multi_writer = rows["multi_writer"]
    operations = 2 * num_keys
    for row in (baseline, multiplexed, unbatched):
        row["ops"] = operations
        row["ops_per_s"] = operations / row["elapsed_s"]
    multi_writer["ops"] = (MWMR_WRITERS + 1) * num_keys
    multi_writer["ops_per_s"] = multi_writer["ops"] / \
        multi_writer["elapsed_s"]
    speedup = baseline["elapsed_s"] / multiplexed["elapsed_s"]
    batching_gain = unbatched["elapsed_s"] / multiplexed["elapsed_s"]
    print(f"  {num_keys:>5} keys [smoke, shared store] | per-key "
          f"{baseline['elapsed_s']:7.3f}s | multiplexed "
          f"{multiplexed['elapsed_s']:7.3f}s "
          f"({multiplexed['ops_per_s']:8.0f} op/s) | {speedup:5.1f}x | "
          f"vector gain {batching_gain:4.2f}x | mwmr "
          f"{multi_writer['elapsed_s']:7.3f}s")
    return {
        "num_keys": num_keys,
        "per_key_baseline": baseline,
        "multiplexed": multiplexed,
        "multiplexed_unbatched": unbatched,
        "multi_writer": multi_writer,
        "speedup": speedup,
        "vector_batching_gain": batching_gain,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="also run the 1024-key point")
    parser.add_argument("--smoke", action="store_true",
                        help="CI configuration: 64 keys, one shared "
                             "store across modes, 2x gate")
    parser.add_argument("--output", default="BENCH_service.json",
                        help="where to write the JSON results")
    args = parser.parse_args(argv)

    if args.smoke:
        sizes = [64]
        gate_keys, gate = 64, 2.0
    else:
        sizes = [64, 256, 1024] if args.full else [64, 256]
        gate_keys, gate = 256, 3.0
    print(f"service-tier benchmark: {CONFIG.describe()}"
          f"{' [smoke]' if args.smoke else ''}")
    if args.smoke:
        results = [bench_smoke(size) for size in sizes]
    else:
        results = [bench(size, repeats=7) for size in sizes]
    # Reshard-under-load and snapshot-reads-under-load run in every mode
    # (smoke included): the CI tripwires for reconfiguration and
    # cross-shard snapshot-consistency regressions.
    reshard = bench_reshard(gate_keys)
    snapshots = bench_snapshots(min(gate_keys, 16))
    # Read-heavy mode: the contention-adaptive fast-read gate.  Smoke
    # runs fewer rounds on the smaller keyspace with a relaxed speedup
    # floor (same spirit as the 3x -> 2x multiplexing gate).
    if args.smoke:
        read_heavy = bench_read_heavy(64, rounds=30,
                                      uncontended_gate=1.15)
        multiproc = bench_multiproc(32, [1, 2], rounds=2)
    else:
        read_heavy = bench_read_heavy(256, rounds=100,
                                      uncontended_gate=1.3)
        multiproc = bench_multiproc(64, [1, 2, 4], rounds=3)

    gated = next(r for r in results if r["num_keys"] == gate_keys)
    # Vector-ack tripwire: batched rounds must move strictly fewer
    # envelopes than the same keyspace driven one operation per key.
    ack = {
        "multiplexed_messages": gated["multiplexed"]["messages_sent"],
        "unbatched_messages":
            gated["multiplexed_unbatched"]["messages_sent"],
    }
    ack["ok"] = ack["multiplexed_messages"] < ack["unbatched_messages"]
    vs_pr4 = (gated["multiplexed"]["ops_per_s"] / PR4_MULTIPLEXED_OPS_256
              if gate_keys == 256 else None)
    verdict = {
        "config": CONFIG.describe(),
        "mwmr_config": MWMR_CONFIG.describe(),
        "protocol": "gv-regular-cached",
        "workload": "write each key once, then read each key once; "
                    "multiplexed_unbatched: same store, one operation "
                    "per key (no vector rounds); "
                    f"multi_writer: {MWMR_WRITERS} writers race on every "
                    "key, then read each key once",
        "smoke": args.smoke,
        "results": results,
        "reshard_under_load": reshard,
        "snapshot_reads_under_load": snapshots,
        "read_heavy_fast_reads": read_heavy,
        "multiproc_scaling": multiproc,
        "vector_ack_messages": ack,
        "claim": f"multiplexed >= {gate}x per-key baseline at "
                 f"{gate_keys} keys; multiplexed at 256 keys >= 1.5x "
                 f"the PR-4 recording ({PR4_MULTIPLEXED_OPS_256:.0f} "
                 "op/s); reshard 2->3 completes under load with no lost "
                 "reads; cross-shard snapshots certify consistent cuts "
                 "under mixed writers; batched rounds send fewer "
                 "envelopes than unbatched; multiproc serving stays "
                 "correct with zero restarts; "
                 f"read-heavy {READ_HEAVY_RATIO}:1 fast reads beat "
                 "classic uncontended with strictly fewer messages, "
                 "stay within 10% of classic contended, and pass the "
                 "atomicity + fast-read freshness checkers",
        f"speedup_at_{gate_keys}": gated["speedup"],
        "pr4_multiplexed_ops_per_s_256": PR4_MULTIPLEXED_OPS_256,
        "speedup_vs_pr4": (round(vs_pr4, 2)
                           if vs_pr4 is not None else None),
        "ok": (gated["speedup"] >= gate and reshard["ok"]
               and snapshots["ok"] and multiproc["ok"] and ack["ok"] and read_heavy["ok"]
               and (vs_pr4 is None or vs_pr4 >= 1.5)),
    }
    with open(args.output, "w") as fh:
        json.dump(verdict, fh, indent=2)
    print(f"wrote {args.output}; speedup at {gate_keys} keys: "
          f"{gated['speedup']:.1f}x"
          + (f"; vs PR-4: {vs_pr4:.2f}x" if vs_pr4 is not None else "")
          + f"; reshard "
          f"{'OK' if reshard['ok'] else 'FAIL'}; snapshots "
          f"{'OK' if snapshots['ok'] else 'FAIL'}; fast reads "
          f"{read_heavy['uncontended']['fast_speedup']:.2f}x "
          f"{'OK' if read_heavy['ok'] else 'FAIL'}; multiproc "
          f"{multiproc['scaling_ratio']:.2f}x "
          f"{'OK' if multiproc['ok'] else 'FAIL'}; vector-ack "
          f"{'OK' if ack['ok'] else 'FAIL'} "
          f"({'OK' if verdict['ok'] else 'FAIL'})")
    return 0 if verdict["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
