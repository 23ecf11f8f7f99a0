"""One trial: fresh cluster, preload, solo phase, loaded phase -- and the
across-trial statistics.

Per-op cost in this system depends on state (a store slows as writes per
key accumulate), so a trial never reuses a cluster and never runs to a
deadline: it builds a fresh :class:`~repro.api.Cluster`, preloads every
key, and replays the run's fixed op list.  Only the *number of trials*
follows ``--seconds``.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import multiprocessing
import os
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import (Any, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.adversary.byzantine import StaleTagForger
from repro.api import Cluster, Session
from repro.config import SystemConfig
from repro.core.atomic.protocol import AtomicStorageProtocol
from repro.core.regular import CachedRegularStorageProtocol

from perf_spans import SpanRecorder
from perf_workloads import (FORGED_VALUE, GET, NUM_CLIENTS, PUT, Call, Plan,
                            WindowChecker, Workload)

PROTOCOLS = {"cached_regular": CachedRegularStorageProtocol,
             "atomic": AtomicStorageProtocol}

#: (name, unit, better, bound): the same seven on every workload.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("solo_get_p50_ms", "ms", "lower", 0.15),
    ("solo_put_p50_ms", "ms", "lower", 0.15),
    ("ops_per_s", "1/s", "higher", 0.15),
    ("cpu_ms_per_op", "ms", "lower", 0.15),
    ("msgs_per_op", "msgs/op", "lower", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.10),
]
#: the ones computed per trial (``peak_rss_mb`` is per process).
PER_TRIAL = [row for row in END_TO_END if row[0] != "peak_rss_mb"]

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def make_config(workload: Workload) -> SystemConfig:
    config = SystemConfig.optimal(t=1, b=1, num_readers=NUM_CLIENTS,
                                  num_writers=NUM_CLIENTS)
    if workload.multiproc:
        config = config.with_deployment("multiproc", wal_fsync="batch")
    return config


def _children_cpu_s() -> float:
    """utime + stime of every live child process, from /proc."""
    ticks = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited between the listing and the read
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLK_TCK


def _children_peak_rss_mb() -> float:
    peak_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak_kb = max(peak_kb, int(line.split()[1]))
        except OSError:
            continue
    return peak_kb / 1024


@dataclass
class TrialResult:
    setup_s: float = 0.0
    spawn_s: float = 0.0                       # inside Cluster.start()
    solo_ms: Dict[str, List[float]] = field(
        default_factory=lambda: {GET: [], PUT: []})
    loaded_ms: Dict[str, List[float]] = field(
        default_factory=lambda: {GET: [], PUT: []})
    solo_ops: int = 0
    loaded_ops: int = 0
    loaded_wall_s: float = 0.0
    loaded_cpu_s: float = 0.0                  # client process
    loaded_child_cpu_s: float = 0.0
    loaded_msgs: int = 0
    attempted: int = 0
    failed: int = 0
    forged_values: int = 0
    first_failure: Optional[str] = None
    store_stats: Dict[str, Any] = field(default_factory=dict)
    restarts: int = 0
    child_peak_rss_mb: float = 0.0
    history: Any = None

    def metrics(self) -> Dict[str, float]:
        ops = self.loaded_ops
        return {
            "setup_s": self.setup_s,
            # `or [0.0]`: every call of a kind failed; the run is already
            # incorrect, it should still report.
            "solo_get_p50_ms": statistics.median(self.solo_ms[GET] or [0.0]),
            "solo_put_p50_ms": statistics.median(self.solo_ms[PUT] or [0.0]),
            "ops_per_s": ops / self.loaded_wall_s,
            "cpu_ms_per_op": 1e3 * (self.loaded_cpu_s
                                    + self.loaded_child_cpu_s) / ops,
            "msgs_per_op": self.loaded_msgs / ops,
        }


async def _call(session: Session, checker: WindowChecker, call: Call,
                sink: Dict[str, List[float]]) -> None:
    """One front-door call, timed and checked; failures are counted."""
    kind, keys = call
    try:
        if kind == PUT:
            items = checker.next_values(keys)
            start = perf_counter()
            if len(keys) == 1:
                await session.put(keys[0], items[keys[0]])
            else:
                await session.put_many(items)
            elapsed = perf_counter() - start
            checker.puts_completed(keys)
        else:
            floors = checker.floors(keys)
            start = perf_counter()
            if len(keys) == 1:
                values: Sequence[Any] = (await session.get(keys[0]),)
            else:
                got = await session.get_many(keys)
                values = [got[key] for key in keys]
            elapsed = perf_counter() - start
            for key, floor, value in zip(keys, floors, values):
                checker.check_get(key, floor, value)
    except Exception as exc:  # a failed op is a result, not a crash
        checker.fail(f"{kind}({keys[0]!r}, ...) raised {exc!r}",
                     ops=len(keys))
        return
    sink[kind].append(elapsed * 1e3)


@contextlib.contextmanager
def one_cpu() -> Iterator[int]:
    """Pin this process, and so every child it spawns, to one CPU.

    Two busy processes on two vCPUs do not repeat on a shared box: the
    scheduler co-locates and separates them for ten-second stretches and
    cross-CPU wake-ups cost whatever the hypervisor makes them cost that
    minute (README, noise rule 5).  On one CPU the client and the replica
    child run strictly in turn, and what is measured is the work.  The
    previous affinity is restored on exit.
    """
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)  # CPU 0 fields the interrupts; stay off it
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, allowed)


async def run_trial(workload: Workload, plan: Plan, data_dir: str,
                    recorder: Optional[SpanRecorder] = None,
                    record_history: bool = False) -> TrialResult:
    result = TrialResult()
    checker = WindowChecker(plan.keys)
    gc.collect()
    start = perf_counter()
    cluster = Cluster(PROTOCOLS[workload.protocol], make_config(workload),
                      num_shards=workload.num_shards,
                      record_history=record_history, data_dir=data_dir,
                      granularity="group", fast_reads=workload.fast_reads)
    await cluster.start()
    result.spawn_s = perf_counter() - start
    try:
        sessions = [cluster.session() for _ in range(NUM_CLIENTS)]
        for client, session in enumerate(sessions):
            await session.put_many(
                {key: f"{key}|0" for key in plan.owned_by(client)})
        if workload.byzantine:
            key = plan.keys[0]
            honest = cluster.kv.store_for(key).object_automaton(0)
            cluster.admin().compromise_replica(
                key, 0, StaleTagForger(honest, cluster.config,
                                       forged_value=FORGED_VALUE))
        result.setup_s = perf_counter() - start

        # Solo: client 0 alone, one call in flight -- unloaded latency.
        gc.collect()
        if recorder is not None:
            recorder.active = True
        for index, call in enumerate(plan.solo):
            if recorder is not None:
                recorder.op = index
            await _call(sessions[0], checker, call, result.solo_ms)
        if recorder is not None:
            recorder.active = False
        result.solo_ops = checker.attempted

        # Loaded: both clients, each issuing its next call when the
        # previous one returns (closed loop).
        async def client_loop(client: int) -> None:
            session = sessions[client]
            for call in plan.loaded[client]:
                await _call(session, checker, call, result.loaded_ms)

        gc.collect()
        msgs = cluster.kv.stats()["messages_sent"]
        child_cpu = _children_cpu_s()
        cpu = process_time()
        wall = perf_counter()
        await asyncio.gather(*(client_loop(c) for c in range(NUM_CLIENTS)))
        result.loaded_wall_s = perf_counter() - wall
        result.loaded_cpu_s = process_time() - cpu
        result.loaded_child_cpu_s = _children_cpu_s() - child_cpu
        result.store_stats = cluster.kv.stats()
        result.loaded_msgs = result.store_stats["messages_sent"] - msgs
        result.loaded_ops = checker.attempted - result.solo_ops
        result.child_peak_rss_mb = _children_peak_rss_mb()
        result.restarts = sum(
            sum(store.supervisor.restarts.values())
            for store in cluster.kv.shards.values()
            if hasattr(store, "supervisor"))
        result.history = cluster.history
    finally:
        await cluster.stop()
        shutil.rmtree(data_dir, ignore_errors=True)  # reprolint: ok[blocking-async] -- between trials, nothing else runs on the loop
    if result.restarts:
        checker.fail(f"{result.restarts} supervisor restart(s)")
    result.attempted = checker.attempted
    result.failed = checker.failed
    result.forged_values = checker.forged_values
    result.first_failure = checker.first_failure
    return result


# -- across-trial statistics ----------------------------------------------------

def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3]; inclusive, so never outside the observed range."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(trials: Sequence[TrialResult]) -> Dict[str, Dict[str, float]]:
    """metric -> {value, median, iqr_frac} over the trials.

    ``value`` is the quartile on the *fast* side.  Interference on a
    shared box is one-sided (it only ever slows a trial down) and bursty,
    so that quartile moves far less between identical runs than the
    median does (README, noise rule 2).
    """
    per_trial = [trial.metrics() for trial in trials]
    out: Dict[str, Dict[str, float]] = {}
    for name, _, better, _ in PER_TRIAL:
        q1, median, q3 = quartiles([metrics[name] for metrics in per_trial])
        out[name] = {"value": q3 if better == "higher" else q1,
                     "median": median,
                     "iqr_frac": (q3 - q1) / median if median else 0.0}
    return out
