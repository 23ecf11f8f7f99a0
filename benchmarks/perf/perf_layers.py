"""Per-layer numbers of the traced run.

Two sources:

* **in-situ spans** (:mod:`perf_spans`) recorded in the client process
  during the solo phase of the traced trials;
* **isolation benches** for the layers that run in the replica child
  process or not at all in-process (codec, TCP, WAL, and under
  ``mixed_multiproc`` the replica automata): each replays the message
  corpus captured at ``AsyncNetwork.send`` during the traced trial, so
  it times the layer on exactly the messages the workload produces.

:data:`PER_LAYER` is the authoritative list of per-layer metrics
(``BENCHMARK.json`` repeats it; the smoke test keeps the two equal).
"""

from __future__ import annotations

import contextlib
import os
import statistics
from time import perf_counter
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from repro.automata.base import resolve_batch_handler
from repro.messages import unbatch
from repro.runtime.codec import (decode_message_binary,
                                 encode_message_binary)
from repro.runtime.tcp import TcpObjectServer, TcpStorageClient
from repro.runtime.wal import WriteAheadLog, is_durable, pack_frame
from repro.spec.checkers import (check_fast_read_freshness,
                                 check_mwmr_atomicity, check_per_register,
                                 check_regularity)
from repro.types import reader, writer

import perf_spans as sp
from perf_trial import (PER_TRIAL, PROTOCOLS, TrialResult, make_config,
                        summarize)
from perf_workloads import GET, PUT, Plan, Workload

LOWER, HIGHER = "lower", "higher"

#: (name, unit, better).  Order is the order of the printed table.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("api.self_us_per_get", "us", LOWER),
    ("api.self_us_per_put", "us", LOWER),
    ("api.get_p50_ms", "ms", LOWER),
    ("api.get_p99_ms", "ms", LOWER),
    ("api.put_p50_ms", "ms", LOWER),
    ("api.put_p99_ms", "ms", LOWER),
    ("api.failed_ops", "count", LOWER),
    ("service.sharded.self_us_per_op", "us", LOWER),
    ("service.store.self_us_per_op", "us", LOWER),
    ("service.store.fast_read_ratio", "ratio", HIGHER),
    ("service.store.fast_read_fallbacks", "count", LOWER),
    ("service.store.lease_invalidations", "count", LOWER),
    ("runtime.hosts.self_us_per_op", "us", LOWER),
    ("runtime.memnet.sends_per_get", "count", LOWER),
    ("runtime.memnet.sends_per_put", "count", LOWER),
    ("runtime.memnet.send_self_us", "us", LOWER),
    ("core.object_step_us_per_msg", "us", LOWER),
    ("core.client_step_us_per_msg", "us", LOWER),
    ("core.object_msgs_per_op", "count", LOWER),
    ("adversary.transform_us_per_msg", "us", LOWER),
    ("adversary.forged_acks", "count", LOWER),
    ("adversary.forged_values_returned", "count", LOWER),
    ("runtime.codec.encode_us_per_msg", "us", LOWER),
    ("runtime.codec.decode_us_per_msg", "us", LOWER),
    ("runtime.codec.bytes_per_msg", "bytes", LOWER),
    ("runtime.codec.bytes_per_op", "bytes", LOWER),
    ("runtime.tcp.solo_get_us", "us", LOWER),
    ("runtime.tcp.solo_put_us", "us", LOWER),
    ("runtime.wal.append_us_per_record", "us", LOWER),
    ("runtime.wal.append_always_us_per_record", "us", LOWER),
    ("runtime.wal.fsyncs_per_1k_appends", "count", LOWER),
    ("runtime.wal.bytes_per_put", "bytes", LOWER),
    ("runtime.wal.replay_us_per_record", "us", LOWER),
    ("service.procs.spawn_s", "s", LOWER),
    ("service.procs.child_cpu_ms_per_op", "ms", LOWER),
    ("service.procs.send_self_us_per_msg", "us", LOWER),
    ("service.procs.child_peak_rss_mb", "MB", LOWER),
    ("service.procs.restarts", "count", LOWER),
    ("spec.checkers.check_us_per_op", "us", LOWER),
    ("spec.checkers.violations", "count", LOWER),
    ("spec.history_overhead_frac", "ratio", LOWER),
    ("bench.trace_overhead_frac", "ratio", LOWER),
    ("bench.budget_residual_frac_get", "ratio", LOWER),
    ("bench.budget_residual_frac_put", "ratio", LOWER),
] + [
    # across-trial diagnostics of every end-to-end timing (plain trials)
    (f"bench.trial_{stat}.{name}",
     "ratio" if stat == "iqr_frac" else unit,
     LOWER if stat == "iqr_frac" else better)
    for name, unit, better, _ in PER_TRIAL if name != "msgs_per_op"
    for stat in ("median", "iqr_frac")
]

_US = 1e6


def _best_of(passes: int, function: Any) -> float:
    """Fastest of a few passes: interference only ever adds time."""
    best = float("inf")
    for _ in range(passes):
        start = perf_counter()
        function()
        best = min(best, perf_counter() - start)
    return best


# -- isolation benches -------------------------------------------------------------

def codec_bench(corpus: Sequence[Tuple[Any, Any, Any]], ops: int
                ) -> Dict[str, float]:
    payloads = [payload for _, _, payload in corpus]
    frames = [encode_message_binary(payload) for payload in payloads]
    encode_s = _best_of(3, lambda: [encode_message_binary(payload)
                                    for payload in payloads])
    decode_s = _best_of(3, lambda: [decode_message_binary(frame)
                                    for frame in frames])
    total = sum(len(frame) for frame in frames)
    return {
        "runtime.codec.encode_us_per_msg": _US * encode_s / len(frames),
        "runtime.codec.decode_us_per_msg": _US * decode_s / len(frames),
        "runtime.codec.bytes_per_msg": total / len(frames),
        "runtime.codec.bytes_per_op": total / ops,
    }


@contextlib.contextmanager
def _counting_fsyncs() -> Iterator[List[int]]:
    """Count ``os.fsync`` calls made by the WAL (it has no counter)."""
    calls = [0]
    real = os.fsync

    def counting(fd: int) -> None:
        calls[0] += 1
        real(fd)

    os.fsync = counting
    try:
        yield calls
    finally:
        os.fsync = real


def wal_bench(corpus: Sequence[Tuple[Any, Any, Any]], puts: int,
              directory: str, appends: int = 2048, always_appends: int = 48
              ) -> Dict[str, float]:
    """``WriteAheadLog`` on the records replica 0 would log."""
    records = [pack_frame(sender, part)
               for sender, receiver, payload in corpus
               if receiver.is_object and receiver.index == 0
               for part in unbatch(payload) if is_durable(part)]
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "wal.bin")

    log = WriteAheadLog(path, fsync="never")
    for record in records:
        log.append(record)
    log.close()
    bytes_per_put = os.path.getsize(path) / puts
    os.remove(path)

    cycle = [records[i % len(records)] for i in range(appends)]
    log = WriteAheadLog(path, fsync="batch")
    with _counting_fsyncs() as fsyncs:
        start = perf_counter()
        for record in cycle:
            log.append(record)
        batch_s = perf_counter() - start
        batch_fsyncs = fsyncs[0]
    start = perf_counter()
    replayed = log.replay()
    replay_s = perf_counter() - start
    log.close()
    os.remove(path)

    log = WriteAheadLog(path, fsync="always")
    start = perf_counter()
    for record in cycle[:always_appends]:
        log.append(record)
    always_s = perf_counter() - start
    log.close()
    os.remove(path)
    return {
        "runtime.wal.append_us_per_record": _US * batch_s / appends,
        "runtime.wal.append_always_us_per_record":
            _US * always_s / always_appends,
        "runtime.wal.fsyncs_per_1k_appends": 1000 * batch_fsyncs / appends,
        "runtime.wal.bytes_per_put": bytes_per_put,
        "runtime.wal.replay_us_per_record": _US * replay_s / len(replayed),
    }


async def tcp_bench(workload: Workload, plan: Plan, calls: int = 150
                    ) -> Dict[str, float]:
    """Single-key solo ops over loopback TCP: four ``TcpObjectServer`` s
    and the client in one process, no WAL, no child.

    (tcp - in-process) is codec + sockets; (multiproc - tcp) is the
    process hop, the channel queue and the WAL.
    """
    protocol = PROTOCOLS[workload.protocol]()
    config = make_config(workload)
    servers = [TcpObjectServer(automaton)
               for automaton in protocol.make_objects(config)]
    endpoints = [("127.0.0.1", await server.start()) for server in servers]
    states = protocol.client_states(config)
    if workload.fast_reads:
        states.enable_fast_reads()
    clients = {PUT: TcpStorageClient(writer(0), endpoints),
               GET: TcpStorageClient(reader(0), endpoints)}
    per_call = max(1, calls // len(plan.solo))
    ops = [(kind, key) for kind, keys in plan.solo
           for key in keys[:per_call]][:calls]
    timings: Dict[str, List[float]] = {GET: [], PUT: []}
    try:
        for client in clients.values():
            await client.connect()
        for timed in (False, True):  # first pass fills the registers
            for seq, (kind, key) in enumerate(ops):
                if kind == PUT:
                    operation = protocol.make_write_to(
                        states.writer(key, 0), f"{key}|{seq}", key)
                else:
                    operation = protocol.make_read_from(
                        states.reader(key, 0), key)
                start = perf_counter()
                await clients[kind].run(operation)
                if timed:
                    timings[kind].append(perf_counter() - start)
    finally:
        for client in clients.values():
            await client.close()
        for server in servers:
            await server.stop()
    return {"runtime.tcp.solo_get_us": _US * statistics.median(timings[GET]),
            "runtime.tcp.solo_put_us": _US * statistics.median(timings[PUT])}


def object_replay_bench(workload: Workload,
                        corpus: Sequence[Tuple[Any, Any, Any]]) -> float:
    """Replica automaton step (us per message) on the corpus's requests.

    Used where the replicas live in a child process and leave no spans.
    """
    requests = [(sender, receiver.index, unbatch(payload))
                for sender, receiver, payload in corpus
                if receiver.is_object]

    def replay() -> None:
        handlers = [resolve_batch_handler(automaton) for automaton in
                    PROTOCOLS[workload.protocol]().make_objects(
                        make_config(workload))]
        for sender, index, parts in requests:
            handlers[index](sender, parts, [])

    messages = sum(len(parts) for _, _, parts in requests)
    return _US * _best_of(3, replay) / messages


def checker_bench(workload: Workload, history: Any) -> Dict[str, float]:
    """The spec checkers over one trial's recorded history."""
    checker = (check_mwmr_atomicity if workload.protocol == "atomic"
               else check_regularity)
    start = perf_counter()
    result = check_per_register(history, checker)
    violations = len(result.violations)
    if workload.fast_reads:
        violations += len(check_fast_read_freshness(history).violations)
    elapsed = perf_counter() - start
    return {"spec.checkers.check_us_per_op": _US * elapsed / len(history),
            "spec.checkers.violations": violations}


# -- assembling the per-layer metrics ------------------------------------------

def _percentile(values: Sequence[float], percent: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(len(ordered) * percent / 100))]


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def _overhead(variant: Sequence[TrialResult],
              plain: Sequence[TrialResult]) -> float:
    """Relative slow-down of the solo phase (mean of get and put p50),
    each side taken at its fastest trial -- there are only a few."""
    def solo(trials: Sequence[TrialResult]) -> float:
        return min((statistics.median(trial.solo_ms[GET])
                    + statistics.median(trial.solo_ms[PUT])) / 2
                   for trial in trials)
    return solo(variant) / solo(plain) - 1.0


def span_metrics(plan: Plan, recorder: sp.SpanRecorder,
                 traced: TrialResult) -> Dict[str, float]:
    """Self times and exact counts from one traced trial's solo phase."""
    op_kinds = [kind for kind, _ in plan.solo]
    totals = sp.layer_totals(recorder.spans, op_kinds)
    calls = {kind: op_kinds.count(kind) for kind in (GET, PUT)}
    key_ops = sum(len(keys) for _, keys in plan.solo)

    def seconds(layer: str, *kinds: str) -> float:
        return sum(totals.get((layer, kind), (0.0, 0))[0]
                   for kind in kinds or (GET, PUT))

    def spans(layer: str, *kinds: str) -> int:
        return sum(totals.get((layer, kind), (0.0, 0))[1]
                   for kind in kinds or (GET, PUT))

    # One span may carry a whole batch, so protocol messages are counted
    # in the corpus (parts), not as spans.
    parts = {to_object: sum(len(unbatch(payload))
                            for _, receiver, payload in recorder.corpus
                            if receiver.is_object == to_object)
             for to_object in (True, False)}
    out = {
        "api.self_us_per_get":
            _US * _per(seconds(sp.API, GET), calls[GET]),
        "api.self_us_per_put":
            _US * _per(seconds(sp.API, PUT), calls[PUT]),
        "service.sharded.self_us_per_op":
            _US * _per(seconds(sp.SHARDED), key_ops),
        "service.store.self_us_per_op":
            _US * _per(seconds(sp.STORE), key_ops),
        "runtime.hosts.self_us_per_op":
            _US * _per(seconds(sp.HOSTS), key_ops),
        "runtime.memnet.send_self_us":
            _US * _per(seconds(sp.MEMNET), spans(sp.MEMNET)),
        "service.procs.send_self_us_per_msg":
            _US * _per(seconds(sp.PROCS), spans(sp.PROCS)),
        "core.object_step_us_per_msg":
            _US * _per(seconds(sp.CORE_OBJECT), parts[True]),
        "core.client_step_us_per_msg":
            _US * _per(seconds(sp.CORE_CLIENT), parts[False]),
        "core.object_msgs_per_op": parts[True] / key_ops,
        "adversary.transform_us_per_msg":
            _US * _per(seconds(sp.ADVERSARY), spans(sp.ADVERSARY)),
        "adversary.forged_acks": recorder.forged_acks,
    }
    layers = sorted({layer for layer, _ in totals})
    for kind in (GET, PUT):
        out[f"runtime.memnet.sends_per_{kind}"] = _per(
            spans(sp.MEMNET, kind) + spans(sp.PROCS, kind), calls[kind])
        # Every layer's self time along the calls of this kind, against
        # the latency the driver measured around the same calls.
        measured = sum(traced.solo_ms[kind]) / 1e3
        out[f"bench.budget_residual_frac_{kind}"] = _per(
            abs(sum(seconds(layer, kind) for layer in layers) - measured),
            measured)
    return out


def layer_metrics(workload: Workload, plan: Plan,
                  trials: Dict[str, List[TrialResult]],
                  recorder: sp.SpanRecorder) -> Dict[str, float]:
    """The metrics that come out of the trials themselves (the isolation
    benches supply the rest of :data:`PER_LAYER`)."""
    plain, with_history, traced = (
        trials["plain"], trials["history"], trials["spans"])
    every = [*plain, *with_history, *traced]
    last = traced[-1]
    out = span_metrics(plan, recorder, last)
    if workload.multiproc:  # replicas are in the child: no spans to read
        out["core.object_step_us_per_msg"] = object_replay_bench(
            workload, recorder.corpus)

    for kind in (GET, PUT):
        loaded = [ms for trial in plain for ms in trial.loaded_ms[kind]]
        out[f"api.{kind}_p50_ms"] = _percentile(loaded, 50)
        out[f"api.{kind}_p99_ms"] = _percentile(loaded, 99)
    out["api.failed_ops"] = sum(trial.failed for trial in every)

    stats = last.store_stats
    gets = sum(len(keys) for phase in (plan.solo, *plan.loaded)
               for kind, keys in phase if kind == GET)
    out["service.store.fast_read_ratio"] = stats["fast_reads_taken"] / gets
    out["service.store.fast_read_fallbacks"] = stats["fast_read_fallbacks"]
    out["service.store.lease_invalidations"] = stats["lease_invalidations"]
    out["adversary.forged_values_returned"] = sum(
        trial.forged_values for trial in every)

    out["service.procs.spawn_s"] = (
        statistics.median(trial.spawn_s for trial in plain)
        if workload.multiproc else 0.0)
    out["service.procs.child_cpu_ms_per_op"] = statistics.median(
        1e3 * trial.loaded_child_cpu_s / trial.loaded_ops
        for trial in plain)
    out["service.procs.child_peak_rss_mb"] = max(
        trial.child_peak_rss_mb for trial in every)
    out["service.procs.restarts"] = sum(trial.restarts for trial in every)

    out["spec.history_overhead_frac"] = _overhead(with_history, plain)
    out["bench.trace_overhead_frac"] = _overhead(traced, plain)
    for name, stats_ in summarize(plain).items():
        if name != "msgs_per_op":
            out[f"bench.trial_median.{name}"] = stats_["median"]
            out[f"bench.trial_iqr_frac.{name}"] = stats_["iqr_frac"]
    return out
