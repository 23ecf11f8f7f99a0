"""In-memory span recorder + the wrappers that put spans on layer boundaries.

The repo's layers carry no tracing of their own, so the traced run wraps
their public methods *from here* (class attributes are swapped for the
duration of :func:`instrumented` and restored afterwards).  Each wrapped
call records one span ``[layer, start, end, parent, op]``; the span's id
is its index in :attr:`SpanRecorder.spans`.

Parenting uses one global stack: everything runs on one event-loop
thread, and in the solo phase exactly one front-door call is in flight,
so a replica's ``handle_batch`` or a ``send`` that runs while the call
awaits its quorum nests under the innermost open span of that call
(``MuxClientHost.run``).  A layer's *self time* is its span's duration
minus the part of it covered by child spans, so along one call the self
times add up to the call's latency.  (With two shard groups in flight at
once -- ``batch_inproc`` -- their waits overlap and the sum exceeds the
latency; ``bench.budget_residual_frac`` shows by how much.)
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.adversary.byzantine import StaleTagForger
from repro.api.session import Session
from repro.automata.base import ObjectAutomaton
from repro.core.atomic.protocol import AtomicObject, AtomicReadOperation
from repro.core.regular.object import RegularObject
from repro.core.regular.reader import RegularReadOperation
from repro.core.safe.writer import SafeWriteOperation
from repro.runtime.hosts import MuxClientHost
from repro.runtime.memnet import AsyncNetwork
from repro.service.procs import ProcNetwork
from repro.service.sharded import ShardedKVStore
from repro.service.store import MultiRegisterStore

NAME, START, END, PARENT, OP = range(5)

# Layer names (the per-layer metric prefixes).
API = "api"
SHARDED = "service.sharded"
STORE = "service.store"
HOSTS = "runtime.hosts"
MEMNET = "runtime.memnet"
PROCS = "service.procs"
CORE_OBJECT = "core.object"
CORE_CLIENT = "core.client"
ADVERSARY = "adversary"


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        #: spans are recorded only while active (the solo phase).
        self.active = False
        #: index of the front-door call the spans belong to.
        self.op = -1
        #: (sender, receiver, payload) of every message seen while active.
        self.corpus: List[Tuple[Any, Any, Any]] = []
        self.forged_acks = 0

    def begin(self, name: str) -> int:
        stack = self.stack
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           stack[-1] if stack else -1, self.op])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        stack = self.stack
        if stack[-1] == index:
            stack.pop()
        else:  # an async sibling finished first
            stack.remove(index)

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.corpus = []
        self.forged_acks = 0

    # -- wrappers -------------------------------------------------------------
    def wrap(self, layer: str, function: Callable) -> Callable:
        """A span around every call of ``function`` while active.

        A call made from inside a span of the same layer (``on_message``
        calling ``absorb``, ``put`` calling ``put_tagged``) stays inside
        that span: one span per layer crossing, not per method.
        """
        recorder = self

        def nested() -> bool:
            stack = recorder.stack
            return bool(stack) and recorder.spans[stack[-1]][NAME] == layer

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                if not recorder.active or nested():
                    return await function(*args, **kwargs)
                index = recorder.begin(layer)
                try:
                    return await function(*args, **kwargs)
                finally:
                    recorder.end(index)
            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.active or nested():
                return function(*args, **kwargs)
            index = recorder.begin(layer)
            try:
                return function(*args, **kwargs)
            finally:
                recorder.end(index)
        return wrapper


def _capture_send(recorder: SpanRecorder, function: Callable) -> Callable:
    """``network.send(sender, receiver, payload)`` -> message corpus."""
    @functools.wraps(function)
    def wrapper(self: Any, sender: Any, receiver: Any, payload: Any) -> Any:
        if recorder.active:
            recorder.corpus.append((sender, receiver, payload))
        return function(self, sender, receiver, payload)
    return wrapper


def _count_forgeries(recorder: SpanRecorder, function: Callable) -> Callable:
    """``transform(sender, message, replies)`` -> forged reply count."""
    @functools.wraps(function)
    def wrapper(self: Any, sender: Any, message: Any, replies: Any) -> Any:
        out = function(self, sender, message, replies)
        if recorder.active:
            recorder.forged_acks += sum(
                1 for honest, sent in zip(replies, out)
                if sent[1] is not honest[1])
        return out
    return wrapper


_CLIENT_STEP = ("on_message", "absorb", "advance")

#: (layer, class, public methods): every boundary that gets a span.
SPAN_TARGETS: List[Tuple[str, type, Tuple[str, ...]]] = [
    (API, Session, ("put", "get", "put_many", "get_many")),
    (SHARDED, ShardedKVStore, ("put", "get", "put_many", "get_many")),
    (STORE, MultiRegisterStore, ("read", "write", "read_many", "write_many")),
    (HOSTS, MuxClientHost, ("run", "run_many")),
    (MEMNET, AsyncNetwork, ("send",)),
    (PROCS, ProcNetwork, ("send",)),
    (CORE_OBJECT, ObjectAutomaton, ("handle_batch",)),
    (CORE_OBJECT, RegularObject, ("handle_batch", "on_message")),
    (CORE_OBJECT, AtomicObject, ("on_message",)),
    (CORE_CLIENT, SafeWriteOperation, _CLIENT_STEP),
    (CORE_CLIENT, RegularReadOperation, _CLIENT_STEP),
    (CORE_CLIENT, AtomicReadOperation, _CLIENT_STEP),
    (ADVERSARY, StaleTagForger, ("transform",)),
]

#: (class, method, tap): counters and the corpus, recorded without a span.
TAPS: List[Tuple[type, str, Callable]] = [
    (AsyncNetwork, "send", _capture_send),
    (ProcNetwork, "send", _capture_send),
    (ProcNetwork, "deliver_local", _capture_send),
    (StaleTagForger, "transform", _count_forgeries),
]


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Swap the wrapped methods in; restore the originals on exit.

    Only methods a class defines itself are replaced, on that class, so
    ``resolve_batch_handler``'s ownership test sees what it saw before.
    Clusters must be built *inside* the block: object hosts bind their
    batch handler at construction.
    """
    originals: List[Tuple[type, str, Any]] = []

    def swap(cls: type, name: str, wrapped: Callable) -> None:
        originals.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapped)

    try:
        # Taps first, so that they sit inside the spans.
        for cls, name, tap in TAPS:
            swap(cls, name, tap(recorder, cls.__dict__[name]))
        for layer, cls, names in SPAN_TARGETS:
            for name in names:
                if name in cls.__dict__:
                    swap(cls, name, recorder.wrap(layer, cls.__dict__[name]))
        yield recorder
    finally:
        for cls, name, original in reversed(originals):
            setattr(cls, name, original)


# -- analysis -------------------------------------------------------------------

def self_times(spans: List[list]) -> List[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    out: List[float] = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out.append((end - start) - covered)
    return out


def layer_totals(spans: List[list], op_kinds: List[str]
                 ) -> Dict[Tuple[str, str], Tuple[float, int]]:
    """(layer, call kind) -> (summed self time in s, span count)."""
    totals: Dict[Tuple[str, str], Tuple[float, int]] = {}
    for span, self_time in zip(spans, self_times(spans)):
        op = span[OP]
        kind = op_kinds[op] if 0 <= op < len(op_kinds) else "none"
        key = (span[NAME], kind)
        seconds, count = totals.get(key, (0.0, 0))
        totals[key] = (seconds + self_time, count + 1)
    return totals


def dump(path: str, spans: List[list], op_kinds: List[str],
         meta: Optional[Dict[str, Any]] = None) -> None:
    """Write the span file (see README: "Reading the span file")."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "meta": meta or {},
            "columns": ["id", "name", "start_s", "end_s", "parent", "op"],
            "ops": op_kinds,
            "spans": [[index] + span for index, span in enumerate(spans)],
        }, fh)
