"""The deterministic discrete-event simulation kernel.

:class:`SimKernel` executes the step semantics of Section 2.1: computation
proceeds as a sequence of *steps* in which one process atomically receives
a batch of messages (here: one message -- schedulers can emulate batches by
back-to-back deliveries), updates its state, and emits messages.  The
kernel owns:

* the registered :class:`~repro.automata.base.ObjectAutomaton` per base
  object, plus the clients' pending
  :class:`~repro.automata.base.ClientOperation` automata;
* the :class:`~repro.sim.network.Network` of in-transit envelopes;
* the virtual clock, advanced by the delay model;
* fault state -- crashed processes and Byzantine replacements;
* the :class:`~repro.sim.tracing.TraceLog`.

The *adversary API* (crash, replace automaton, inject envelopes, drop
envelopes, holds) grants the simulator exactly the powers the paper's
adversary has, no more: senders cannot be spoofed on behalf of
non-malicious processes, and only messages from/to malicious processes may
be dropped.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..automata.base import (ClientOperation, ObjectAutomaton, Outgoing,
                             Sink, resolve_batch_handler)
from ..config import SystemConfig
from ..errors import (PendingOperationError, ProtocolError,
                      SchedulerExhaustedError, SimulationError)
from ..messages import (Batch, as_frame, estimate_size, register_of,
                        summarize, unbatch, Message)
from ..types import ProcessId, obj
from . import tracing
from .delay import DelayModel, ZeroDelay
from .envelope import Envelope
from .network import Network
from .schedulers import FifoScheduler, Scheduler

#: Safety valve for ``run_until`` loops.
DEFAULT_MAX_STEPS = 1_000_000


class OperationHandle:
    """A client operation as seen from the outside of the kernel."""

    def __init__(self, operation: ClientOperation, invoked_at: float,
                 batch: int):
        self.operation = operation
        self.invoked_at = invoked_at
        self.completed_at: Optional[float] = None
        #: the :meth:`SimKernel.invoke_many` call this handle belongs to
        #: (its first operation's id): a call's rounds leave together.
        self.batch = batch

    @property
    def done(self) -> bool:
        return self.operation.done

    @property
    def result(self) -> Any:
        return self.operation.result

    @property
    def rounds_used(self) -> int:
        return self.operation.rounds_used

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.invoked_at

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"OperationHandle({self.operation.describe()}, {state})"


class SimKernel:
    """Deterministic simulator for one storage system instance."""

    def __init__(self, config: SystemConfig,
                 scheduler: Optional[Scheduler] = None,
                 delay_model: Optional[DelayModel] = None,
                 trace_capacity: Optional[int] = 100_000,
                 trace_enabled: bool = True):
        self.config = config
        self.scheduler = scheduler or FifoScheduler()
        self.delay_model = delay_model or ZeroDelay()
        self.network = Network()
        self.trace = tracing.TraceLog(capacity=trace_capacity,
                                      enabled=trace_enabled)
        self.now: float = 0.0
        self.steps_taken = 0

        self._envelope_counter = 0
        self._objects: Dict[ProcessId, ObjectAutomaton] = {}
        #: per-object cached batch entry point for vector-ack replies;
        #: keyed by the automaton *instance* so a Byzantine swap
        #: (``replace_automaton``) re-resolves against the new class.
        self._batch_handlers: Dict[ProcessId,
                                   Tuple[ObjectAutomaton, Callable]] = {}
        self._crashed: Set[ProcessId] = set()
        self._byzantine: Set[ProcessId] = set()
        #: per-process strategy note (class name) recorded at corruption
        #: time, and deliveries intercepted by each Byzantine process --
        #: the chaos harness surfaces both in its run verdicts.
        self._byzantine_notes: Dict[ProcessId, str] = {}
        self._byzantine_deliveries: Dict[ProcessId, int] = {}
        #: envelopes removed through the adversary's drop privilege.
        self.dropped_adversarially = 0
        #: pending operations, keyed (client, register): one client may run
        #: one operation per register concurrently (the multiplexing model),
        #: which degenerates to the classic one-op-per-client rule when
        #: everything addresses DEFAULT_REGISTER.
        self._pending_ops: Dict[ProcessId, Dict[str, OperationHandle]] = {}
        self._completion_callbacks: List[Callable[[OperationHandle], None]] = []
        self._invocation_callbacks: List[Callable[[OperationHandle], None]] = []

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def register_object(self, automaton: ObjectAutomaton) -> ProcessId:
        """Attach a base object automaton at its declared index."""
        pid = obj(automaton.object_index)
        if pid in self._objects:
            raise SimulationError(f"object {pid!r} registered twice")
        if automaton.object_index >= self.config.num_objects:
            raise SimulationError(
                f"object index {automaton.object_index} out of range for "
                f"S={self.config.num_objects}")
        self._objects[pid] = automaton
        return pid

    def register_objects(self, automata) -> List[ProcessId]:
        return [self.register_object(a) for a in automata]

    def object_automaton(self, pid: ProcessId) -> ObjectAutomaton:
        return self._objects[pid]

    # ------------------------------------------------------------------
    # fault / adversary API
    # ------------------------------------------------------------------
    def crash(self, pid: ProcessId) -> None:
        """Crash a process: it takes no further steps (Section 2.1)."""
        if pid in self._crashed:
            return
        self._crashed.add(pid)
        self.trace.append(time=self.now, kind=tracing.CRASH, process=pid)

    def restore(self, pid: ProcessId) -> None:
        """Lift a crash: the process resumes taking steps.

        Models a crash-*recovery* restart whose state survived (the
        multiproc tier's WAL replay brings a replica back exactly like
        this): the automaton's state is untouched and every envelope
        that stayed in transit while the process was down becomes
        deliverable again.  A restart that *lost* state is not a crash
        fault -- model it as a Byzantine replacement
        (:meth:`make_byzantine` with a fresh automaton), which the
        chaos harness counts against ``b``.
        """
        if pid not in self._crashed:
            return
        self._crashed.discard(pid)
        self.trace.append(time=self.now, kind=tracing.RECOVER, process=pid,
                          detail="state intact")

    def is_alive(self, pid: ProcessId) -> bool:
        return pid not in self._crashed

    def crashed_processes(self) -> Set[ProcessId]:
        return set(self._crashed)

    def advance_clock(self, delta: float) -> None:
        """Skew the virtual clock forward (chaos ``clock_skew`` events).

        Only forward: the kernel's invariant is that ``now`` never
        decreases.  Every in-transit envelope whose ``available_at``
        falls inside the skipped window becomes immediately deliverable
        -- the discrete-event analogue of a clock jumping over pending
        timers.
        """
        if delta < 0:
            raise SimulationError("clock skew must be non-negative")
        self.now += delta

    def make_byzantine(self, pid: ProcessId,
                       automaton: ObjectAutomaton,
                       note: str = "") -> None:
        """Replace an object's automaton with an arbitrary-behaviour one."""
        if not pid.is_object:
            raise SimulationError("only base objects may turn Byzantine "
                                  "in this model")
        if pid not in self._objects:
            raise SimulationError(f"unknown object {pid!r}")
        self._objects[pid] = automaton
        self._byzantine.add(pid)
        self._byzantine_notes[pid] = note or type(automaton).__name__
        self._byzantine_deliveries.setdefault(pid, 0)
        self.trace.append(time=self.now, kind=tracing.BYZANTINE, process=pid,
                          detail=note or type(automaton).__name__)

    def byzantine_processes(self) -> Set[ProcessId]:
        return set(self._byzantine)

    def byzantine_intercepts(self) -> Dict[str, int]:
        """Deliveries intercepted per Byzantine process, keyed
        ``"<pid>:<strategy note>"`` -- the per-strategy counters the
        chaos harness folds into its run verdicts."""
        return {
            f"{pid!r}:{self._byzantine_notes.get(pid, '?')}": count
            for pid, count in sorted(self._byzantine_deliveries.items())
        }

    def inject(self, sender: ProcessId, receiver: ProcessId,
               payload: Any) -> Envelope:
        """Place a forged message in transit on behalf of ``sender``.

        Section 2.1 allows malicious processes to put arbitrary messages
        into their channels; the kernel therefore requires that ``sender``
        has been marked Byzantine (the lower-bound driver marks objects
        before forging on their behalf).
        """
        if sender not in self._byzantine:
            raise SimulationError(
                f"refusing to forge a message from non-malicious {sender!r}")
        return self._submit(sender, receiver, payload, injected=True)

    def drop_messages(self, predicate) -> int:
        """Adversarially remove in-transit messages involving malicious
        processes (their Section 2.1 privilege)."""

        def guarded(env: Envelope) -> bool:
            involved = (env.sender in self._byzantine
                        or env.receiver in self._byzantine)
            return involved and predicate(env)

        dropped = self.network.drop_matching(guarded)
        self.dropped_adversarially += dropped
        return dropped

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------
    def on_invoke(self, callback: Callable[[OperationHandle], None]) -> None:
        self._invocation_callbacks.append(callback)

    def on_complete(self, callback: Callable[[OperationHandle], None]) -> None:
        self._completion_callbacks.append(callback)

    def invoke(self, operation: ClientOperation) -> OperationHandle:
        """Invoke an operation on its client; returns a handle.

        The one-member case of :meth:`invoke_many`.
        """
        return self.invoke_many([operation])[0]

    def invoke_many(self, operations: List[ClientOperation]
                    ) -> List[OperationHandle]:
        """Invoke a batch of same-client operations as *vector rounds*.

        The kernel's one client engine, the deterministic twin of the
        asyncio vector engine: each operation's first round comes from
        ``start_vector``, every round of the batch leaves as one frame
        (a singleton or a :class:`~repro.messages.Batch`) per base
        object, and each delivery step ``absorb``s a whole inbound frame
        and ``advance``s the touched operations once.  The network-level
        totals in :meth:`metrics` count the traffic.
        """
        operations = list(operations)
        if not operations:
            return []
        client = operations[0].client_id
        if not client.is_client:
            raise ProtocolError(f"{client!r} is not a client")
        if client in self._crashed:
            raise ProtocolError(f"client {client!r} has crashed")
        per_register = self._pending_ops.setdefault(client, {})
        batch_registers: Set[str] = set()
        for operation in operations:
            if operation.client_id != client:
                raise ProtocolError(
                    "invoke_many requires same-client operations")
            register_id = operation.register_id
            if register_id in batch_registers:
                raise PendingOperationError(
                    f"two operations in one invoke_many batch address "
                    f"register {register_id!r}")
            batch_registers.add(register_id)
            existing = per_register.get(register_id)
            if existing is not None and not existing.done:
                raise PendingOperationError(
                    f"client {client!r} already has {existing!r} in "
                    f"progress on register {register_id!r}")
        handles: List[OperationHandle] = []
        for operation in operations:
            handle = OperationHandle(operation, invoked_at=self.now,
                                     batch=operations[0].operation_id)
            per_register[operation.register_id] = handle
            self.trace.append(time=self.now, kind=tracing.INVOKE,
                              process=client,
                              operation_id=operation.operation_id,
                              detail=operation.describe())
            for callback in self._invocation_callbacks:
                callback(handle)
            handles.append(handle)
        sink: Sink = []
        leftovers: Outgoing = []
        for operation in operations:
            operation.start_vector(sink, leftovers)
        self._dispatch_vector(client, sink, leftovers)
        for handle in handles:
            self._check_completion(client, handle)
        return handles

    def _dispatch_vector(self, client: ProcessId, sink: Sink,
                         leftovers: Outgoing) -> None:
        if sink:
            payload = as_frame(sink)
            for i in range(self.config.num_objects):
                self._submit(client, obj(i), payload)
        for receiver, payload in leftovers:
            self._submit(client, receiver, payload)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Deliver one message; returns False when nothing is deliverable.

        If nothing is deliverable *now* but a delayed envelope exists, the
        virtual clock advances to its availability time first.
        """
        deliverable = self.network.deliverable(self.now, self.is_alive)
        if not deliverable:
            future = self.network.earliest_future_time(self.is_alive)
            if future is None or future <= self.now:
                return False
            self.now = future
            deliverable = self.network.deliverable(self.now, self.is_alive)
            if not deliverable:
                return False
        envelope = self.scheduler.choose(deliverable)
        self._deliver(envelope)
        return True

    def run_until(self, predicate: Callable[[], bool],
                  max_steps: int = DEFAULT_MAX_STEPS) -> int:
        """Run steps until ``predicate()``; returns steps taken.

        Raises :class:`SchedulerExhaustedError` if the network quiesces
        first and :class:`SimulationError` when ``max_steps`` is exceeded
        (which usually means a liveness bug or an unfair scheduler).
        """
        taken = 0
        while not predicate():
            if taken >= max_steps:
                raise SimulationError(
                    f"run_until exceeded {max_steps} steps; "
                    f"pending={self.network.pending_count()}, "
                    f"holds={self.network.active_holds()}")
            if not self.step():
                raise SchedulerExhaustedError(
                    "network quiesced before the goal predicate held; "
                    f"active holds: {self.network.active_holds()}, "
                    f"crashed: {sorted(map(repr, self._crashed))}")
            taken += 1
        return taken

    def run_to_quiescence(self, max_steps: int = DEFAULT_MAX_STEPS) -> int:
        """Deliver until nothing is deliverable; returns steps taken."""
        taken = 0
        while self.step():
            taken += 1
            if taken >= max_steps:
                raise SimulationError(
                    f"no quiescence within {max_steps} steps")
        return taken

    def deliver_by_id(self, envelope_id: int) -> bool:
        """Deliver one specific in-transit envelope (schedule exploration).

        Returns False when no deliverable envelope has that id.  Used by
        :mod:`repro.spec.explore` to branch over scheduler choices from a
        copied kernel state.
        """
        for envelope in self.network.deliverable(self.now, self.is_alive):
            if envelope.envelope_id == envelope_id:
                self._deliver(envelope)
                return True
        return False

    def run_operation(self, operation: ClientOperation,
                      max_steps: int = DEFAULT_MAX_STEPS) -> OperationHandle:
        """Invoke and run until the operation completes."""
        handle = self.invoke(operation)
        if not handle.done:
            self.run_until(lambda: handle.done, max_steps=max_steps)
        return handle

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _submit(self, sender: ProcessId, receiver: ProcessId, payload: Any,
                injected: bool = False) -> Envelope:
        size = (payload.estimated_size()
                if isinstance(payload, Message) else estimate_size(payload))
        # Envelope ids are kernel-local and deterministic so a recorded
        # delivery order can be replayed against a fresh system.
        self._envelope_counter += 1
        envelope = Envelope(
            sender=sender,
            receiver=receiver,
            payload=payload,
            sent_at=self.now,
            available_at=self.now + self.delay_model.delay(sender, receiver),
            injected=injected,
            envelope_id=self._envelope_counter,
        )
        self.network.submit(envelope, size_bytes=size)
        self.trace.append(time=self.now, kind=tracing.SEND, process=sender,
                          peer=receiver, payload=payload,
                          envelope_id=envelope.envelope_id,
                          detail=self._summary(payload))
        return envelope

    @staticmethod
    def _summary(payload: Any) -> str:
        if isinstance(payload, Message):
            return summarize(payload)
        return repr(payload)

    def _batch_handler_for(self, receiver: ProcessId,
                           automaton: ObjectAutomaton) -> Callable:
        cached = self._batch_handlers.get(receiver)
        if cached is None or cached[0] is not automaton:
            handler = resolve_batch_handler(automaton)
            self._batch_handlers[receiver] = (automaton, handler)
            return handler
        return cached[1]

    def _deliver(self, envelope: Envelope) -> None:
        self.network.remove(envelope)
        self.now = max(self.now, envelope.available_at)
        self.steps_taken += 1
        receiver = envelope.receiver
        self.trace.append(time=self.now, kind=tracing.DELIVER,
                          process=receiver, peer=envelope.sender,
                          payload=envelope.payload,
                          envelope_id=envelope.envelope_id,
                          detail=self._summary(envelope.payload))
        if receiver.is_object:
            automaton = self._objects.get(receiver)
            if automaton is None:
                raise SimulationError(f"no automaton for {receiver!r}")
            if receiver in self._byzantine:
                self._byzantine_deliveries[receiver] = (
                    self._byzantine_deliveries.get(receiver, 0) + 1)
            if isinstance(envelope.payload, Batch):
                # A batched envelope is one atomic delivery step -- and
                # its acks leave the same way: every reply to the sender
                # collects into one sink and ships as a single Batch
                # frame (the vector-ack path), instead of one envelope
                # per register.  Singleton deliveries keep the plain
                # per-message path below, so adversary plans and message
                # counts over unbatched traffic are unchanged.
                handler = self._batch_handler_for(receiver, automaton)
                sink: Sink = []
                leftovers = handler(envelope.sender,
                                    unbatch(envelope.payload), sink)
                if sink:
                    self._submit(receiver, envelope.sender, as_frame(sink))
                for reply_receiver, payload in leftovers or []:
                    self._submit(receiver, reply_receiver, payload)
                return
            for part in unbatch(envelope.payload):
                replies = automaton.on_message(envelope.sender, part)
                for reply_receiver, payload in replies or []:
                    self._submit(receiver, reply_receiver, payload)
            return
        # Client delivery: route each part to the pending operation of the
        # register it addresses (clients with no pending operation on that
        # register ignore stale traffic) and absorb it; at the end of the
        # (atomic) delivery step each touched operation advances once, and
        # each invoke_many batch's next round leaves as one frame per object.
        per_register = self._pending_ops.get(receiver)
        if per_register is None:
            return
        touched: Dict[int, List[OperationHandle]] = {}
        for part in unbatch(envelope.payload):
            handle = per_register.get(register_of(part))
            if handle is None or handle.done:
                continue
            handle.operation.absorb(envelope.sender, part)
            dirty = touched.setdefault(handle.batch, [])
            if handle not in dirty:
                dirty.append(handle)
        for dirty in touched.values():
            sink: Sink = []
            leftovers: Outgoing = []
            for handle in dirty:
                if not handle.done:
                    handle.operation.advance(sink, leftovers)
            self._dispatch_vector(receiver, sink, leftovers)
            for handle in dirty:
                self._check_completion(receiver, handle)

    def _check_completion(self, client: ProcessId,
                          handle: OperationHandle) -> None:
        if not handle.done or handle.completed_at is not None:
            return
        handle.completed_at = self.now
        self.trace.append(time=self.now, kind=tracing.RESPOND, process=client,
                          operation_id=handle.operation.operation_id,
                          detail=(f"{handle.operation.describe()} -> "
                                  f"{handle.operation.result!r}"))
        for callback in self._completion_callbacks:
            callback(handle)
        # The completed handle intentionally stays in its slot until the
        # next operation on that (client, register) replaces it: schedule
        # exploration fingerprints pending-op internals, and the last
        # completed operation's state is what distinguishes terminal
        # states of different delivery orders.  Retention is O(registers),
        # the same order as the per-register client states themselves.

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Any]:
        return {
            "virtual_time": self.now,
            "steps": self.steps_taken,
            "messages_sent": self.network.total_sent,
            "messages_delivered": self.network.total_delivered,
            "bytes_sent": self.network.total_bytes_sent,
            "in_transit": self.network.pending_count(),
            "crashed": len(self._crashed),
            "byzantine": len(self._byzantine),
            "dropped_adversarially": self.dropped_adversarially,
        }
