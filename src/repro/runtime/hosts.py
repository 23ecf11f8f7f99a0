"""Asyncio hosts: object automata and client operations as mailbox consumers.

A host is not a task.  It attaches one plain function to its pid's
mailbox (see :mod:`repro.runtime.memnet` for delivery order and the
loop-hold bound); each call gets every envelope that arrived since the
last one, steps the automaton (or the pending operations) over the whole
burst and sends the replies, one coalesced envelope per destination.
``stop()`` detaches, and later mail parks in the mailbox -- which is
what replica hand-over and ``crash``/``restore`` build on.

* :class:`ObjectHost` -- one replica.  A frame that makes the automaton
  raise is dropped and counted; the replica keeps serving.
* :class:`MuxClientHost` -- the multiplexing client of the service tier:
  one process (one mailbox) drives *many* concurrent operations, one
  per register, routing replies by their ``register_id`` and coalescing
  same-step messages to the same object into :class:`~repro.messages.
  Batch` envelopes.  This is what lets one replica set serve thousands of
  registers without per-register hosts.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..automata.base import (ClientOperation, ObjectAutomaton, Outgoing,
                             Sink, resolve_batch_handler)
from ..errors import BackpressureError, BusyRegisterError, TransportError
from ..messages import Batch, Message, unbatch
from ..spec.histories import History, READ, WRITE
from ..types import DEFAULT_REGISTER, ProcessId, obj
from .memnet import AsyncEnvelope, AsyncNetwork, report_error


def fast_batch(messages: Tuple[Message, ...]) -> Batch:
    """A :class:`Batch` from already-vetted protocol messages.

    Callers guarantee every element is a non-batch :class:`Message`, so
    construction skips ``Batch.__post_init__``'s re-scan.
    """
    batch = object.__new__(Batch)
    object.__setattr__(batch, "messages", messages)
    return batch


def as_frame(sink: List[Message]) -> Any:
    """One wire payload for a non-empty reply sink.

    Centralizes the singleton-vs-batch idiom *and* the
    :func:`fast_batch` precondition: sinks only ever collect non-batch
    protocol messages (the batch handlers route anything else to their
    leftovers), so the no-nesting re-scan can be skipped.
    """
    return sink[0] if len(sink) == 1 else fast_batch(tuple(sink))


def coalesce_outgoing(outgoing: Outgoing) -> Outgoing:
    """Group same-step messages per receiver into single Batch envelopes.

    Singleton groups stay unwrapped; order within a batch is send order,
    so receivers observe exactly the unbatched semantics.  (Insertion
    order of the grouping dict preserves first-seen receiver order.)
    """
    if len(outgoing) <= 1:
        return outgoing
    grouped: Dict[ProcessId, List[Any]] = {}
    for receiver, payload in outgoing:
        bucket = grouped.get(receiver)
        if bucket is None:
            bucket = grouped[receiver] = []
        bucket.append(payload)
    result: Outgoing = []
    for receiver, payloads in grouped.items():
        if len(payloads) == 1:
            result.append((receiver, payloads[0]))
        elif all(isinstance(p, Message) and not isinstance(p, Batch)
                 for p in payloads):
            # One pass vets both batchability and the no-nesting rule.
            result.append((receiver, fast_batch(tuple(payloads))))
        else:  # raw probes / nested batches cannot ride in a Batch
            result.extend((receiver, p) for p in payloads)
    return result


class ObjectHost:
    """Serves one :class:`ObjectAutomaton` from its pid's mailbox.

    Batched envelopes are unwrapped, processed back to back, and the
    replies re-coalesced per destination -- N same-round requests from a
    multiplexed client come back as one ack envelope.

    Constructing a host for an already-registered pid takes over that
    pid's *existing* mailbox (see :meth:`AsyncNetwork.register`): replica
    replacement swaps the automaton and the consumer while every
    message already in flight to the object survives the swap.  The
    previous host must be stopped first.
    """

    def __init__(self, automaton: ObjectAutomaton, network: AsyncNetwork):
        self.automaton = automaton
        self.pid = obj(automaton.object_index)
        self.network = network
        network.register(self.pid)
        self._handle_batch = resolve_batch_handler(automaton)
        #: envelopes dropped because the automaton raised on them.
        self.handler_errors = 0

    def start(self) -> None:
        self.network.attach(self.pid, self._serve)

    def _serve(self, burst: List[AsyncEnvelope]) -> None:
        """One step: the whole burst through the automaton, then reply.

        Replies to each client collect in one per-sender sink and go
        back as a single ack envelope; the dict keeps first-seen sender
        order, so receivers observe exactly the unbatched semantics.
        """
        handle_batch = self._handle_batch
        sinks: Dict[ProcessId, Sink] = {}
        leftovers: Outgoing = []
        for envelope in burst:
            sender = envelope.sender
            sink = sinks.get(sender)
            if sink is None:
                sink = sinks[sender] = []
            answered = len(sink)
            try:
                leftovers.extend(
                    handle_batch(sender, unbatch(envelope.payload), sink)
                    or [])
            except Exception as exc:
                # One poisoned frame must not mute the replica: drop the
                # envelope (and its half-built replies), keep serving.
                del sink[answered:]
                self.handler_errors += 1
                report_error(
                    f"object {self.pid!r} dropped an envelope from "
                    f"{sender!r}: its handler raised", exc)
        send = self.network.send
        pid = self.pid
        for sender, sink in sinks.items():
            if sink:
                send(pid, sender, as_frame(sink))
        if leftovers:
            for receiver, payload in coalesce_outgoing(leftovers):
                send(pid, receiver, payload)

    def stop(self) -> None:
        self.network.detach(self.pid, self._serve)


class _VectorGroup:
    """One ``run_many`` batch driven by the vector round engine.

    The group shares a single future across all its operations; the pump
    absorbs inbound parts into the per-register operations and advances
    each touched operation once per burst, so per-register quorum
    conditions are evaluated once over the whole burst's evidence
    instead of once per ack.  Round broadcasts from every member
    collect in one sink and leave as a single :class:`Batch` frame per
    base object -- one vector round per (replica, step).
    """

    __slots__ = ("operations", "num_objects", "future", "remaining",
                 "dirty")

    def __init__(self, operations: List[ClientOperation],
                 num_objects: int, future: "asyncio.Future[List[Any]]"):
        self.operations = operations
        self.num_objects = num_objects
        self.future = future
        self.remaining = len(operations)
        #: operations touched by the current burst, advanced at its end.
        self.dirty: List[ClientOperation] = []


class MuxClientHost:
    """One client process driving concurrent per-register operations.

    One mailbox consumer routes every inbound message to the pending
    operation of the register it addresses; operations on distinct
    registers therefore proceed concurrently over one mailbox, one
    socket set, one process identity.  Outgoing message batches are
    coalesced per destination object, and ``run_many`` batches are
    driven as *vector rounds*: one :class:`Batch` frame per (replica,
    step) carrying every member register's payload for that step.
    """

    def __init__(self, pid: ProcessId, network: AsyncNetwork,
                 batching: bool = True,
                 max_pending: Optional[int] = None,
                 history: Optional[History] = None):
        """``max_pending`` caps concurrently pending registers: admission
        beyond the cap raises :class:`~repro.errors.BackpressureError`
        instead of letting thousands of registers starve one mailbox.
        ``history`` (shared across the hosts of one store) records every
        operation's invocation/completion for the consistency checkers.
        """
        if not pid.is_client:
            raise TransportError(f"{pid!r} is not a client process")
        if max_pending is not None and max_pending < 1:
            raise TransportError("max_pending must be at least 1")
        self.pid = pid
        self.network = network
        self.batching = batching
        self.max_pending = max_pending
        self.history = history
        network.register(pid)
        self._pending: Dict[str, ClientOperation] = {}
        self._waiters: Dict[str, "asyncio.Future[Any]"] = {}
        #: register id -> the vector group driving that register (if any).
        self._vector: Dict[str, _VectorGroup] = {}
        #: fast-read efficacy counters, aggregated from completed reads
        #: (first slice of the observability roadmap item).
        self.fast_reads_taken = 0
        self.fast_read_fallbacks = 0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Attach to the mailbox (``run``/``run_many`` do it on demand)."""
        self.network.attach(self.pid, self._pump)

    def stop(self) -> None:
        """Detach from the mailbox and fail every blocked waiter.

        Without the eviction a caller awaiting an in-flight operation
        would hang forever once nothing consumes its replies; failing
        fast with a :class:`TransportError` turns a lifecycle bug into a
        visible error at the call site.
        """
        self.network.detach(self.pid, self._pump)
        if self._pending or self._vector:
            error = TransportError(
                f"client host {self.pid!r} stopped with operations "
                f"in flight")
            for group in {g for g in self._vector.values()}:
                self._fail_vector(group, error)
            for operation in list(self._pending.values()):
                self._evict(operation, error)

    # -- dispatch -----------------------------------------------------------
    def _dispatch(self, outgoing: Outgoing) -> None:
        if self.batching:
            outgoing = coalesce_outgoing(outgoing)
        for receiver, payload in outgoing:
            self.network.send(self.pid, receiver, payload)

    def _admit(self, operation: ClientOperation,
               record: bool = True) -> "asyncio.Future[Any]":
        if operation.client_id != self.pid:
            raise TransportError(
                f"operation belongs to {operation.client_id!r}, "
                f"host is {self.pid!r}")
        register_id = operation.register_id
        existing = self._pending.get(register_id)
        if existing is not None and not existing.done:
            raise BusyRegisterError(
                f"client {self.pid!r} already has an operation in flight "
                f"on register {register_id!r}")
        if (self.max_pending is not None
                and len(self._pending) >= self.max_pending):
            raise BackpressureError(
                f"client {self.pid!r} has {len(self._pending)} operations "
                f"in flight (cap {self.max_pending}); rejecting "
                f"register {register_id!r}")
        self._pending[register_id] = operation
        future: "asyncio.Future[Any]" = \
            asyncio.get_running_loop().create_future()
        self._waiters[register_id] = future
        if record:
            self._record_invocation(operation)
        return future

    # -- history recording --------------------------------------------------
    def _record_invocation(self, operation: ClientOperation) -> None:
        if self.history is None:
            return
        kind = operation.kind if operation.kind in (READ, WRITE) else READ
        self.history.record_invocation(
            operation_id=operation.operation_id,
            client=self.pid,
            kind=kind,
            argument=getattr(operation, "value", None),
            register=operation.register_id,
        )

    def _record_completion(self, operation: ClientOperation) -> None:
        if getattr(operation, "fast_hit", False):
            self.fast_reads_taken += 1
        elif getattr(operation, "fell_back", False):
            self.fast_read_fallbacks += 1
        if self.history is None:
            return
        if not self.history.has_record(operation.operation_id):
            return  # admitted with record=False (control-plane replay)
        self.history.record_completion(
            operation_id=operation.operation_id,
            result=operation.result,
            rounds_used=operation.rounds_used,
            tag=getattr(operation, "tag", None),
            fast=getattr(operation, "fast_hit", False),
        )

    def _settle(self, register_id: str, operation: ClientOperation) -> None:
        self._pending.pop(register_id, None)
        future = self._waiters.pop(register_id, None)
        if future is not None and not future.done():
            future.set_result(operation.result)
        self._record_completion(operation)

    def _evict(self, operation: ClientOperation,
               error: Optional[BaseException] = None) -> None:
        """Withdraw an operation; fail its waiter if one is blocked."""
        register_id = operation.register_id
        if self._pending.get(register_id) is operation:
            self._pending.pop(register_id, None)
            future = self._waiters.pop(register_id, None)
            if future is not None and not future.done() and error is not None:
                future.set_exception(error)

    # -- vector rounds ------------------------------------------------------
    def _broadcast(self, sink: Sink, num_objects: int) -> None:
        """Send one frame carrying the whole sink to every base object.

        Messages are immutable, so the *same* batch object rides every
        channel -- S sends, zero per-receiver grouping work.
        """
        payload = as_frame(sink)
        send = self.network.send
        pid = self.pid
        for i in range(num_objects):
            send(pid, obj(i), payload)

    def _finish_vector_op(self, group: _VectorGroup,
                          operation: ClientOperation) -> None:
        register_id = operation.register_id
        if self._pending.get(register_id) is operation:
            del self._pending[register_id]
        if self._vector.get(register_id) is group:
            del self._vector[register_id]
        group.remaining -= 1
        self._record_completion(operation)

    def _fail_vector(self, group: _VectorGroup,
                     error: BaseException) -> None:
        """Fail a whole vector batch: the first failure propagates and
        every sibling is withdrawn (matching ``run_many``'s classic
        cancel-siblings semantics)."""
        for operation in group.operations:
            register_id = operation.register_id
            if self._pending.get(register_id) is operation:
                del self._pending[register_id]
            if self._vector.get(register_id) is group:
                del self._vector[register_id]
        if not group.future.done():
            group.future.set_exception(error)

    def _advance_vector(self, group: _VectorGroup) -> None:
        """Advance every operation the burst touched, once, and flush
        the resulting round broadcasts as one frame per object."""
        dirty = group.dirty
        if group.future.done():  # group failed or caller gave up
            for operation in dirty:
                operation._vector_dirty = False
            dirty.clear()
            return
        sink: Sink = []
        leftovers: Outgoing = []
        for operation in dirty:
            operation._vector_dirty = False
            if operation.done:
                continue
            try:
                operation.advance(sink, leftovers)
            except Exception as exc:
                dirty.clear()
                self._fail_vector(group, exc)
                return
            if operation.done:
                self._finish_vector_op(group, operation)
        dirty.clear()
        try:
            if sink:
                self._broadcast(sink, group.num_objects)
            if leftovers:
                self._dispatch(leftovers)
        except Exception as exc:
            self._fail_vector(group, exc)
            return
        if group.remaining == 0 and not group.future.done():
            group.future.set_result(
                [operation.result for operation in group.operations])

    def _admit_vector(self, operation: ClientOperation,
                      group: _VectorGroup) -> None:
        """Admission for one vector member: same busy/backpressure rules
        as :meth:`_admit`, but completion flows through the group future
        instead of a per-register waiter."""
        if operation.client_id != self.pid:
            raise TransportError(
                f"operation belongs to {operation.client_id!r}, "
                f"host is {self.pid!r}")
        register_id = operation.register_id
        existing = self._pending.get(register_id)
        if existing is not None and not existing.done:
            raise BusyRegisterError(
                f"client {self.pid!r} already has an operation in flight "
                f"on register {register_id!r}")
        if (self.max_pending is not None
                and len(self._pending) >= self.max_pending):
            raise BackpressureError(
                f"client {self.pid!r} has {len(self._pending)} operations "
                f"in flight (cap {self.max_pending}); rejecting "
                f"register {register_id!r}")
        self._pending[register_id] = operation
        self._vector[register_id] = group
        operation._vector_dirty = False
        if self.history is not None:
            self._record_invocation(operation)

    async def _run_vector(self, operations: List[ClientOperation],
                          timeout: Optional[float]) -> List[Any]:
        """Drive a batch as vector rounds: one frame per (replica, step)."""
        future: "asyncio.Future[List[Any]]" = \
            asyncio.get_running_loop().create_future()
        group = _VectorGroup(operations,
                             operations[0].config.num_objects, future)
        admitted: List[ClientOperation] = []
        try:
            for operation in operations:
                self._admit_vector(operation, group)
                admitted.append(operation)
        except Exception:
            # Roll back every member this call admitted: their start()
            # never ran, so leaving them pending would brick the
            # registers -- and their invocation records must go too, or
            # the shared history would accumulate phantom forever-pending
            # writes that every later read counts as concurrent.
            for operation in admitted:
                self._pending.pop(operation.register_id, None)
                self._vector.pop(operation.register_id, None)
                if self.history is not None:
                    self.history.discard_invocation(operation.operation_id)
            raise
        try:
            sink: Sink = []
            leftovers: Outgoing = []
            for operation in operations:
                operation.start_vector(sink, leftovers)
                if operation.done:  # zero-communication completion
                    self._finish_vector_op(group, operation)
            if sink:
                self._broadcast(sink, group.num_objects)
            if leftovers:
                self._dispatch(leftovers)
        except BaseException:
            # A failure while launching the first round (a broken
            # start_vector, an undeliverable send) must not strand the
            # admitted members: withdraw them or their registers would
            # refuse all later work with BusyRegisterError.  Their
            # invocation records stay -- the operations were genuinely
            # invoked and lost, exactly as on a dispatch failure in _pump.
            for operation in operations:
                if not operation.done:
                    register_id = operation.register_id
                    if self._pending.get(register_id) is operation:
                        del self._pending[register_id]
                    if self._vector.get(register_id) is group:
                        del self._vector[register_id]
            raise
        if group.remaining == 0:
            return [operation.result for operation in operations]
        try:
            if timeout is None:
                return await future
            return await asyncio.wait_for(future, timeout)
        finally:
            # On timeout, failure or caller cancellation every unfinished
            # member must be withdrawn, or its register would refuse work
            # forever.  Identity-guarded: the register may already carry a
            # later admission.
            for operation in operations:
                if not operation.done:
                    register_id = operation.register_id
                    if self._pending.get(register_id) is operation:
                        del self._pending[register_id]
                    if self._vector.get(register_id) is group:
                        del self._vector[register_id]

    def _pump(self, burst: List[AsyncEnvelope]) -> None:
        """One step: route the whole burst, then send what it produced.

        The burst's outgoing is aggregated before dispatching: batched
        acks (N registers' round-1 replies from several objects, served
        in one step) yield N coalesced next-round broadcasts -- S
        envelopes, not N x S.
        """
        pending = self._pending
        vector = self._vector
        outgoing: Outgoing = []
        settled: List[Tuple[str, ClientOperation]] = []
        touched: List[_VectorGroup] = []
        for envelope in burst:
            sender = envelope.sender
            for part in unbatch(envelope.payload):
                # register_of() inlined: this getattr runs once per
                # inbound part, the hottest line of the service tier.
                register_id = getattr(part, "register_id",
                                      DEFAULT_REGISTER)
                operation = pending.get(register_id)
                if operation is None or operation.done:
                    continue  # stale traffic for a finished operation
                group = vector.get(register_id)
                if group is not None:
                    # Vector path: record now, decide at burst end.
                    try:
                        operation.absorb(sender, part)
                    except Exception as exc:
                        self._fail_vector(group, exc)
                        continue
                    if not getattr(operation, "_vector_dirty", False):
                        operation._vector_dirty = True
                        group.dirty.append(operation)
                        if len(group.dirty) == 1:
                            touched.append(group)
                    continue
                try:
                    outgoing.extend(
                        operation.on_message(sender, part)
                        or [])
                except Exception as exc:
                    # A broken operation must not stop the consumer (it
                    # serves every other register) nor hang its caller:
                    # fail its waiter and drop it.
                    self._evict(operation, exc)
                    continue
                if operation.done:
                    settled.append((register_id, operation))
        for group in touched:
            self._advance_vector(group)
        try:
            self._dispatch(outgoing)
        except Exception as exc:
            # Undeliverable sends lose messages for an unknowable subset
            # of operations; failing every blocked waiter beats hanging.
            for operation in list(self._pending.values()):
                self._evict(operation, exc)
        for register_id, operation in settled:
            self._settle(register_id, operation)

    # -- operations ----------------------------------------------------------
    async def run(self, operation: ClientOperation,
                  timeout: Optional[float] = None,
                  record: bool = True) -> Any:
        """Run one operation; concurrent calls must target distinct registers.

        ``record=False`` keeps the operation out of the shared history:
        control-plane replays re-install values that already have history
        records, and recording the duplicate would distort the checkers'
        write serialization.
        """
        self.start()
        future = self._admit(operation, record=record)
        self._dispatch(operation.start() or [])
        if operation.done:  # zero-communication completion
            self._settle(operation.register_id, operation)
            return operation.result
        try:
            if timeout is None:
                return await future
            return await asyncio.wait_for(future, timeout)
        finally:
            # On timeout *or* caller cancellation the operation must be
            # withdrawn, or its register would refuse work forever.
            if not operation.done:
                self._pending.pop(operation.register_id, None)
                self._waiters.pop(operation.register_id, None)

    async def run_many(self, operations: Iterable[ClientOperation],
                       timeout: Optional[float] = None) -> List[Any]:
        """Run a batch of same-client operations, one per register.

        Batches ride the *vector round engine*: every round's messages
        leave as one :class:`Batch` frame per base object (R registers
        writing to S objects cost S frames per step, not R x S), inbound
        ack frames are absorbed part by part, and each member operation
        advances once per burst with its quorum conditions evaluated
        over the whole burst's evidence.  Operations that do not expose
        a ``config`` (the broadcast width) fall back to the classic
        per-operation path with first-round coalescing.
        """
        operations = list(operations)
        self.start()
        if self.batching and len(operations) > 1 and operations:
            num_objects = getattr(
                getattr(operations[0], "config", None), "num_objects", None)
            if num_objects is not None and all(
                    getattr(getattr(op, "config", None), "num_objects",
                            None) == num_objects
                    for op in operations):
                return await self._run_vector(operations, timeout)
        futures = []
        try:
            for operation in operations:
                futures.append(self._admit(operation))
        except Exception:
            # Roll back every operation this call admitted: their start()
            # never ran, so leaving them pending would brick the registers
            # -- and their invocation records must go too, or the shared
            # history would accumulate phantom forever-pending writes that
            # every later read counts as concurrent.
            for operation, future in zip(operations, futures):
                self._pending.pop(operation.register_id, None)
                self._waiters.pop(operation.register_id, None)
                future.cancel()
                if self.history is not None:
                    self.history.discard_invocation(operation.operation_id)
            raise
        first_round: Outgoing = []
        for operation in operations:
            first_round.extend(operation.start() or [])
        self._dispatch(first_round)
        for operation in operations:
            if operation.done:
                self._settle(operation.register_id, operation)
        gathered = asyncio.gather(*futures)
        try:
            if timeout is None:
                return await gathered
            return await asyncio.wait_for(gathered, timeout)
        except BaseException:
            # One operation failing (or the batch timing out) must not
            # leave its siblings dangling: cancel every unfinished waiter
            # so their exceptions are consumed and nothing awaits a
            # future the cleanup below is about to orphan.  The first
            # failure propagates to the caller.
            for future in futures:
                if not future.done():
                    future.cancel()
            raise
        finally:
            for operation in operations:
                if not operation.done:
                    self._pending.pop(operation.register_id, None)
                    self._waiters.pop(operation.register_id, None)
