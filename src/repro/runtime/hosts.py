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
  per register, routing replies by their ``register_id``.  It has one
  driver, the vector round engine: single-key and batched calls alike
  send each step as one :class:`~repro.messages.Batch` frame per object
  and advance once per burst, and a call's deadline is one
  ``call_later`` timer on the call's future.  This is what lets one
  replica set serve thousands of registers without per-register hosts.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..automata.base import (ClientOperation, ObjectAutomaton, Outgoing,
                             Sink, resolve_batch_handler)
from ..errors import BackpressureError, BusyRegisterError, TransportError
from ..messages import Batch, Message, as_frame, fast_batch, unbatch
from ..spec.histories import History, READ, WRITE
from ..types import DEFAULT_REGISTER, ProcessId, obj
from .memnet import AsyncEnvelope, AsyncNetwork, report_error


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
    """The operations of one ``run``/``run_many`` call.

    The group shares a single future across its operations; the pump
    absorbs inbound parts into the per-register operations and advances
    each touched operation once per burst, so per-register quorum
    conditions are evaluated once over the whole burst's evidence
    instead of once per ack.  A single-key ``run`` is the one-member
    case.
    """

    __slots__ = ("operations", "future", "remaining", "dirty")

    def __init__(self, operations: List[ClientOperation],
                 future: "asyncio.Future[List[Any]]"):
        self.operations = operations
        self.future = future
        self.remaining = len(operations)
        #: operations touched by the current burst (insertion-ordered,
        #: each once), advanced at its end.
        self.dirty: Dict[ClientOperation, None] = {}


class MuxClientHost:
    """One client process driving concurrent per-register operations.

    One mailbox consumer routes every inbound message to the pending
    operation of the register it addresses; operations on distinct
    registers therefore proceed concurrently over one mailbox, one
    socket set, one process identity.  Every call -- a single-key
    ``run`` or a ``run_many`` batch -- rides the one *vector round*
    driver: its first round leaves as one frame per base object, inbound
    acks are absorbed part by part, and each touched operation advances
    once per burst, the burst's next rounds again leaving as one frame
    per object.  A call's deadline is a ``call_later`` timer that fails
    its group's future, cancelled when the call returns.
    """

    def __init__(self, pid: ProcessId, network: AsyncNetwork,
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
        self.max_pending = max_pending
        self.history = history
        network.register(pid)
        #: register id -> (its pending operation, the group driving it).
        self._pending: Dict[str, Tuple[ClientOperation, _VectorGroup]] = {}
        #: broadcast width: the replica set's size, taken from the first
        #: operation admitted (every later one must agree); 0 until then.
        self._num_objects = 0
        #: fast-read efficacy counters, aggregated from completed reads
        #: (first slice of the observability roadmap item).
        self.fast_reads_taken = 0
        self.fast_read_fallbacks = 0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Attach to the mailbox (``run``/``run_many`` do it on demand)."""
        self.network.attach(self.pid, self._pump)

    def stop(self) -> None:
        """Detach from the mailbox and fail every call in flight.

        Without the eviction a caller awaiting an in-flight operation
        would hang forever once nothing consumes its replies; failing
        fast with a :class:`TransportError` turns a lifecycle bug into a
        visible error at the call site.
        """
        self.network.detach(self.pid, self._pump)
        if self._pending:
            error = TransportError(
                f"client host {self.pid!r} stopped with operations "
                f"in flight")
            for group in dict.fromkeys(
                    group for _, group in self._pending.values()):
                self._fail(group, error)

    def in_flight(self) -> Set["asyncio.Future[List[Any]]"]:
        """The futures of every call with an operation still pending."""
        return {group.future for _, group in self._pending.values()}

    # -- admission ------------------------------------------------------------
    def _admit(self, operation: ClientOperation, group: _VectorGroup,
               record: bool) -> None:
        if operation.client_id != self.pid:
            raise TransportError(
                f"operation belongs to {operation.client_id!r}, "
                f"host is {self.pid!r}")
        num_objects = operation.config.num_objects
        if num_objects != self._num_objects:
            if self._num_objects:
                raise TransportError(
                    f"operation addresses {num_objects} objects, client "
                    f"{self.pid!r} broadcasts to {self._num_objects}")
            self._num_objects = num_objects
        register_id = operation.register_id
        existing = self._pending.get(register_id)
        if existing is not None and not existing[0].done:
            raise BusyRegisterError(
                f"client {self.pid!r} already has an operation in flight "
                f"on register {register_id!r}")
        if (self.max_pending is not None
                and len(self._pending) >= self.max_pending):
            raise BackpressureError(
                f"client {self.pid!r} has {len(self._pending)} operations "
                f"in flight (cap {self.max_pending}); rejecting "
                f"register {register_id!r}")
        self._pending[register_id] = (operation, group)
        if record:
            self._record_invocation(operation)

    def _withdraw(self, operation: ClientOperation) -> None:
        """Drop ``operation`` from the pending table.  Identity-guarded:
        the register may already carry a later admission."""
        entry = self._pending.get(operation.register_id)
        if entry is not None and entry[0] is operation:
            del self._pending[operation.register_id]

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

    # -- the round engine -----------------------------------------------------
    def _send(self, sink: Sink, leftovers: Outgoing) -> None:
        """Send one step's messages: the sink as one frame to every base
        object, directed leftovers coalesced per receiver.

        Messages are immutable, so the *same* frame rides every channel
        -- S sends, zero per-receiver grouping work.
        """
        send = self.network.send
        pid = self.pid
        if sink:
            payload = as_frame(sink)
            for i in range(self._num_objects):
                send(pid, obj(i), payload)
        if leftovers:
            for receiver, payload in coalesce_outgoing(leftovers):
                send(pid, receiver, payload)

    def _finish(self, group: _VectorGroup,
                operation: ClientOperation) -> None:
        self._withdraw(operation)
        group.remaining -= 1
        self._record_completion(operation)

    def _fail(self, group: _VectorGroup, error: BaseException) -> None:
        """Fail a whole call: the first failure propagates to the caller
        and every unfinished member is withdrawn."""
        for operation in group.operations:
            self._withdraw(operation)
        if not group.future.done():
            group.future.set_exception(error)

    def _expire(self, group: _VectorGroup) -> None:
        self._fail(group, asyncio.TimeoutError())

    def _pump(self, burst: List[AsyncEnvelope]) -> None:
        """One step: absorb the whole burst, then decide once.

        Every inbound part is recorded in the pending operation of the
        register it addresses, with no decision; :meth:`_advance` then
        runs each touched operation's round conditions once over all the
        evidence that arrived together.
        """
        pending = self._pending
        touched: List[_VectorGroup] = []
        for envelope in burst:
            sender = envelope.sender
            for part in unbatch(envelope.payload):
                # register_of() inlined: this getattr runs once per
                # inbound part, the hottest line of the service tier.
                entry = pending.get(
                    getattr(part, "register_id", DEFAULT_REGISTER))
                if entry is None:
                    continue  # stale traffic for a finished operation
                operation, group = entry
                try:
                    operation.absorb(sender, part)
                except Exception as exc:
                    self._fail(group, exc)
                    continue
                dirty = group.dirty
                if not dirty:
                    touched.append(group)
                dirty[operation] = None
        if touched:
            self._advance(touched)

    def _advance(self, touched: List[_VectorGroup]) -> None:
        """Advance every operation the burst touched, once; send the
        burst's next rounds together; resolve the finished calls.

        One sink serves every touched call, so N registers' acks served
        in one step yield S next-round frames, not N x S -- whether the
        registers belong to one ``run_many`` batch or to concurrent
        single-key ``run`` calls.
        """
        sink: Sink = []
        leftovers: Outgoing = []
        for group in touched:
            dirty = group.dirty
            group.dirty = {}
            if group.future.done():  # failed, timed out or abandoned
                continue
            mark, mark_leftovers = len(sink), len(leftovers)
            try:
                for operation in dirty:
                    operation.advance(sink, leftovers)
                    if operation.done:
                        self._finish(group, operation)
            except Exception as exc:
                # A broken operation fails its own call, not the burst;
                # the call's half-built round stays unsent.
                del sink[mark:], leftovers[mark_leftovers:]
                self._fail(group, exc)
        error: Optional[Exception] = None
        try:
            self._send(sink, leftovers)
        except Exception as exc:
            # Undeliverable sends lose messages for an unknowable subset
            # of the burst's operations; failing their calls beats
            # hanging them.
            error = exc
        for group in touched:
            if group.future.done():
                continue
            if group.remaining == 0:
                group.future.set_result(
                    [operation.result for operation in group.operations])
            elif error is not None:
                self._fail(group, error)

    async def _run_group(self, operations: List[ClientOperation],
                         timeout: Optional[float],
                         record: bool = True) -> List[Any]:
        """Admit a call's operations, launch their first round as one
        frame per object, and await the group under its deadline."""
        loop = asyncio.get_running_loop()
        group = _VectorGroup(operations, loop.create_future())
        admitted = 0
        try:
            for operation in operations:
                self._admit(operation, group, record)
                admitted += 1
        except Exception:
            # Roll back every member this call admitted: their start
            # never ran, so leaving them pending would brick the
            # registers -- and their invocation records must go too, or
            # the shared history would accumulate phantom forever-pending
            # writes that every later read counts as concurrent.
            for operation in operations[:admitted]:
                self._withdraw(operation)
                if self.history is not None:
                    self.history.discard_invocation(operation.operation_id)
            raise
        try:
            sink: Sink = []
            leftovers: Outgoing = []
            for operation in operations:
                operation.start_vector(sink, leftovers)
                if operation.done:  # zero-communication completion
                    self._finish(group, operation)
            self._send(sink, leftovers)
        except BaseException:
            # A failure while launching the first round (a broken
            # start_vector, an undeliverable send) must not strand the
            # admitted members, or their registers would refuse all
            # later work with BusyRegisterError.  Their invocation
            # records stay: the operations were genuinely invoked and
            # lost, exactly as on a send failure in a later round.
            for operation in operations:
                if not operation.done:
                    self._withdraw(operation)
            raise
        if group.remaining == 0:
            return [operation.result for operation in operations]
        deadline = (None if timeout is None
                    else loop.call_later(timeout, self._expire, group))
        try:
            return await group.future
        finally:
            if deadline is not None:
                deadline.cancel()
            if group.remaining:
                # A timeout or failure withdrew the unfinished members
                # already; a caller's cancellation did not.
                for operation in operations:
                    self._withdraw(operation)

    # -- operations ----------------------------------------------------------
    async def run(self, operation: ClientOperation,
                  timeout: Optional[float] = None,
                  record: bool = True) -> Any:
        """Run one operation; concurrent calls must target distinct registers.

        The one-member case of :meth:`run_many`.  ``record=False`` keeps
        the operation out of the shared history: control-plane replays
        re-install values that already have history records, and
        recording the duplicate would distort the checkers' write
        serialization.
        """
        self.start()
        results = await self._run_group([operation], timeout, record)
        return results[0]

    async def run_many(self, operations: Iterable[ClientOperation],
                       timeout: Optional[float] = None) -> List[Any]:
        """Run a batch of same-client operations, one per register.

        Every round of the batch leaves as one :class:`Batch` frame per
        base object (R registers writing to S objects cost S frames per
        step, not R x S), inbound ack frames are absorbed part by part,
        and each member operation advances once per burst with its
        quorum conditions evaluated over the whole burst's evidence.  The
        first member failure (or the deadline) fails the batch and
        withdraws every unfinished sibling.
        """
        self.start()
        return await self._run_group(list(operations), timeout)
