"""Transport-agnostic protocol automata.

Every protocol in this library is written against two small interfaces, so
the same code runs unchanged on the deterministic simulator
(:mod:`repro.sim`), the asyncio runtime and the TCP tier
(:mod:`repro.runtime`):

* :class:`ObjectAutomaton` -- a base storage object.  It is a *reactive*
  state machine: the model (Section 2.1) only lets non-malicious objects
  send messages in the very step in which they receive one, so the whole
  interface is ``on_message -> replies``.

* :class:`ClientOperation` -- one invocation of READ or WRITE.  Its client
  steps are the *vector contract*: :meth:`~ClientOperation.start_vector`
  emits the first round, :meth:`~ClientOperation.absorb` records each
  reply part with no decision, and :meth:`~ClientOperation.advance`
  evaluates the round conditions once per delivery step, emitting the
  next round and eventually setting :attr:`~ClientOperation.result`.
  Every engine (``SimKernel``, ``MuxClientHost``, ``TcpStorageClient``)
  calls only these three.  An operation implements either that triple
  or the per-message authoring pair :meth:`~ClientOperation.start` /
  :meth:`~ClientOperation.on_message`, which the default triple
  replays.  Round accounting is explicit: protocols call
  :meth:`~ClientOperation.begin_round` so the harness can verify
  worst-case round complexity *structurally* instead of trusting
  counters sprinkled in protocol code.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Any, Callable, List, Optional, Tuple

from ..errors import ConfigurationError, ProtocolError
from ..messages import Batch, EpochFenceAck, Message, WriteFenced
from ..types import DEFAULT_REGISTER, ProcessId, fresh_operation_id, obj

#: Outgoing messages: ``(receiver, payload)`` pairs.
Outgoing = List[Tuple[ProcessId, Any]]

#: Broadcast messages collected by the vector round engine: every message
#: appended to a sink is sent, once, to *all* base objects (wrapped with
#: its burst siblings into a single :class:`~repro.messages.Batch` per
#: object).  All client rounds of the protocols in this library are full
#: broadcasts, which is what makes the shared sink sound.
Sink = List[Message]


class ObjectAutomaton(ABC):
    """A base storage object ``s_i``.

    Subclasses keep all protocol state in instance attributes and implement
    :meth:`on_message`.  State snapshot/restore is generic (deep copy of
    ``__dict__``) and exists so the lower-bound adversary can capture a
    state ``σ`` from one partial run and force a malicious object to forge
    it in another -- precisely the move in the Proposition 1 proof.
    """

    def __init__(self, object_index: int):
        self.object_index = object_index

    @abstractmethod
    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        """Process one message, return replies (usually to ``sender``)."""

    # -- batched delivery (vector rounds) -----------------------------------
    def handle_batch(self, sender: ProcessId, parts: Tuple[Any, ...],
                     sink: Sink) -> Outgoing:
        """Process a batch of same-sender messages in one call.

        Replies addressed back to ``sender`` are appended to ``sink`` --
        the transport wraps the whole sink into one reply frame -- and
        anything else (raw probes, replies routed elsewhere) is returned
        as ordinary ``(receiver, payload)`` pairs.  The default simply
        loops :meth:`on_message`, so every automaton (including
        adversarial ones that override only ``on_message``) keeps its
        exact semantics; hot automata override this with a tight loop
        that decodes once and dispatches per-register slots directly.
        """
        leftovers: Outgoing = []
        append = sink.append
        for part in parts:
            for receiver, payload in self.on_message(sender, part) or []:
                if receiver == sender and isinstance(payload, Message) \
                        and not isinstance(payload, Batch):
                    append(payload)
                else:
                    leftovers.append((receiver, payload))
        return leftovers

    # -- state capture (lower-bound machinery) ------------------------------
    def snapshot_state(self) -> Any:
        return copy.deepcopy(self.__dict__)

    def restore_state(self, state: Any) -> None:
        self.__dict__.clear()
        self.__dict__.update(copy.deepcopy(state))

    def describe_state(self) -> str:
        """Human-readable state summary for traces and diagrams."""
        return repr({k: v for k, v in sorted(self.__dict__.items())})


class MultiRegisterObject(ObjectAutomaton):
    """An object automaton multiplexing many registers over one process.

    Protocol state lives in per-register *slots* (``self.slots[register_id]``),
    created lazily on the first message that addresses a register.  Handlers
    look their slot up via :meth:`_slot`; everything else about the automaton
    -- one inbox, one identity, one channel per client -- is shared, which is
    what lets a single replica set serve arbitrarily many registers.

    Every multi-register object also understands *epoch fences*
    (:class:`~repro.messages.EpochFence`), the reconfiguration
    primitive: ``fences[register_id]`` is the epoch of the fence that
    retired the register here.  Write rounds on a fenced register are
    refused with a :class:`~repro.messages.WriteFenced` report instead of
    being silently applied, so a stale writer terminates (with an error)
    rather than corrupting a register that has been handed to another
    replica set.  Concrete automata consult :meth:`_fence_rejects` on
    their write paths and dispatch :class:`~repro.messages.EpochFence` to
    :meth:`_on_epoch_fence`.
    """

    def __init__(self, object_index: int):
        super().__init__(object_index)
        self.slots: dict = {}
        #: register_id -> epoch of the fence retiring it here.
        self.fences: dict = {}

    @abstractmethod
    def _new_slot(self) -> Any:
        """A fresh register slot in its initial state."""

    def _slot(self, register_id: str) -> Any:
        slot = self.slots.get(register_id)
        if slot is None:
            slot = self.slots[register_id] = self._new_slot()
        return slot

    def registers(self) -> List[str]:
        """Ids of every register this object has (lazily) materialized."""
        return sorted(self.slots)

    # -- epoch fencing (reconfiguration) --------------------------------
    def _on_epoch_fence(self, sender: ProcessId, message: Any) -> Outgoing:
        """Retire the register (the epoch only ratchets up) and ack.

        The one way back is an explicit ``lift`` -- the control plane
        handing a previously moved-away register back to this replica
        set.  Clients are trusted in the model, and the hand-back then
        installs the register's current tuple under its original tag,
        above every write that completed here before.
        """
        register_id = message.register_id
        if message.lift:
            self.fences.pop(register_id, None)
        elif message.hard:
            self.fences[register_id] = max(
                message.epoch, self.fences.get(register_id, 0))
        return [(sender, EpochFenceAck(
            nonce=message.nonce,
            object_index=self.object_index,
            epoch=self.fences.get(register_id, message.epoch),
            register_id=register_id))]

    def _fence_rejects(self, register_id: str) -> bool:
        """Whether write rounds on ``register_id`` must be refused."""
        return register_id in self.fences

    def _fence_nack_msg(self, register_id: str, epoch: int,
                        wid: int = 0, nonce: int = 0) -> WriteFenced:
        """The :class:`~repro.messages.WriteFenced` report for a refusal."""
        return WriteFenced(
            object_index=self.object_index,
            epoch=epoch,
            fence_epoch=self.fences.get(register_id, 0),
            wid=wid,
            nonce=nonce,
            register_id=register_id)

    def _fence_nack(self, sender: ProcessId, register_id: str, epoch: int,
                    wid: int = 0, nonce: int = 0) -> Outgoing:
        """``_fence_nack_msg`` addressed back to the refused sender."""
        return [(sender, self._fence_nack_msg(register_id, epoch,
                                              wid, nonce))]


def split_broadcast(outgoing: Outgoing, sink: Sink,
                    leftovers: Outgoing) -> None:
    """Split an operation's outgoing into broadcasts vs. directed sends.

    Protocol rounds are built once and paired with every object --
    ``[(obj(0), m), (obj(1), m), ...]`` with the *same* message object --
    so a full broadcast is recognized by payload identity plus the
    in-order object receivers, and collapses to one sink entry.
    Anything else stays a directed ``(receiver, payload)`` pair.
    """
    n = len(outgoing)
    if n > 1:
        payload = outgoing[0][1]
        if (isinstance(payload, Message)
                and all(pair[1] is payload for pair in outgoing)
                and all(pair[0] is obj(i)
                        for i, pair in enumerate(outgoing))):
            sink.append(payload)
            return
    leftovers.extend(outgoing)


def resolve_batch_handler(
        automaton: ObjectAutomaton
) -> Callable[[ProcessId, Tuple[Any, ...], Sink], Outgoing]:
    """The batch entry point that is *provably consistent* with the
    automaton's ``on_message``.

    A specialized :meth:`ObjectAutomaton.handle_batch` bypasses
    ``on_message`` for its hot message types, so a subclass that
    overrides ``on_message`` *below* the class that declared the fast
    path (a Byzantine variant, say) must not inherit it silently.  The
    rule: use the specialized handler only if ``on_message`` is declared
    at or above it in the MRO, or the overriding class opts back in with
    ``_on_message_batch_compatible = True`` (for overrides that only add
    new message types, like the atomic object's write-back).
    """
    cls = type(automaton)
    mro = cls.__mro__
    hb_owner = next(c for c in mro if "handle_batch" in c.__dict__)
    if hb_owner is ObjectAutomaton:
        return automaton.handle_batch  # generic loop: always consistent
    om_owner = next(c for c in mro if "on_message" in c.__dict__)
    if (mro.index(om_owner) >= mro.index(hb_owner)
            or om_owner.__dict__.get("_on_message_batch_compatible", False)):
        return automaton.handle_batch
    # on_message was overridden after the fast path was declared: fall
    # back to the generic loop so the override keeps full authority.
    return lambda sender, parts, sink: ObjectAutomaton.handle_batch(
        automaton, sender, parts, sink)


class ClientOperation:
    """One READ or WRITE invocation, as a resumable state machine."""

    #: Subclasses set this: "READ" or "WRITE" (used by history recording).
    kind: str = "OP"
    #: The :class:`~repro.config.SystemConfig` the operation runs under;
    #: every operation sets it, and client hosts broadcast each round to
    #: its ``num_objects`` base objects.
    config: Any

    def __init__(self, client_id: ProcessId,
                 register_id: str = DEFAULT_REGISTER):
        self.client_id = client_id
        #: the register this operation addresses; operations stamp it on
        #: every message they send and ignore replies tagged otherwise.
        self.register_id = register_id
        self.operation_id = fresh_operation_id()
        self.done = False
        self._result: Any = None
        self.rounds_used = 0
        #: the (epoch, writer_id) tag this operation installed (WRITE) or
        #: observed (READ); protocols set it before completing so history
        #: recorders can feed the multi-writer checkers.
        self.tag = None

    # -- per-message authoring hooks -----------------------------------------
    # Only the default vector triple below calls these; an operation that
    # overrides the triple need not define them.
    def start(self) -> Outgoing:
        """Invocation step: produce the first round's messages."""
        raise NotImplementedError(
            f"{type(self).__name__} defines neither start() nor "
            f"start_vector()")

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        """Consume a reply; possibly emit the next round's messages."""
        raise NotImplementedError(
            f"{type(self).__name__} defines neither on_message() nor "
            f"absorb()/advance()")

    # -- vector rounds: the contract every engine calls -----------------------
    # An engine drives many same-client operations with one frame per
    # (replica, step): inbound acks are *absorbed* (cheap recording, no
    # decisions) part by part, then each touched operation *advances*
    # once per burst -- round conditions are evaluated once over all the
    # evidence that arrived together instead of once per ack.  The
    # default implementation adapts a per-message operation by buffering
    # and replaying through :meth:`on_message`; hot operations override
    # all three with native state.

    def start_vector(self, sink: Sink, leftovers: Outgoing) -> None:
        """Invocation step for the vector engine (broadcasts to sink)."""
        split_broadcast(self.start() or [], sink, leftovers)

    def absorb(self, sender: ProcessId, message: Any) -> None:
        """Record one inbound part; decisions are deferred to advance()."""
        buffer = getattr(self, "_vector_buffer", None)
        if buffer is None:
            buffer = self._vector_buffer = []
        buffer.append((sender, message))

    def advance(self, sink: Sink, leftovers: Outgoing) -> None:
        """Evaluate round conditions once over everything absorbed."""
        buffer = getattr(self, "_vector_buffer", None)
        if not buffer:
            return
        self._vector_buffer = []
        for sender, message in buffer:
            if self.done:
                break
            split_broadcast(self.on_message(sender, message) or [],
                            sink, leftovers)

    # -- round & completion accounting ----------------------------------------
    def begin_round(self) -> None:
        """Protocols call this when they broadcast a new round."""
        self.rounds_used += 1

    def complete(self, result: Any) -> Outgoing:
        """Mark the operation finished; convenience returns no messages."""
        if self.done:
            raise ProtocolError(
                f"operation {self.operation_id} completed twice")
        self.done = True
        self._result = result
        return []

    def install_frame(self, nonce: int,
                      relocated: bool = False) -> Optional[Message]:
        """The frame installing the tuple this completed READ returned
        (``None`` for the initial value), at replicas of its own replica
        set or, ``relocated``, of another one (a shard handoff)."""
        raise ConfigurationError(f"{type(self).__name__} cannot install")

    @property
    def result(self) -> Any:
        if not self.done:
            raise ProtocolError(
                f"operation {self.operation_id} has not completed")
        return self._result

    def describe(self) -> str:
        return f"{self.kind}#{self.operation_id} by {self.client_id!r}"
