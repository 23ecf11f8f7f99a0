"""Asyncio in-memory network: mailboxes drained by one delivery callback.

The simulator proves protocol properties under controlled schedules; the
asyncio runtime runs the same, unchanged automata next to real tasks
(sessions, timeouts, sockets).  Delivery follows the message-passing
model the paper is stated in -- a step is "take everything deliverable,
compute, send":

* every process id owns a :class:`Mailbox` -- parked envelopes plus at
  most one attached *consumer*, a plain function; mail for a pid without
  a consumer parks until one attaches (replica hand-over);
* :meth:`AsyncNetwork.send` appends to the receiver's mailbox and, if no
  delivery is scheduled yet, schedules **one** ``call_soon`` of the
  flush;
* the flush serves ready mailboxes in the order they woke, hands each
  consumer its whole burst, and keeps going while consumers produce more
  mail (replica acks -> client -> next round).  A consumer is never
  entered re-entrantly: mail it sends itself waits for a later turn.

Ordering: FIFO per mailbox, FIFO across ready mailboxes, hence
deterministic without jitter; ``jitter > 0`` gives every message a
seeded delay of its own before it lands in the same mailboxes.

Loop hold: one flush runs until no mailbox is ready, i.e. it does the
message work of the operations in flight and no more.  Only a
task-level ``run()``/``run_many()`` starts an operation -- both drive
the client host's one vector round engine, and a call's deadline is a
``call_later`` timer on its future -- so callers resume, and other
tasks run, between any two calls of a session.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from ..errors import TransportError
from ..types import ProcessId


@dataclass(slots=True)
class AsyncEnvelope:
    sender: ProcessId
    receiver: ProcessId
    payload: Any


#: A consumer takes one burst: every envelope parked since its last turn.
Consumer = Callable[[List[AsyncEnvelope]], None]


class Mailbox:
    """Parked envelopes for one pid and the consumer that drains them."""

    __slots__ = ("mail", "consumer", "ready")

    def __init__(self) -> None:
        self.mail: List[AsyncEnvelope] = []
        self.consumer: Optional[Consumer] = None
        #: queued for the current/next flush (at most once).
        self.ready = False

    def qsize(self) -> int:
        return len(self.mail)


def report_error(message: str, exc: BaseException) -> None:
    """Report a consumer failure through the loop's exception handler."""
    asyncio.get_running_loop().call_exception_handler(
        {"message": message, "exception": exc})


class AsyncNetwork:
    """Per-process mailboxes with optional seeded jitter and drop rules."""

    def __init__(self, jitter: float = 0.0, seed: int = 0):
        """``jitter``: maximum extra delay (seconds) per message."""
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._mailboxes: Dict[ProcessId, Mailbox] = {}
        self._crashed: Set[ProcessId] = set()
        self._pending: Set[asyncio.Task] = set()
        #: mailboxes with mail and a consumer, in the order they woke.
        self._ready: Deque[Mailbox] = deque()
        self._flush_scheduled = False
        self.messages_sent = 0

    def register(self, pid: ProcessId) -> Mailbox:
        """Bind ``pid`` to a mailbox and return it.

        Re-registering an already-known pid *hands over the existing
        mailbox* rather than dropping or shadowing it: a replacement
        host for the same process identity (replica repair, Byzantine
        swap) inherits every parked message once it attaches.
        """
        mailbox = self._mailboxes.get(pid)
        if mailbox is None:
            mailbox = self._mailboxes[pid] = Mailbox()
        return mailbox

    def inbox(self, pid: ProcessId) -> Mailbox:
        try:
            return self._mailboxes[pid]
        except KeyError:
            raise TransportError(f"process {pid!r} is not registered")

    def attach(self, pid: ProcessId, consumer: Consumer) -> None:
        """Make ``consumer`` the one drain of ``pid``'s mailbox.

        Parked mail is served from the next flush on, in arrival order.
        The previous consumer, if any, must have detached first.
        """
        mailbox = self.inbox(pid)
        if mailbox.consumer is not None and mailbox.consumer != consumer:
            raise TransportError(
                f"process {pid!r} already has a consumer attached")
        mailbox.consumer = consumer
        if mailbox.mail and not mailbox.ready:
            self._wake(mailbox)

    def detach(self, pid: ProcessId, consumer: Consumer) -> None:
        """Stop serving ``pid``; later mail parks until the next attach.

        A no-op unless ``consumer`` is the one attached, so stopping a
        host twice (or after its replacement took over) is harmless.
        """
        mailbox = self._mailboxes.get(pid)
        if mailbox is not None and mailbox.consumer == consumer:
            mailbox.consumer = None

    def crash(self, pid: ProcessId) -> None:
        """Messages to a crashed process are silently dropped."""
        self._crashed.add(pid)

    def restore(self, pid: ProcessId) -> None:
        """Lift a crash: a replacement process receives traffic again.

        Messages sent while the pid was crashed stay dropped (a crashed
        process never saw them); only delivery from now on resumes.
        """
        self._crashed.discard(pid)

    def send(self, sender: ProcessId, receiver: ProcessId,
             payload: Any) -> None:
        self.messages_sent += 1
        crashed = self._crashed
        if crashed and receiver in crashed:
            return
        envelope = AsyncEnvelope(sender, receiver, payload)
        if self.jitter <= 0:
            self._post(self.inbox(receiver), envelope)
            return
        delay = self._rng.uniform(0, self.jitter)
        task = asyncio.get_running_loop().create_task(
            self._deliver_later(envelope, delay))
        self._pending.add(task)
        task.add_done_callback(self._pending.discard)

    async def _deliver_later(self, envelope: AsyncEnvelope,
                             delay: float) -> None:
        await asyncio.sleep(delay)
        if envelope.receiver not in self._crashed:
            self._post(self.inbox(envelope.receiver), envelope)

    def _post(self, mailbox: Mailbox, envelope: AsyncEnvelope) -> None:
        mailbox.mail.append(envelope)
        if mailbox.consumer is not None and not mailbox.ready:
            self._wake(mailbox)

    def _wake(self, mailbox: Mailbox) -> None:
        mailbox.ready = True
        self._ready.append(mailbox)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)

    def _flush(self) -> None:
        """Serve ready mailboxes, FIFO, until none is ready.

        The scheduled flag stays up throughout: mail a consumer produces
        queues its receiver behind the mailboxes already waiting (itself
        included -- never recursion) instead of scheduling a second
        callback.  A raising consumer loses its burst and is reported;
        its neighbours are served regardless.
        """
        ready = self._ready
        try:
            while ready:
                mailbox = ready.popleft()
                mailbox.ready = False
                consumer = mailbox.consumer
                if consumer is None:
                    continue  # detached since it woke: the mail parks
                burst, mailbox.mail = mailbox.mail, []
                try:
                    consumer(burst)
                except Exception as exc:
                    report_error(
                        f"mailbox consumer {consumer!r} failed; "
                        f"{len(burst)} envelope(s) dropped", exc)
        finally:
            self._flush_scheduled = False

    async def drain(self) -> None:
        """Wait for all in-flight delayed deliveries (test teardown)."""
        while self._pending:
            await asyncio.gather(*list(self._pending),
                                 return_exceptions=True)
