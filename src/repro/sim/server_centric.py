"""Server-centric model (Section 6): objects as first-class servers.

The data-centric model forbids base objects from messaging anyone except
in direct reply to a client request.  Section 6 lifts that restriction:
servers may talk to each other and *push* unsolicited messages to
clients.  The paper shows its lower bound survives, with a fast READ
redefined as (a) the client messages (a subset of) servers, (b) servers
reply without waiting for any other message, (c) the operation completes
on ``S - t`` such replies -- i.e. pushes delayed by asynchrony cannot
rescue a one-round read.

This module provides the push-enabled automata used by experiment E9:

* :class:`PushUpdate` -- an unsolicited server-to-reader notification;
* :class:`PushFastObject` -- a fast-read object that additionally pushes
  every write it learns to every reader;
* :class:`ServerCentricFastProtocol` -- the fast-read victim protocol in
  the server-centric model (reads also harvest pushes as evidence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..automata.base import Outgoing
from ..config import SystemConfig
from ..core.lower_bound.victims import (ALL_RULES, FastObject,
                                        FastReadOperation, FastReaderState,
                                        FastReadProtocol)
from ..messages import Message, ReadAck, W
from ..types import ProcessId, TimestampValue, reader


@dataclass(frozen=True, slots=True)
class PushUpdate(Message):
    """Unsolicited notification: "I now hold <ts, v>"."""

    object_index: int
    tsval: TimestampValue
    wire = (74, "object_index:i64 tsval:value")


class PushFastObject(FastObject):
    """Fast-read object that pushes every accepted write to all readers."""

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        before = self.tsval
        replies = super().on_message(sender, message)
        if isinstance(message, W) and self.tsval != before:
            push = PushUpdate(object_index=self.object_index,
                              tsval=self.tsval)
            replies = list(replies) + [
                (reader(j), push) for j in range(self.config.num_readers)
            ]
        return replies


class ServerCentricReadOperation(FastReadOperation):
    """Fast read that also accepts pushed updates as evidence.

    A push carries no request nonce; it is folded in as that object's
    latest opinion.  Completion still requires ``S - t`` *solicited*
    replies (the Section 6 fast-read definition); pushes merely refresh
    the values those replies contribute.
    """

    def __init__(self, state: FastReaderState, rule: str):
        super().__init__(state, rule)
        self._pushed: Dict[int, TimestampValue] = {}

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if isinstance(message, PushUpdate) and sender.is_object:
            if not self.done:
                current = self._pushed.get(sender.index)
                if current is None or message.tsval.ts > current.ts:
                    self._pushed[sender.index] = message.tsval
                    # Refresh the opinion of an object that already
                    # answered the solicited round.
                    if sender.index in self._acks:
                        stored = self._acks[sender.index]
                        if message.tsval.ts > stored.ts:
                            self._acks[sender.index] = message.tsval
            return []
        return super().on_message(sender, message)


class ServerCentricFastProtocol(FastReadProtocol):
    """The fast-read victim, server-centric edition (experiment E9)."""

    def __init__(self, rule: str = "threshold"):
        super().__init__(rule)
        self.name = f"server-centric-fast[{rule}]"

    def make_objects(self, config: SystemConfig) -> List[PushFastObject]:
        self.validate_config(config)
        return [PushFastObject(i, config) for i in range(config.num_objects)]

    def make_read(self, reader_state: FastReaderState
                  ) -> ServerCentricReadOperation:
        return ServerCentricReadOperation(reader_state, self.rule)
