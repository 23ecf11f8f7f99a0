"""Automata of the atomic (write-back) extension."""

from __future__ import annotations

from typing import Any, List, Set

from ...automata.base import Sink
from ...config import SystemConfig
from ...messages import WriteBack, WriteBackAck
from ...protocols import ATOMIC
from ...types import TAG0, ProcessId
from ..regular import (RegularObject, RegularReaderState,
                       RegularReadOperation, RegularStorageProtocol)
from ..regular.reader import PHASE_WRITE_BACK


class AtomicObject(RegularObject):
    """The regular object, which already installs write-backs."""


class AtomicReadOperation(RegularReadOperation):
    """Regular read + a write-back round before returning (2-3 rounds)."""

    def __init__(self, state: RegularReaderState):
        super().__init__(state, cached=False)
        self._chosen: Any = None
        self._wb_nonce: int = 0
        self._wb_ackers: Set[int] = set()

    # ------------------------------------------------------------------
    def absorb(self, sender: ProcessId, message: Any) -> None:
        if self.done or not sender.is_object:
            return
        if isinstance(message, WriteBackAck):
            if (self.phase == PHASE_WRITE_BACK
                    and message.nonce == self._wb_nonce
                    and message.register_id == self.register_id):
                self._wb_ackers.add(sender.index)
            return
        super().absorb(sender, message)

    def advance(self, sink: Sink, leftovers: Outgoing) -> None:
        if self.done:
            return
        if self.phase == PHASE_WRITE_BACK:
            if len(self._wb_ackers) >= self.config.quorum_size:
                self.tag = self._chosen.tag
                # Write-back reached a quorum: the chosen tuple is now
                # quorum-held, which is exactly the certification a lease
                # needs under *atomic* semantics.
                self._grant(self._chosen)
                self.complete(self._chosen.tsval.value)
            return
        super().advance(sink, leftovers)

    # ------------------------------------------------------------------
    def _maybe_return(self, sink: Sink) -> None:
        if self.done or self.phase == PHASE_WRITE_BACK:
            return
        candidate = self.evidence.returnable()
        if candidate is None:
            return
        if candidate.tag >= self.state.cache_tag:
            self.state.cache_tag = candidate.tag
            self.state.cache_value = candidate.tsval.value
        if candidate.tag == TAG0:
            # The initial tuple is held by every correct object already;
            # writing it back would add nothing.
            self.tag = TAG0
            self.complete(candidate.tsval.value)
            return
        self.phase = PHASE_WRITE_BACK
        self._chosen = candidate
        self.state.tsr += 1        # fresh nonce from the reader's clock
        self._wb_nonce = self.state.tsr
        self.begin_round()
        sink.append(WriteBack(c=candidate, nonce=self._wb_nonce,
                              reader_index=self.reader_index,
                              register_id=self.register_id))

    def describe(self) -> str:
        return (f"ATOMIC-READ#{self.operation_id} by "
                f"r{self.reader_index + 1}")


class AtomicStorageProtocol(RegularStorageProtocol):
    """Atomic SWMR storage: regular protocol + reader write-back.

    READ worst case is 3 rounds; WRITE stays at 2.  See the package
    docstring for status and caveats.
    """

    name = "gv-atomic-ext"
    semantics = ATOMIC
    read_rounds_worst_case = 3
    cached_reads = False

    def make_objects(self, config: SystemConfig) -> List[AtomicObject]:
        self.validate_config(config)
        return [AtomicObject(i, config) for i in range(config.num_objects)]

    def make_read(self, reader_state: RegularReaderState
                  ) -> AtomicReadOperation:
        return AtomicReadOperation(reader_state)
