"""Operation histories: the raw material of every correctness check.

A :class:`History` is the externally observable part of a run -- for each
operation its client, kind, argument/result and the *order* of invocation
and response events.  Precedence follows Section 2.2: ``op1`` precedes
``op2`` iff ``op1``'s response event occurs before ``op2``'s invocation
event; operations neither of which precedes the other are *concurrent*.

Ordering uses a global event sequence number rather than virtual time:
distinct events may share a virtual timestamp (zero-delay schedules), but
the kernel processes them in a definite order, and that order is what the
definitions quantify over.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..types import BOTTOM, DEFAULT_REGISTER, ProcessId, WriterTag

READ = "READ"
WRITE = "WRITE"


@dataclass
class OperationRecord:
    """One operation's observable lifecycle."""

    operation_id: int
    client: ProcessId
    kind: str
    invoked_seq: int
    invoked_at: float
    argument: Any = None          # value written (WRITE only)
    result: Any = None            # value returned (set on completion)
    completed_seq: Optional[int] = None
    completed_at: Optional[float] = None
    rounds_used: int = 0
    write_index: Optional[int] = None  # k for the k-th WRITE (1-based)
    register: str = DEFAULT_REGISTER   # the register the op addressed
    #: the (epoch, writer_id) tag installed (WRITE) / observed (READ);
    #: recorded at completion, None when the protocol does not report one.
    tag: Optional[WriterTag] = None
    #: whether a READ completed on the fast (lease-probe) path; fast reads
    #: are held to the same clauses as classic ones by every checker, and
    #: the flag lets tests/benches assert that specifically.
    fast: bool = False

    @property
    def complete(self) -> bool:
        return self.completed_seq is not None

    def precedes(self, other: "OperationRecord") -> bool:
        """Response of self before invocation of other (Section 2.2)."""
        return (self.completed_seq is not None
                and self.completed_seq < other.invoked_seq)

    def concurrent_with(self, other: "OperationRecord") -> bool:
        return not self.precedes(other) and not other.precedes(self)

    def describe(self) -> str:
        span = (f"[{self.invoked_seq}..{self.completed_seq}]"
                if self.complete else f"[{self.invoked_seq}..pending]")
        tag = "" if self.register == DEFAULT_REGISTER else \
            f"@{self.register} "
        if self.kind == WRITE:
            return (f"WRITE#{self.operation_id}({self.argument!r}) {tag}"
                    f"k={self.write_index} {span}")
        return f"READ#{self.operation_id} {tag}-> {self.result!r} {span}"


@dataclass
class SnapshotRecord:
    """One multi-key snapshot's observable lifecycle and returned cut.

    A snapshot is a composite operation: many per-register reads whose
    results are published together as one consistent *cut* (register ->
    observed :class:`~repro.types.WriterTag`).  The record keeps the
    snapshot's own invocation/response events -- spanning all component
    reads -- and the cut, which is what
    :func:`~repro.spec.checkers.check_snapshot_consistency` validates
    against the write history.
    """

    snapshot_id: int
    client: Optional[ProcessId]
    invoked_seq: int
    completed_seq: int
    #: register -> tag of the version the snapshot returned (TAG0 = ⊥).
    cut: Dict[str, WriterTag]
    #: register -> value returned, when the recorder kept them.
    values: Optional[Dict[str, Any]] = None

    def precedes(self, other: "OperationRecord") -> bool:
        return self.completed_seq < other.invoked_seq

    def describe(self) -> str:
        keys = ",".join(sorted(self.cut))
        return (f"SNAPSHOT#{self.snapshot_id}[{keys}] "
                f"[{self.invoked_seq}..{self.completed_seq}]")


class History:
    """An append-only collection of operation records."""

    def __init__(self) -> None:
        self._records: Dict[int, OperationRecord] = {}
        self._seq = itertools.count(1)
        self._write_count = 0
        self._snapshots: List[SnapshotRecord] = []
        self._snapshot_count = 0

    # -- recording ----------------------------------------------------------
    def record_invocation(self, operation_id: int, client: ProcessId,
                          kind: str, argument: Any = None,
                          at: float = 0.0,
                          write_index: Optional[int] = None,
                          register: str = DEFAULT_REGISTER,
                          ) -> OperationRecord:
        if operation_id in self._records:
            raise ValueError(f"operation {operation_id} invoked twice")
        if kind == WRITE and write_index is None:
            # Recorders that don't track the paper's wr_k numbering (the
            # service tier) get invocation-order indices assigned here,
            # which is exactly wr_k for single-writer histories; the
            # multi-writer checkers order by tag and ignore these.
            self._write_count += 1
            write_index = self._write_count
        record = OperationRecord(
            operation_id=operation_id,
            client=client,
            kind=kind,
            invoked_seq=next(self._seq),
            invoked_at=at,
            argument=argument,
            write_index=write_index,
            register=register,
        )
        self._records[operation_id] = record
        return record

    def discard_invocation(self, operation_id: int) -> None:
        """Remove the record of an operation that never actually started.

        Admission-time recorders (the service tier) may roll an operation
        back before its first message is sent -- e.g. a batch rejected by
        backpressure.  Externally no invocation event happened, so the
        record must go; completed operations are immutable history and
        refuse removal.
        """
        record = self._records.get(operation_id)
        if record is None:
            return
        if record.complete:
            raise ValueError(
                f"operation {operation_id} completed; refusing to discard")
        del self._records[operation_id]

    def record_completion(self, operation_id: int, result: Any,
                          at: float = 0.0,
                          rounds_used: int = 0,
                          tag: Optional[WriterTag] = None,
                          fast: bool = False,
                          ) -> OperationRecord:
        record = self._records[operation_id]
        if record.complete:
            raise ValueError(f"operation {operation_id} completed twice")
        record.completed_seq = next(self._seq)
        record.completed_at = at
        record.result = result
        record.rounds_used = rounds_used
        record.tag = tag
        record.fast = fast
        return record

    def record_tag(self, operation_id: int, tag: WriterTag) -> None:
        """Tag a pending write that failed after choosing ``tag``: the
        MWMR checkers then count it as possibly effective."""
        record = self._records.get(operation_id)
        if (record is not None and record.kind == WRITE
                and not record.complete):
            record.tag = tag

    # -- snapshot recording -------------------------------------------------
    def mark(self) -> int:
        """Allocate one event in the global order and return its number.

        Composite operations (snapshots) call this at *invocation* time so
        their span covers every component read recorded afterwards; the
        matching response event is allocated by :meth:`record_snapshot`.
        """
        return next(self._seq)

    def record_snapshot(self, invoked_seq: int,
                        cut: Dict[str, WriterTag],
                        values: Optional[Dict[str, Any]] = None,
                        client: Optional[ProcessId] = None
                        ) -> SnapshotRecord:
        """Record a completed snapshot; its response event is allocated now.

        ``invoked_seq`` must come from :meth:`mark` called before the
        snapshot's first component read, so precedence against writes is
        exactly the snapshot's real span.
        """
        self._snapshot_count += 1
        record = SnapshotRecord(
            snapshot_id=self._snapshot_count,
            client=client,
            invoked_seq=invoked_seq,
            completed_seq=next(self._seq),
            cut=dict(cut),
            values=dict(values) if values is not None else None,
        )
        self._snapshots.append(record)
        return record

    def snapshots(self) -> List[SnapshotRecord]:
        return list(self._snapshots)

    def has_record(self, operation_id: int) -> bool:
        return operation_id in self._records

    # -- queries ----------------------------------------------------------------
    def operations(self) -> List[OperationRecord]:
        return sorted(self._records.values(), key=lambda r: r.invoked_seq)

    def reads(self, complete_only: bool = False) -> List[OperationRecord]:
        return [r for r in self.operations()
                if r.kind == READ and (r.complete or not complete_only)]

    def writes(self) -> List[OperationRecord]:
        """All WRITEs in invocation order (= the paper's wr_1, wr_2, ...)."""
        return [r for r in self.operations() if r.kind == WRITE]

    def get(self, operation_id: int) -> OperationRecord:
        return self._records[operation_id]

    def value_of_write(self, k: int) -> Any:
        """``val_k``; ``val_0 = ⊥``."""
        if k == 0:
            return BOTTOM
        for record in self.writes():
            if record.write_index == k:
                return record.argument
        raise KeyError(f"no write with index {k}")

    def write_indices_of_value(self, value: Any) -> List[int]:
        """All ``k >= 1`` with ``val_k == value`` (values may repeat)."""
        return [r.write_index for r in self.writes()
                if r.argument == value and r.write_index is not None]

    def last_preceding_write(self, read: OperationRecord
                             ) -> Optional[OperationRecord]:
        """The wr_k with maximal k that precedes ``read``, if any."""
        preceding = [w for w in self.writes() if w.precedes(read)]
        if not preceding:
            return None
        return max(preceding, key=lambda w: w.write_index or 0)

    def concurrent_writes(self, read: OperationRecord
                          ) -> List[OperationRecord]:
        return [w for w in self.writes() if w.concurrent_with(read)]

    # -- multi-writer views --------------------------------------------------
    @property
    def is_multi_writer(self) -> bool:
        """Whether WRITEs were issued by more than one client process."""
        return len({w.client for w in self.writes()}) > 1

    def writes_by_tag(self) -> List[OperationRecord]:
        """Completed tagged WRITEs in tag order -- the MWMR version order.

        Tags are totally ordered (epoch first, writer id tie-break), so
        this is the serialization the multi-writer checkers validate reads
        against.  Untagged or incomplete writes are excluded; the
        tag-aware checkers flag them separately where it matters.
        """
        tagged = [w for w in self.writes()
                  if w.tag is not None and w.complete]
        return sorted(tagged, key=lambda w: w.tag)

    def last_preceding_write_by_tag(self, read: OperationRecord
                                    ) -> Optional[OperationRecord]:
        """The maximal-*tag* completed write preceding ``read`` (MWMR)."""
        preceding = [w for w in self.writes_by_tag() if w.precedes(read)]
        return preceding[-1] if preceding else None

    # -- per-register views -------------------------------------------------
    def registers(self) -> List[str]:
        """All register ids operations in this history addressed."""
        return sorted({r.register for r in self._records.values()})

    def for_register(self, register: str) -> "History":
        """The sub-history of operations addressing one register.

        Event sequence numbers and write indices are preserved (they are
        globally unique), so precedence within the sub-history is exactly
        precedence in the full history restricted to that register --
        which is what per-register safety/regularity/atomicity quantify
        over when many registers share a replica set.
        """
        sub = History()
        sub._records = {op_id: record
                        for op_id, record in self._records.items()
                        if record.register == register}
        return sub

    def render(self) -> str:
        return "\n".join(record.describe() for record in self.operations())

    def __len__(self) -> int:
        return len(self._records)
