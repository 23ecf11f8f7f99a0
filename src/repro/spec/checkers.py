"""Register-semantics checkers over operation histories.

Implements the three SWMR register specifications the paper works with
(Section 2.2, following Lamport [12]):

* **safety** -- a READ not concurrent with any WRITE returns the value of
  the last preceding WRITE (or ``⊥`` if none); concurrent READs may return
  anything;
* **regularity** -- additionally, every READ returns either ``⊥``-before-
  any-write or a value actually written, no older than the last WRITE that
  precedes it, and written by a WRITE that precedes or is concurrent with
  it;
* **atomicity** -- regularity plus no new/old inversion between
  non-concurrent READs (sufficient for SWMR linearizability).

Checkers never raise on violation by default; they return a
:class:`CheckResult` that lists every offence with a human-readable
explanation, so tests can assert cleanly and experiments can *count*
violations (the lower-bound experiment wants exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..errors import SpecificationViolation
from ..types import BOTTOM, TAG0, ProcessId, WriterTag, _Bottom
from .histories import History, OperationRecord, READ, WRITE


@dataclass
class CheckResult:
    """Outcome of a specification check."""

    property_name: str
    violations: List[str] = field(default_factory=list)
    checked_reads: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def assert_ok(self) -> None:
        if not self.ok:
            raise SpecificationViolation(
                f"{self.property_name} violated:\n  " +
                "\n  ".join(self.violations))

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violation(s)"
        return (f"CheckResult({self.property_name}: {status}, "
                f"{self.checked_reads} reads checked)")


def _is_bottom(value: Any) -> bool:
    return isinstance(value, _Bottom)


# ---------------------------------------------------------------------------
# Safety
# ---------------------------------------------------------------------------


def check_safety(history: History) -> CheckResult:
    """A READ with no concurrent WRITE returns the last written value.

    With a single writer the "last" preceding WRITE is the latest by
    invocation order; with multiple writers it is the maximal-*tag* one
    (writes not concurrent with the read are totally ordered by their
    tags, which the MWMR write paths align with real time).
    """
    result = CheckResult("safety")
    multi = history.is_multi_writer
    for read in history.reads(complete_only=True):
        if history.concurrent_writes(read):
            continue  # concurrent READs are unconstrained
        result.checked_reads += 1
        last_write = (history.last_preceding_write_by_tag(read) if multi
                      else history.last_preceding_write(read))
        expected = BOTTOM if last_write is None else last_write.argument
        if read.result != expected and not (
                _is_bottom(read.result) and _is_bottom(expected)):
            result.violations.append(
                f"{read.describe()} expected {expected!r} "
                f"(last write: "
                f"{last_write.describe() if last_write else 'none'})")
    return result


# ---------------------------------------------------------------------------
# Regularity
# ---------------------------------------------------------------------------


def check_regularity(history: History) -> CheckResult:
    """The three regularity clauses of Section 2.2.

    Multi-writer histories are delegated to the tag-based checker: with
    concurrent writers the write serialization is the total order on
    ``(epoch, writer_id)`` tags, not invocation order.
    """
    if history.is_multi_writer:
        return check_mwmr_regularity(history)
    result = CheckResult("regularity")
    writes = history.writes()
    written_values = [w.argument for w in writes]
    for read in history.reads(complete_only=True):
        result.checked_reads += 1
        value = read.result
        # Clause (1): the value was written (val_k for some k, val_0 = ⊥).
        if not _is_bottom(value) and value not in written_values:
            result.violations.append(
                f"{read.describe()} returned a value never written")
            continue
        # Clause (2): no stale read past a preceding WRITE.
        last_write = history.last_preceding_write(read)
        k_floor = (last_write.write_index or 0) if last_write else 0
        if k_floor >= 1:
            if _is_bottom(value):
                result.violations.append(
                    f"{read.describe()} returned ⊥ although "
                    f"wr_{k_floor} precedes it")
                continue
            admissible = [k for k in history.write_indices_of_value(value)
                          if k >= k_floor]
            if not admissible:
                result.violations.append(
                    f"{read.describe()} returned val_"
                    f"{history.write_indices_of_value(value)} but "
                    f"wr_{k_floor} precedes the read")
                continue
        # Clause (3): the write of the returned value precedes or is
        # concurrent with the read (no reads from the future).
        if not _is_bottom(value):
            candidates = history.write_indices_of_value(value)
            feasible = False
            for k in candidates:
                write = next(w for w in writes if w.write_index == k)
                if not read.precedes(write):
                    feasible = True
                    break
            if not feasible:
                result.violations.append(
                    f"{read.describe()} returned a value written only by "
                    f"WRITEs it strictly precedes")
    return result


# ---------------------------------------------------------------------------
# Atomicity
# ---------------------------------------------------------------------------


def check_atomicity(history: History) -> CheckResult:
    """Regularity + no new/old inversion (SWMR atomicity).

    Reads are assigned the write index they observed (resolving repeated
    values optimistically); for any two complete reads ``rd1`` preceding
    ``rd2`` the observed indices must be monotone.  Multi-writer
    histories are delegated to the tag-based checker.
    """
    if history.is_multi_writer:
        return check_mwmr_atomicity(history)
    result = check_regularity(history)
    result.property_name = "atomicity"
    if not result.ok:
        return result

    reads = history.reads(complete_only=True)

    def feasible_indices(read: OperationRecord) -> List[int]:
        if _is_bottom(read.result):
            return [0]
        ks = []
        for k in history.write_indices_of_value(read.result):
            write = next(w for w in history.writes() if w.write_index == k)
            if read.precedes(write):
                continue  # clause (3) rules it out
            ks.append(k)
        return ks or [0]

    # Greedy monotone assignment over reads sorted by invocation; sound for
    # the single-writer case because feasible index sets are intervals in
    # practice (each value written once in our workloads) -- and when a
    # value repeats, taking the maximal feasible index minimizes future
    # conflicts.
    chosen: List[tuple] = []  # (read, k)
    for read in reads:
        floor = 0
        for prev, k_prev in chosen:
            if prev.precedes(read):
                floor = max(floor, k_prev)
        ks = [k for k in feasible_indices(read) if k >= floor]
        if not ks:
            result.violations.append(
                f"new/old inversion: {read.describe()} must observe "
                f"k >= {floor} but can only observe "
                f"{feasible_indices(read)}")
            continue
        chosen.append((read, max(ks)))
    return result


# ---------------------------------------------------------------------------
# Multi-writer (tag-based) regularity and atomicity
# ---------------------------------------------------------------------------


def _check_mwmr_write_order(ordered, result: CheckResult,
                            history: History) -> None:
    """Shared MWMR write clauses: unique tags, real-time order respected.

    ``ordered`` is ``history.writes_by_tag()``, computed once by the
    caller.  The real-time clause runs in one pass: walking in tag order
    while tracking the latest-invoked earlier-tag write, any write that
    completed before that invocation is a genuine inversion witness.
    """
    seen: dict = {}
    for w in ordered:
        if w.tag in seen:
            result.violations.append(
                f"writes {seen[w.tag].describe()} and {w.describe()} "
                f"share tag {w.tag!r}")
        seen[w.tag] = w
    latest_invoked = None
    for w2 in ordered:
        if (latest_invoked is not None
                and w2.completed_seq is not None
                and w2.completed_seq < latest_invoked.invoked_seq):
            result.violations.append(
                f"{w2.describe()} precedes {latest_invoked.describe()} "
                f"in real time yet carries the larger tag {w2.tag!r}")
        if (latest_invoked is None
                or w2.invoked_seq > latest_invoked.invoked_seq):
            latest_invoked = w2
    for w in history.writes():
        if w.complete and w.tag is None:
            result.violations.append(
                f"{w.describe()} completed without reporting a write tag")


def _mwmr_read_clauses(read: OperationRecord, ordered, by_tag,
                       result: CheckResult) -> None:
    """Per-read MWMR regularity: observed tag exists, is fresh enough and
    not from the future.  ``ordered``/``by_tag`` are the tag-sorted write
    list and tag index, computed once per check.  A read that observed a
    tuple the control plane installed (replica repair, shard handoff)
    observed that tuple's original tag, which a recorded write chose."""
    tag = read.tag
    value = read.result
    if tag is None:
        result.violations.append(
            f"{read.describe()} completed without reporting an observed "
            f"tag")
        return
    # The maximal-tag completed write preceding this read: scan the
    # tag-sorted list from the top, stopping at the first hit.
    floor = None
    for w in reversed(ordered):
        if w.precedes(read):
            floor = w
            break
    if tag == TAG0:
        if not _is_bottom(value):
            result.violations.append(
                f"{read.describe()} returned a value but observed the "
                f"initial tag")
        if floor is not None:
            result.violations.append(
                f"{read.describe()} returned ⊥ although "
                f"{floor.describe()} precedes it")
        return
    source = by_tag.get(tag)
    if source is None:
        result.violations.append(
            f"{read.describe()} observed tag {tag!r} which no write "
            f"installed")
        return
    if read.result != source.argument:
        result.violations.append(
            f"{read.describe()} returned {read.result!r} but the write "
            f"with tag {tag!r} installed {source.argument!r}")
    if read.precedes(source):
        result.violations.append(
            f"{read.describe()} observed {source.describe()} which it "
            f"strictly precedes")
    if floor is not None and tag < floor.tag:
        result.violations.append(
            f"{read.describe()} observed stale tag {tag!r} although "
            f"{floor.describe()} (tag {floor.tag!r}) precedes it")


def check_mwmr_regularity(history: History) -> CheckResult:
    """Tag-based regularity for interleaved multi-writer histories.

    The write serialization is the total order on ``(epoch, writer_id)``
    tags.  Clauses: (w1) completed writes carry pairwise distinct tags
    consistent with real-time order; (r1) every read's observed tag was
    installed by a write of the returned value; (r2) the observed tag is
    at least the tag of every write preceding the read; (r3) no read
    observes a write it strictly precedes.
    """
    result = CheckResult("mwmr-regularity")
    ordered = history.writes_by_tag()
    # A pending tagged write (failed after choosing its tag) may be seen.
    by_tag = {w.tag: w for w in history.writes() if w.tag is not None}
    _check_mwmr_write_order(ordered, result, history)
    for read in history.reads(complete_only=True):
        result.checked_reads += 1
        _mwmr_read_clauses(read, ordered, by_tag, result)
    return result


def check_mwmr_atomicity(history: History) -> CheckResult:
    """MWMR regularity + monotone observed tags (linearizability).

    On top of the regularity clauses, non-concurrent reads must observe
    monotonically non-decreasing tags (no new/old inversion), which for
    tagged register histories is exactly the missing piece between
    regular and atomic.

    Fast (lease-probe) reads record their observed tag and result exactly
    like classic reads, so every clause here constrains them identically
    -- a fast read returning a stale lease value shows up as a stale-tag
    or inversion violation.  :func:`check_fast_read_freshness` isolates
    those clauses over the fast subset for targeted gating.
    """
    result = check_mwmr_regularity(history)
    result.property_name = "mwmr-atomicity"
    if not result.ok:
        return result
    reads = [(r, r.tag) for r in history.reads(complete_only=True)
             if r.tag is not None]
    for i, (r1, t1) in enumerate(reads):
        for r2, t2 in reads[i + 1:]:
            if r1.precedes(r2) and t2 < t1:
                result.violations.append(
                    f"new/old inversion: {r1.describe()} observed "
                    f"{t1!r} but the later {r2.describe()} observed "
                    f"{t2!r}")
            elif r2.precedes(r1) and t1 < t2:
                result.violations.append(
                    f"new/old inversion: {r2.describe()} observed "
                    f"{t2!r} but the later {r1.describe()} observed "
                    f"{t1!r}")
    return result


# ---------------------------------------------------------------------------
# Fast (lease-probe) reads
# ---------------------------------------------------------------------------


def check_fast_read_freshness(history: History) -> CheckResult:
    """Every fast read is as fresh as a classic one.

    Fast reads short-circuit history collection by validating a tag
    lease against a quorum; this checker re-asserts, over exactly the
    reads flagged ``fast``, the MWMR read clauses that make that sound:
    the observed tag was installed by a write of the returned value, is
    at least the tag of every write preceding the read (a lease at tag
    ``T`` must never serve a read after a write with a larger tag
    completed), and is not from the future.  Runs per register so
    multiplexed histories don't cross-contaminate write floors.

    A history with no fast reads passes vacuously with
    ``checked_reads == 0`` -- gate on that count when a test *requires*
    the fast path to have fired.
    """
    result = CheckResult("fast-read-freshness")
    for register in history.registers():
        sub = history.for_register(register)
        ordered = sub.writes_by_tag()
        by_tag = {w.tag: w for w in sub.writes() if w.tag is not None}
        for read in sub.reads(complete_only=True):
            if not read.fast:
                continue
            result.checked_reads += 1
            _mwmr_read_clauses(read, ordered, by_tag, result)
    return result


# ---------------------------------------------------------------------------
# Per-register checking (multiplexed / reconfigured histories)
# ---------------------------------------------------------------------------


def check_per_register(history: History, checker=None) -> CheckResult:
    """Run ``checker`` over every register's sub-history and merge.

    Multiplexed stores record all registers into one history, and a key
    lives wholly in one shard group at any moment.  A *reconfiguration*
    records nothing of its own: its reads are kept out of the history
    and its installs carry tuples under the original tags recorded
    writes chose, and fenced writes never complete, so they stay
    unconstrained pending operations.  Each register's consistency is
    therefore exactly its sub-history's, across a handoff too.

    ``checker`` defaults to :func:`check_regularity`; any
    ``History -> CheckResult`` callable works (e.g.
    :func:`check_mwmr_atomicity`).
    """
    if checker is None:
        checker = check_regularity
    name = getattr(checker, "__name__", str(checker))
    result = CheckResult(f"per-register {name}")
    for register in history.registers():
        sub = checker(history.for_register(register))
        result.checked_reads += sub.checked_reads
        result.violations.extend(
            f"[{register}] {violation}" for violation in sub.violations)
    return result


# ---------------------------------------------------------------------------
# Cross-register snapshot consistency
# ---------------------------------------------------------------------------


def check_snapshot_consistency(history: History) -> CheckResult:
    """Every recorded snapshot is a consistent cut of the write history.

    A snapshot's *cut* maps each key to the tag of the version it
    returned.  Against the totally tag-ordered writes of each register
    (the MWMR version order; single-writer histories are the writer-0
    special case) the cut must satisfy:

    * **validity** -- every non-``TAG0`` cut tag was installed by a write
      of that register (and, when values were recorded, the snapshot
      returned that write's value); a write invoked only after the
      snapshot responded cannot be observed;
    * **freshness** -- a write that completed before the snapshot was
      invoked is reflected: the cut tag of its register is at least its
      tag;
    * **cut closure** (the cross-register clause) -- the cut is closed
      under real-time order *across* registers: if the snapshot reflects
      a write ``w2`` and some write ``w1`` (to another snapshotted key)
      precedes ``w2``, then ``w1`` is reflected too.  This is what
      per-register regularity alone cannot give a multi-key read.

    Cut tags collected over fast (lease-probe) reads are validated by
    the same clauses -- a stale lease surviving into a snapshot shows up
    as a freshness or closure violation here.
    """
    result = CheckResult("snapshot-consistency")
    writes_by_register: dict = {}
    for w in history.writes():
        writes_by_register.setdefault(w.register, []).append(w)
    for snap in history.snapshots():
        result.checked_reads += len(snap.cut)
        reflected: List[OperationRecord] = []
        excluded: List[OperationRecord] = []
        for key, tag in snap.cut.items():
            if tag is None:
                tag = TAG0  # a tagless protocol cut: treat as initial
            writes = writes_by_register.get(key, [])
            if tag != TAG0:
                source = next((w for w in writes if w.tag == tag), None)
                if source is None:
                    result.violations.append(
                        f"{snap.describe()} returned tag {tag!r} for "
                        f"{key!r} which no write installed")
                elif source.invoked_seq >= snap.completed_seq:
                    result.violations.append(
                        f"{snap.describe()} observed {source.describe()} "
                        f"which was invoked only after the snapshot "
                        f"responded")
                elif (snap.values is not None
                        and snap.values.get(key) != source.argument):
                    result.violations.append(
                        f"{snap.describe()} returned "
                        f"{snap.values.get(key)!r} for {key!r} but the "
                        f"write with tag {tag!r} installed "
                        f"{source.argument!r}")
            for w in writes:
                if w.tag is None or w.completed_seq is None:
                    # Untagged or pending: no completion event to order
                    # against.  A pending write tagged when it failed only
                    # makes its tag valid to observe (above).
                    continue
                if w.tag <= tag:
                    reflected.append(w)
                else:
                    excluded.append(w)
                    if w.completed_seq < snap.invoked_seq:
                        result.violations.append(
                            f"{snap.describe()} returned stale tag "
                            f"{tag!r} for {key!r} although "
                            f"{w.describe()} (tag {w.tag!r}) completed "
                            f"before the snapshot began")
        if not reflected:
            continue
        # Closure in one pass: an excluded write violates the cut iff it
        # precedes *some* reflected write, i.e. iff it completed before
        # the latest reflected invocation.
        horizon = max(reflected, key=lambda w: w.invoked_seq)
        for w1 in excluded:
            if (w1.completed_seq is not None
                    and w1.completed_seq < horizon.invoked_seq):
                witness = next(
                    w2 for w2 in reflected
                    if w1.completed_seq < w2.invoked_seq)
                result.violations.append(
                    f"{snap.describe()} is not a consistent cut: it "
                    f"reflects {witness.describe()} (tag "
                    f"{witness.tag!r} <= cut[{witness.register!r}]) but "
                    f"excludes {w1.describe()} (tag {w1.tag!r} > "
                    f"cut[{w1.register!r}]) which precedes it")
    return result


# ---------------------------------------------------------------------------
# Wait-freedom
# ---------------------------------------------------------------------------


def check_wait_freedom(history: History,
                       crashed_clients: Optional[set] = None) -> CheckResult:
    """Every operation by a non-crashed client completed."""
    crashed = crashed_clients or set()
    result = CheckResult("wait-freedom")
    for record in history.operations():
        if record.client in crashed:
            continue
        result.checked_reads += 1
        if not record.complete:
            result.violations.append(
                f"{record.describe()} never completed although "
                f"{record.client!r} did not crash")
    return result


# ---------------------------------------------------------------------------
# Round complexity
# ---------------------------------------------------------------------------


def check_round_complexity(history: History, max_read_rounds: int,
                           max_write_rounds: int) -> CheckResult:
    """Every complete operation used at most the advertised rounds."""
    result = CheckResult("round-complexity")
    for record in history.operations():
        if not record.complete:
            continue
        result.checked_reads += 1
        bound = max_read_rounds if record.kind == READ else max_write_rounds
        if record.rounds_used > bound:
            result.violations.append(
                f"{record.describe()} used {record.rounds_used} rounds "
                f"(bound {bound})")
    return result
