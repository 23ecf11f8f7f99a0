"""Core value types shared by every protocol in the library.

The vocabulary follows Section 2 of the paper:

* processes are the single *writer* ``w``, *readers* ``r1..rR`` and base
  *objects* ``s1..sS`` (:class:`ProcessId`);
* the writer tags each written value with an integer *timestamp*, forming a
  *timestamp-value pair* (:class:`TimestampValue`, the ``pw`` field of the
  paper's objects);
* the second write round installs a *write tuple* ``w = <tsval, tsrarray>``
  where ``tsrarray[i][j]`` is the reader-``j`` timestamp that object ``s_i``
  reported to the writer during the first write round
  (:class:`WriteTuple` / :class:`TsrArray`).

All value types are immutable and hashable: the reader algorithms keep
*sets* of candidate write tuples, and the simulator requires that nothing a
protocol puts in a message can be mutated after sending.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, Iterator, NamedTuple, Optional,
                    Tuple, Union)


class _Bottom:
    """The initial register value ``⊥`` (Section 2.2).

    ``BOTTOM`` is not a valid input to WRITE; a READ that returns it is
    reporting that no WRITE has (observably) completed.  A dedicated
    singleton type keeps it distinct from ``None`` (which protocols use for
    "no entry") and from any user payload.
    """

    _instance: Optional["_Bottom"] = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __reduce__(self) -> Tuple[type, tuple]:
        return (_Bottom, ())


#: The initial value of every emulated register.
BOTTOM = _Bottom()

#: The register every legacy single-register API addresses.  Multi-register
#: callers pass explicit ids; everything defaulted keeps behaving exactly as
#: the pre-multiplexing library did.
DEFAULT_REGISTER = "r0"


# ---------------------------------------------------------------------------
# Writer tags (multi-writer timestamps)
# ---------------------------------------------------------------------------


class WriterTag(NamedTuple):
    """The ordered ``(epoch, writer_id)`` tag that totally orders writes.

    The classic MWMR extension of timestamp arbitration: writers discover
    the highest epoch a quorum has seen, bump it, and break epoch ties by
    their (globally unique) writer id.  Being a ``NamedTuple`` the tag
    compares lexicographically for free and hashes like a tuple.  The
    single-writer library is the special case ``writer_id == 0``
    throughout: every single-writer state and test behaves as writer 0.
    """

    epoch: int
    writer_id: int = 0

    def next_for(self, writer_id: int) -> "WriterTag":
        """The tag a writer picks after observing this as the maximum."""
        return WriterTag(self.epoch + 1, writer_id)

    def __repr__(self) -> str:
        if self.writer_id == 0:
            return f"tag({self.epoch})"
        return f"tag({self.epoch}.{self.writer_id})"


#: The tag of the initial value ``⊥`` (epoch 0, writer 0).
TAG0 = WriterTag(0, 0)


def as_tag(value: Union["WriterTag", int, Tuple[int, int], None]
           ) -> Optional[WriterTag]:
    """Normalize a timestamp or tag to a :class:`WriterTag`.

    Single-writer call sites carry bare integer timestamps; they map to
    ``(ts, writer 0)``.  ``None`` passes through (optional fields).
    """
    if value is None or isinstance(value, WriterTag):
        return value
    if isinstance(value, int):
        return WriterTag(value, 0)
    return WriterTag(*value)


# ---------------------------------------------------------------------------
# Process identities
# ---------------------------------------------------------------------------

ROLE_WRITER = "writer"
ROLE_READER = "reader"
ROLE_OBJECT = "object"

_VALID_ROLES = (ROLE_WRITER, ROLE_READER, ROLE_OBJECT)


@dataclass(frozen=True, order=True)
class ProcessId:
    """Identity of a process in the system.

    ``index`` is zero-based internally (the paper writes ``s_1 .. s_S``;
    we write ``obj(0) .. obj(S-1)``).  The paper's model has the single
    writer ``writer(0)``; the MWMR extension admits writers of any index,
    each with a globally unique writer id used in tag arbitration.
    """

    role: str
    index: int

    def __post_init__(self) -> None:
        if self.role not in _VALID_ROLES:
            raise ValueError(f"unknown process role: {self.role!r}")
        if self.index < 0:
            raise ValueError(f"negative process index: {self.index}")

    # -- convenience predicates ------------------------------------------
    @property
    def is_object(self) -> bool:
        return self.role == ROLE_OBJECT

    @property
    def is_reader(self) -> bool:
        return self.role == ROLE_READER

    @property
    def is_writer(self) -> bool:
        return self.role == ROLE_WRITER

    @property
    def is_client(self) -> bool:
        """Clients are the writer and the readers (Section 2)."""
        return self.role != ROLE_OBJECT

    def __hash__(self) -> int:
        # Process ids key every inbox, slot and grouping dict on the hot
        # path; both fields are immutable, so hash once.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.role, self.index))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, Any]:
        # Never pickle the lazily cached hash: state fingerprints compare
        # pickled bytes, and equal ids must pickle identically.
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def __repr__(self) -> str:
        prefix = {"writer": "w", "reader": "r", "object": "s"}[self.role]
        if self.is_writer:
            # The classic single writer keeps its historical name "w";
            # additional MWMR writers are numbered like readers/objects.
            return "w" if self.index == 0 else f"w{self.index + 1}"
        return f"{prefix}{self.index + 1}"


@functools.lru_cache(maxsize=None)
def obj(i: int) -> ProcessId:
    """The base object ``s_{i+1}`` (zero-based index ``i``).

    Memoized: broadcast rounds construct the same ids over and over, and
    ids are immutable value objects safe to share.
    """
    return ProcessId(ROLE_OBJECT, i)


@functools.lru_cache(maxsize=None)
def reader(j: int) -> ProcessId:
    """The reader ``r_{j+1}`` (zero-based index ``j``)."""
    return ProcessId(ROLE_READER, j)


@functools.lru_cache(maxsize=None)
def writer(k: int = 0) -> ProcessId:
    """The writer with id ``k`` (``writer(0)`` is the paper's ``w``)."""
    return ProcessId(ROLE_WRITER, k)


#: The classic single writer process (= ``writer(0)``).
WRITER = ProcessId(ROLE_WRITER, 0)


# ---------------------------------------------------------------------------
# Timestamps and values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimestampValue:
    """A timestamp-value pair ``<(ts, wid), v>`` -- the object's ``pw`` field.

    ``ts`` is the writer's epoch and ``wid`` the writer id; together they
    form the :class:`WriterTag` that totally orders writes (``wid`` breaks
    epoch ties between concurrent writers).  The single-writer library is
    the ``wid == 0`` special case, so every legacy constructor call keeps
    its meaning.  Equality compares all fields (the safety argument
    distinguishes ``<k, val_k>`` from a forged ``<k, v'>``); ordering is
    by tag first with ties broken on the value's ``repr`` so ordering
    stays total for heterogeneous payloads.
    """

    ts: int
    value: Any
    wid: int = 0

    @property
    def tag(self) -> WriterTag:
        # Hot path: object guards and candidate ordering compare tags on
        # every message; the pair is immutable, so build it once.
        cached = self.__dict__.get("_tag")
        if cached is None:
            cached = WriterTag(self.ts, self.wid)
            object.__setattr__(self, "_tag", cached)
        return cached

    def _order_key(self) -> Tuple[int, int, str]:
        return (self.ts, self.wid, repr(self.value))

    def __lt__(self, other: "TimestampValue") -> bool:
        return self._order_key() < other._order_key()

    def __le__(self, other: "TimestampValue") -> bool:
        return self._order_key() <= other._order_key()

    def __gt__(self, other: "TimestampValue") -> bool:
        return self._order_key() > other._order_key()

    def __ge__(self, other: "TimestampValue") -> bool:
        return self._order_key() >= other._order_key()

    def __post_init__(self) -> None:
        if self.ts < 0:
            raise ValueError("timestamps are non-negative integers")
        if self.wid < 0:
            raise ValueError("writer ids are non-negative integers")
        if self.ts == 0 and not isinstance(self.value, _Bottom):
            raise ValueError("timestamp 0 is reserved for the initial value ⊥")
        if self.ts > 0 and isinstance(self.value, _Bottom):
            raise ValueError("⊥ is not a valid input value for a WRITE")

    def __hash__(self) -> int:
        # Hot path: candidate sets and history maps hash pairs constantly;
        # all fields are immutable, so compute once and stash the result.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.ts, self.wid, self.value))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, Any]:
        # Cached fields are lazily populated and process-local (string
        # hashing is seeded) and must not leak into pickles: state
        # fingerprints compare pickled bytes, so lazily cached fields
        # would make equal states diverge.
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_hash", "_tag")}

    def __repr__(self) -> str:
        if self.wid:
            return f"<{self.ts}.{self.wid},{self.value!r}>"
        return f"<{self.ts},{self.value!r}>"


#: ``pw_0 = <0, ⊥>`` -- the initial timestamp-value pair of every object.
INITIAL_TSVAL = TimestampValue(0, BOTTOM)


class TsrArray:
    """Immutable ``S x R`` array of reader timestamps (``tsrarray``).

    Entry ``(i, j)`` is the timestamp of reader ``r_{j+1}`` that object
    ``s_{i+1}`` reported to the writer in the PW round, or ``None`` (the
    paper's ``nil``) if the writer received no PW-ack from that object.

    The array is stored as a tuple of rows so instances are hashable and can
    participate in candidate *sets*; use :meth:`with_row` to derive updated
    copies.
    """

    __slots__ = ("_rows", "_hash")

    def __init__(self,
                 rows: Tuple[Tuple[Optional[int], ...], ...]) -> None:
        self._rows = rows
        self._hash: Optional[int] = None

    # -- constructors -----------------------------------------------------
    @classmethod
    def empty(cls, num_objects: int, num_readers: int) -> "TsrArray":
        """The paper's ``inittsrarray``: every entry ``nil``."""
        row = (None,) * num_readers
        return cls(tuple(row for _ in range(num_objects)))

    @classmethod
    def from_lists(
            cls, rows: Iterable[Iterable[Optional[int]]]) -> "TsrArray":
        return cls(tuple(tuple(r) for r in rows))

    # -- accessors ---------------------------------------------------------
    @property
    def num_objects(self) -> int:
        return len(self._rows)

    @property
    def num_readers(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    def get(self, i: int, j: int) -> Optional[int]:
        """``tsrarray[i][j]`` with zero-based indices."""
        return self._rows[i][j]

    def row(self, i: int) -> Tuple[Optional[int], ...]:
        return self._rows[i]

    def column(self, j: int) -> Tuple[Optional[int], ...]:
        """All objects' reported timestamps for reader ``j``."""
        return tuple(r[j] for r in self._rows)

    def non_nil_rows_for_reader(self, j: int) -> Tuple[int, ...]:
        """Indices ``i`` with a non-nil entry for reader ``j``."""
        return tuple(i for i, r in enumerate(self._rows) if r[j] is not None)

    # -- derivation --------------------------------------------------------
    def with_row(self, i: int, row: Tuple[Optional[int], ...]) -> "TsrArray":
        """A copy with row ``i`` replaced (used by the writer's PW acks)."""
        if len(row) != self.num_readers:
            raise ValueError("row width must equal the number of readers")
        rows = list(self._rows)
        rows[i] = tuple(row)
        return TsrArray(tuple(rows))

    def with_entry(self, i: int, j: int, value: Optional[int]) -> "TsrArray":
        row = list(self._rows[i])
        row[j] = value
        return self.with_row(i, tuple(row))

    # -- dunder ------------------------------------------------------------
    def __iter__(self) -> Iterator[Tuple[Optional[int], ...]]:
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TsrArray) and self._rows == other._rows

    def __hash__(self) -> int:
        # Candidate-set bookkeeping hashes the same arrays over and over;
        # rows are immutable, so the hash is computed once.
        if self._hash is None:
            self._hash = hash(self._rows)
        return self._hash

    def __getstate__(
            self) -> Tuple[Tuple[Tuple[Optional[int], ...], ...]]:
        # Wrapped in a 1-tuple (a bare empty rows tuple would be falsy and
        # skip __setstate__); never pickle the process-local hash cache.
        return (self._rows,)

    def __setstate__(
            self,
            state: Tuple[Tuple[Tuple[Optional[int], ...], ...]]) -> None:
        (self._rows,) = state
        self._hash = None

    def __repr__(self) -> str:
        populated = sum(
            1 for r in self._rows for cell in r if cell is not None
        )
        return f"TsrArray({self.num_objects}x{self.num_readers}, {populated} set)"

    def entries(self) -> Iterator[Tuple[int, int, Optional[int]]]:
        """Iterate ``(i, j, value)`` over all cells."""
        for i, r in enumerate(self._rows):
            for j, cell in enumerate(r):
                yield i, j, cell


@dataclass(frozen=True)
class WriteTuple:
    """The object's ``w`` field: ``<tsval, tsrarray>`` (Section 4.1).

    ``tsval`` is the timestamp-value pair installed by the write with
    timestamp ``tsval.ts``; ``tsrarray`` is the snapshot of reader
    timestamps the writer gathered in that write's PW round.  The reader's
    *conflict* predicate inspects ``tsrarray`` to unmask malicious objects
    that claim to have seen reader timestamps from the future.
    """

    tsval: TimestampValue
    tsrarray: TsrArray

    @property
    def ts(self) -> int:
        return self.tsval.ts

    @property
    def tag(self) -> WriterTag:
        return self.tsval.tag

    @property
    def value(self) -> Any:
        return self.tsval.value

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.tsval, self.tsrarray))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, Any]:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def __repr__(self) -> str:
        return f"W({self.tsval!r})"


@functools.lru_cache(maxsize=65536)
def intern_write_tuple(tsval: TimestampValue,
                       tsrarray: TsrArray) -> WriteTuple:
    """One shared :class:`WriteTuple` per ``(tag, shape)`` contents.

    Wire decoding re-materializes the same logical write tuple once per
    replica per round; interning makes those decodes pointer-equal, so
    candidate-set membership, history lookups and equality checks on the
    reader's hot path hit the identity fast path exactly as they do on
    the in-memory transport (where every replica shares the writer's one
    instance).  Bounded: pathological workloads fall back to fresh
    instances rather than growing without bound.
    """
    return WriteTuple(tsval, tsrarray)


@functools.lru_cache(maxsize=None)
def initial_write_tuple(num_objects: int, num_readers: int) -> WriteTuple:
    """``w_0 = <<0, ⊥>, inittsrarray>`` -- initial ``w`` field of objects.

    Memoized: the tuple is immutable and every register slot of every
    object starts from it, so multiplexed stores share one instance per
    system shape (identity-equal values also make candidate-set lookups
    hit the pointer fast path).
    """
    return WriteTuple(INITIAL_TSVAL, TsrArray.empty(num_objects, num_readers))


# ---------------------------------------------------------------------------
# Fresh-name helpers
# ---------------------------------------------------------------------------

_op_counter = itertools.count(1)


def fresh_operation_id() -> int:
    """Process-wide unique operation identifiers for tracing."""
    return next(_op_counter)


def reset_operation_ids(start: int = 1) -> None:
    """Restart the operation-id stream (chaos-harness replay only).

    Operation ids double as protocol nonces, so they end up inside
    automaton and client state; two otherwise identical runs in one
    process would differ just because the global stream advanced.  The
    chaos harness resets the stream before each run so that the same
    ``(seed, scenario)`` pair produces a bit-identical state
    fingerprint.  Never call this while a system built earlier in the
    process is still running: id reuse *within* one system could
    cross-match a stale in-flight nonce.
    """
    global _op_counter
    _op_counter = itertools.count(start)
