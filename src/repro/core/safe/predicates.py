"""The reader-side predicates of Figure 4 (definitions block, lines 1-5).

These are kept in their own module because they carry the entire
intellectual weight of the protocol:

* :func:`conflicts` -- the *conflict* relation between responders: object
  ``k`` is in conflict with object ``i`` when ``k`` exhibited a candidate
  tuple whose ``tsrarray`` claims ``i`` reported a reader timestamp from
  the future.  At least one of the two is malicious (Lemma 1).
* :func:`exists_conflict_free_quorum` -- the round-1 termination condition
  (line 11): some ``>= S - t`` subset of responders is pairwise
  conflict-free.
* :class:`CandidateTracker` -- the sets ``C``, ``RW``, ``RPW``,
  ``FirstRW`` and the derived predicates ``safe(c)``, ``highCand(c)``
  and the elimination rule ``|RespondedWO(c)| >= t + b + 1``.

The subset search in :func:`exists_conflict_free_quorum` is exact: vertices
untouched by any conflict are always eligible, and a bounded
branch-and-bound computes the maximum independent set among the (few)
conflicted vertices.  Conflicts only exist when Byzantine objects actively
accuse, so the conflicted subgraph has at most a handful of vertices in any
legal run.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, FrozenSet, Iterable, List,
                    Optional, Set, Tuple, Union)

from ...types import TimestampValue, WriteTuple


# ---------------------------------------------------------------------------
# Conflict relation and round-1 termination (lines 1, 5, 11)
# ---------------------------------------------------------------------------


def conflict_pairs(candidates: Iterable[WriteTuple],
                   first_rw: Union[Dict[WriteTuple, Set[int]],
                                   Callable[[], Dict[WriteTuple,
                                                     Set[int]]]],
                   reader_index: int,
                   tsr_first_round: int) -> Set[Tuple[int, int]]:
    """All pairs ``(i, k)`` with ``conflict(i, k)`` true (line 1).

    ``conflict(i, k) ::= ∃c ∈ C : k ∈ FirstRW(c) ∧
    c.tsrarray[i][j] > tsrFR``.  The pair is *directed* in the definition
    (``k`` accuses ``i``), but the round-1 condition quantifies over both
    orders, so callers treat the relation symmetrically.

    ``first_rw`` may be passed as a zero-argument callable: accusations
    only exist when a Byzantine object forged a future reader timestamp,
    so in the overwhelmingly common conflict-free case the exhibitor map
    is never materialized at all.
    """
    pairs: Set[Tuple[int, int]] = set()
    first_rw_map: Optional[Dict[WriteTuple, Set[int]]] = \
        None if callable(first_rw) else first_rw
    for c in candidates:
        accused = [i for i, row in enumerate(c.tsrarray)
                   if row[reader_index] is not None
                   and row[reader_index] > tsr_first_round]
        if not accused:
            continue
        if first_rw_map is None:
            first_rw_map = first_rw()
        accusers = first_rw_map.get(c)
        if not accusers:
            continue
        for i in accused:
            for k in accusers:
                pairs.add((i, k))
    return pairs


def _max_independent_set_size(vertices: List[int],
                              adjacency: Dict[int, Set[int]],
                              needed: int) -> int:
    """Size of a maximum independent set, early-exiting at ``needed``.

    Classic branching on a highest-degree vertex; the conflicted subgraph
    is tiny (each edge implicates a Byzantine object) so this is cheap.
    """
    if needed <= 0:
        return 0
    best = 0
    vertices = sorted(vertices, key=lambda v: -len(adjacency[v]))

    def branch(remaining: FrozenSet[int], size: int) -> None:
        nonlocal best
        if size + len(remaining) <= best:
            return
        if not remaining:
            best = max(best, size)
            return
        if best >= needed:
            return
        # Pick the remaining vertex with most remaining neighbours.
        pivot = max(remaining,
                    key=lambda v: len(adjacency[v] & remaining))
        neighbours = adjacency[pivot] & remaining
        if not neighbours:
            branch(remaining - {pivot}, size + 1)
            return
        # Either include pivot (dropping its neighbours) or exclude it.
        branch(remaining - neighbours - {pivot}, size + 1)
        branch(remaining - {pivot}, size)

    branch(frozenset(vertices), 0)
    return best


def exists_conflict_free_quorum(responders: Set[int],
                                pairs: Set[Tuple[int, int]],
                                quorum: int) -> bool:
    """Line 11: is there ``Resp1OK ⊆ Resp1`` of size ``>= S - t`` with no
    internal conflict?

    Self-accusations ``(i, i)`` disqualify the vertex outright.  Conflict
    pairs touching objects outside ``responders`` impose nothing here --
    the subset is drawn from responders only.
    """
    if len(responders) < quorum:
        return False
    if not pairs:
        # No Byzantine accusations in flight -- the overwhelmingly common
        # case; every responder subset is conflict-free.
        return True
    disqualified = {i for (i, k) in pairs if i == k and i in responders}
    live = responders - disqualified
    adjacency: Dict[int, Set[int]] = {v: set() for v in live}
    conflicted: Set[int] = set()
    for i, k in pairs:
        if i == k:
            continue
        if i in live and k in live:
            adjacency[i].add(k)
            adjacency[k].add(i)
            conflicted.add(i)
            conflicted.add(k)
    free = len(live) - len(conflicted)
    if free >= quorum:
        return True
    needed = quorum - free
    mis = _max_independent_set_size(sorted(conflicted), adjacency, needed)
    return free + mis >= quorum


# ---------------------------------------------------------------------------
# Candidate tracking (lines 2-4, 21-28)
# ---------------------------------------------------------------------------


class CandidateTracker:
    """The reader's evidence sets and the predicates over them.

    All updates are monotone (sets only grow), which makes the two
    termination conditions monotone in time exactly as the wait-freedom
    proof requires: once ``safe(c)`` holds it keeps holding, and once a
    candidate is eliminated it stays eliminated (``RespondedWO`` never
    shrinks).

    Write ordering compares full ``(epoch, writer_id)`` tags, so one
    tracker serves the single-writer protocol (all tags ``(ts, 0)``) and
    its MWMR extension alike.

    The derived predicates are evaluated after every ack and several
    times within one step, but their verdicts only change when evidence
    arrives; a generation counter bumped on ingestion keys cheap
    memoization of the hot set computations (the same shape as
    :class:`~repro.core.regular.evidence.RegularEvidence`).
    """

    def __init__(self, elimination_threshold: int,
                 confirmation_threshold: int):
        self.elimination_threshold = elimination_threshold
        self.confirmation_threshold = confirmation_threshold
        #: every tuple ever added to C (line 24), in arrival order;
        #: elimination is dynamic
        self._candidates: Dict[WriteTuple, None] = {}
        #: RW(c): objects that reported tuple c in their w field, any round
        self.rw: Dict[WriteTuple, Set[int]] = {}
        #: RPW(tsval): objects that reported tsval in their pw field
        self.rpw: Dict[TimestampValue, Set[int]] = {}
        #: FirstRW(c): objects that reported c in the FIRST round
        self.first_rw: Dict[WriteTuple, Set[int]] = {}
        #: Resp1 (via RespFirst[]): objects that answered round 1
        self.responded_first: Set[int] = set()
        # Memoization state: bumped whenever evidence is ingested.
        self._generation = 0
        self._voter_cache: Dict[Tuple[str, WriteTuple],
                                Tuple[int, Set[int]]] = {}
        self._candidates_cache: Tuple[int, Optional[Set[WriteTuple]]] = \
            (-1, None)

    def __getstate__(self) -> Dict[str, Any]:
        # The memo caches are not state, and their hash-ordered sets
        # pickle differently in every process: pickles (exploration
        # fingerprints and state copies) carry them empty.
        return {**self.__dict__, "_voter_cache": {},
                "_candidates_cache": (-1, None)}

    # -- evidence ingestion -------------------------------------------------
    def record_first_round(self, object_index: int, pw: TimestampValue,
                           w: WriteTuple) -> None:
        """Lines 21-24: READ1_ACK processing."""
        self.first_rw.setdefault(w, set()).add(object_index)
        self.rw.setdefault(w, set()).add(object_index)
        self.rpw.setdefault(pw, set()).add(object_index)
        self._candidates[w] = None
        self.responded_first.add(object_index)
        self._generation += 1

    def record_second_round(self, object_index: int, pw: TimestampValue,
                            w: WriteTuple) -> None:
        """Lines 25-26: READ2_ACK processing (no candidate insertion)."""
        self.rw.setdefault(w, set()).add(object_index)
        self.rpw.setdefault(pw, set()).add(object_index)
        self._generation += 1

    # -- derived sets ---------------------------------------------------------
    def responded_without(self, c: WriteTuple) -> Set[int]:
        """``RespondedWO(c) = {i : ∃c' != c, i ∈ RW(c')}`` (line 2)."""
        cached = self._voter_cache.get(("wo", c))
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        out: Set[int] = set()
        for other, members in self.rw.items():
            if other != c:
                out |= members
        self._voter_cache[("wo", c)] = (self._generation, out)
        return out

    def is_eliminated(self, c: WriteTuple) -> bool:
        """Lines 27-28: ``|RespondedWO(c)| >= t + b + 1`` removes ``c``."""
        return len(self.responded_without(c)) >= self.elimination_threshold

    def candidates(self) -> Set[WriteTuple]:
        """The current set ``C``: added candidates not (yet) eliminated."""
        generation, cached = self._candidates_cache
        if generation == self._generation and cached is not None:
            return cached
        current = {c for c in self._candidates if not self.is_eliminated(c)}
        self._candidates_cache = (self._generation, current)
        return current

    def candidates_empty(self) -> bool:
        return not self.candidates()

    # -- predicates -------------------------------------------------------------
    def supporters(self, c: WriteTuple) -> Set[int]:
        """Objects counted by ``safe(c)`` (line 3).

        An object supports ``c`` when it reported ``c`` itself, ``c``'s
        timestamp-value pair, or *any* tuple / pair with a strictly higher
        write tag.
        """
        cached = self._voter_cache.get(("safe", c))
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        support: Set[int] = set()
        support |= self.rw.get(c, set())
        support |= self.rpw.get(c.tsval, set())
        c_tag = c.tsval.tag
        for other, members in self.rw.items():
            if other.tsval.tag > c_tag:
                support |= members
        for pair, members in self.rpw.items():
            if pair.tag > c_tag:
                support |= members
        self._voter_cache[("safe", c)] = (self._generation, support)
        return support

    def is_safe(self, c: WriteTuple) -> bool:
        return len(self.supporters(c)) >= self.confirmation_threshold

    def high_candidates(self) -> Set[WriteTuple]:
        """``highCand(c)`` holders: candidates with the maximal tag."""
        current = self.candidates()
        if not current:
            return set()
        top = max(c.tsval.tag for c in current)
        return {c for c in current if c.tsval.tag == top}

    def returnable(self) -> Optional[WriteTuple]:
        """Line 14/18: a candidate that is both safe and highCand, if any."""
        for c in self.high_candidates():
            if self.is_safe(c):
                return c
        return None
