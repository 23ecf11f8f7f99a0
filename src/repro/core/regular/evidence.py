"""Reader-side evidence sets of the regular protocol (Figure 6, lines 1-5).

Mirrors :mod:`repro.core.safe.predicates` for the history-based protocol:

* candidates ``C`` are every write tuple appearing in a *first-round*
  history (line 20);
* ``invalid(c)`` (line 2) -- at least ``t + b + 1`` objects answered, in
  some round, with a history slot for ``c``'s timestamp that is missing or
  contradicts ``c``;
* ``safe(c)`` (line 3) -- at least ``b + 1`` objects answered, in some
  round, with a matching ``pw`` or ``w`` at ``c``'s slot;
* ``conflict`` (line 1) reuses the same accusation structure as the safe
  protocol, with accusers drawn from round-1 histories.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Set, Tuple

from ...messages import HistoryEntry
from ...types import TimestampValue, WriterTag, WriteTuple, as_tag

#: The "no opinion about this slot" entry; immutable, so one shared
#: instance serves every miss on the hot predicate path.
_EMPTY_ENTRY = HistoryEntry(pw=None, w=None)


class RegularEvidence:
    """Histories received per round, plus the Figure 6 predicates."""

    def __init__(self, elimination_threshold: int,
                 confirmation_threshold: int):
        self.elimination_threshold = elimination_threshold
        self.confirmation_threshold = confirmation_threshold
        #: history[rnd][i] -> {tag: HistoryEntry}; first ack per round wins
        self.round_histories: Dict[
            int, Dict[int, Mapping[WriterTag, HistoryEntry]]]
        self.round_histories = {1: {}, 2: {}}
        #: line-20 candidates in arrival order
        self._candidates: Dict[WriteTuple, None] = {}
        # Predicate verdicts only change when evidence arrives, but the
        # reader evaluates them after every ack (and several times within
        # one step).  A generation counter bumped on ingestion keys cheap
        # memoization of the hot predicates.
        self._generation = 0
        self._voter_cache: Dict[Tuple[str, WriteTuple],
                                Tuple[int, Set[int]]] = {}
        self._candidates_cache: Tuple[int, Optional[Set[WriteTuple]]] = \
            (-1, None)
        self._accusers_cache: Tuple[int, Optional[Dict[WriteTuple,
                                                       Set[int]]]] = \
            (-1, None)

    def __getstate__(self) -> Dict[str, Any]:
        # The memo caches are not state, and their hash-ordered sets
        # pickle differently in every process: pickles (exploration
        # fingerprints and state copies) carry them empty.
        return {**self.__dict__, "_voter_cache": {},
                "_candidates_cache": (-1, None),
                "_accusers_cache": (-1, None)}

    # -- ingestion ---------------------------------------------------------
    def record(self, round_index: int, object_index: int,
               history: Mapping[WriterTag, HistoryEntry],
               normalized: bool = False) -> bool:
        """Store a round's history for an object (dedup: first ack wins).

        Round-1 histories contribute their non-nil ``w`` entries to the
        candidate set (line 20).  ``normalized=True`` is the reader's
        hot path: histories arriving through :class:`HistoryReadAck` are
        guaranteed tag-keyed and privately snapshotted by the ack's
        constructors, so the ack's own frozen dict is stored as-is.
        Direct callers (tests, tools) may pass legacy integer keys and
        mutable dicts and get the normalizing copy.
        """
        per_round = self.round_histories[round_index]
        if object_index in per_round:
            return False
        if not normalized:
            history = {as_tag(tag): entry
                       for tag, entry in history.items()}
        per_round[object_index] = history
        if round_index == 1:
            for entry in history.values():
                if entry.w is not None:
                    self._candidates[entry.w] = None
        self._generation += 1
        return True

    def responded_first(self) -> Set[int]:
        return set(self.round_histories[1])

    def responded_first_count(self) -> int:
        """``|Resp1|`` without materializing the set."""
        return len(self.round_histories[1])

    def first_round_accusers(self) -> Dict[WriteTuple, Set[int]]:
        """``FirstRW``-equivalent: who exhibited each candidate in round 1."""
        generation, cached = self._accusers_cache
        if generation == self._generation and cached is not None:
            return cached
        accusers: Dict[WriteTuple, Set[int]] = {}
        for i, history in self.round_histories[1].items():
            for entry in history.values():
                if entry.w is not None:
                    accusers.setdefault(entry.w, set()).add(i)
        self._accusers_cache = (self._generation, accusers)
        return accusers

    # -- per-object slot lookup -----------------------------------------------
    def _slot(self, round_index: int, object_index: int,
              tag: WriterTag) -> Optional[HistoryEntry]:
        history = self.round_histories[round_index].get(object_index)
        if history is None:
            return None  # no response in this round (no opinion)
        return history.get(tag, _EMPTY_ENTRY)

    # -- predicates --------------------------------------------------------------
    def invalid_voters(self, c: WriteTuple) -> Set[int]:
        """Objects counted by ``invalid(c)``: some round's response
        contradicts ``c`` at slot ``c.tag``."""
        cached = self._voter_cache.get(("invalid", c))
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        voters: Set[int] = set()
        tag = c.tag
        tsval = c.tsval
        for per_round in (self.round_histories[1],
                          self.round_histories[2]):
            for i, history in per_round.items():
                entry = history.get(tag, _EMPTY_ENTRY)
                if entry.w is None or entry.pw != tsval or entry.w != c:
                    voters.add(i)
        self._voter_cache[("invalid", c)] = (self._generation, voters)
        return voters

    def is_invalid(self, c: WriteTuple) -> bool:
        return len(self.invalid_voters(c)) >= self.elimination_threshold

    def safe_voters(self, c: WriteTuple) -> Set[int]:
        """Objects counted by ``safe(c)``: a matching pw or w at the slot."""
        cached = self._voter_cache.get(("safe", c))
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        voters: Set[int] = set()
        tag = c.tag
        tsval = c.tsval
        for per_round in (self.round_histories[1],
                          self.round_histories[2]):
            for i, history in per_round.items():
                entry = history.get(tag, _EMPTY_ENTRY)
                if entry.pw == tsval or entry.w == c:
                    voters.add(i)
        self._voter_cache[("safe", c)] = (self._generation, voters)
        return voters

    def is_safe(self, c: WriteTuple) -> bool:
        return len(self.safe_voters(c)) >= self.confirmation_threshold

    # -- candidate queries ----------------------------------------------------------
    def candidates(self) -> Set[WriteTuple]:
        """Current ``C``: round-1 candidates not (yet) invalid."""
        generation, cached = self._candidates_cache
        if generation == self._generation and cached is not None:
            return cached
        current = {c for c in self._candidates if not self.is_invalid(c)}
        self._candidates_cache = (self._generation, current)
        return current

    def candidates_empty(self) -> bool:
        return not self.candidates()

    def high_candidates(self) -> Set[WriteTuple]:
        current = self.candidates()
        if not current:
            return set()
        top = max(c.tag for c in current)
        return {c for c in current if c.tag == top}

    def returnable(self) -> Optional[WriteTuple]:
        """Line 14: a safe candidate with the highest timestamp, if any."""
        for c in self.high_candidates():
            if self.is_safe(c):
                return c
        return None
