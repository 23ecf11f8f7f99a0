"""A library of Byzantine base-object behaviours.

The model (Section 2.1) lets a malicious object change state arbitrarily
and put arbitrary messages into its channels.  Each class here is one
*strategy* -- a drop-in :class:`~repro.automata.base.ObjectAutomaton` that
usually wraps the honest automaton and distorts its behaviour:

* **omission-flavoured**: :class:`MuteByzantine` (never answers),
  :class:`StaleReplier` (answers from a frozen pre-write state);
* **fabrication-flavoured**: :class:`ValueForger` (invents a high-timestamp
  value), :class:`HistoryForger` (plants forged history entries),
  :class:`GarbageByzantine` (random but well-typed junk),
  :class:`AckFlooder` (spams conflicting acknowledgments);
* **protocol-aware attacks** on the paper's mechanisms:
  :class:`TsrInflater` fabricates write tuples whose ``tsrarray`` accuses
  honest objects of reporting future reader timestamps (the attack the
  *conflict* predicate of Figure 4 exists to absorb), and
  :class:`Equivocator` shows different states to different readers;
* **timing and bundling**: :class:`DelayThenForge` (withholds, then
  forges), :class:`BadAggregator` (drops and duplicates reply parts);
* **combinators** that nest other strategies: :class:`SwitchingByzantine`
  (switches at delivery thresholds), :class:`ProbabilisticByzantine`
  (corrupts each delivery with probability ``p``).

Strategies never get to forge their *identity*: the kernel stamps envelope
senders, matching authenticated point-to-point channels.

Every strategy is also *data*: a class declares its registered name in
``strategy`` and takes its parameters as constructor keywords, so a
spec such as ``{"name": "forger", "params": {"ts_boost": 77}}`` (the
chaos schedule DSL's ``corrupt`` events) resolves through
:func:`build_strategy` to ``partial(ValueForger, ts_boost=77)``.  All
strategy randomness derives from the seed :func:`build_strategy` is
given, so a schedule's master seed determines every forged bit.
"""

from __future__ import annotations

import copy
import functools
import inspect
import random
from typing import (Any, Callable, ClassVar, Dict, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..automata.base import ObjectAutomaton, Outgoing
from ..config import SystemConfig
from ..errors import ConfigurationError
from ..messages import (HistoryEntry, HistoryReadAck, LeaseProbeAck, Pw,
                        PwAck, ReadAck, ReadRequest, TagQueryAck, W)
from ..seeds import derive_seed
from ..types import (BOTTOM, ProcessId, TimestampValue, TsrArray, WriterTag,
                     WriteTuple, as_tag)

#: A strategy factory: (honest automaton, config) -> Byzantine automaton.
StrategyFactory = Callable[[ObjectAutomaton, SystemConfig], ObjectAutomaton]

#: A strategy spec: a registered name, or a mapping with ``name`` and
#: optional ``params`` (which may nest further specs for combinators).
StrategySpec = Union[str, Mapping[str, Any]]

#: Registered name -> strategy constructor ``(inner, config, **params)``.
STRATEGIES: Dict[str, Callable[..., ObjectAutomaton]] = {}


def _register(name: str, constructor: Callable[..., ObjectAutomaton]) -> None:
    if name in STRATEGIES:
        raise ConfigurationError(f"duplicate strategy name {name!r}")
    STRATEGIES[name] = constructor


class ByzantineWrapper(ObjectAutomaton):
    """Base class: run the honest automaton, distort its replies.

    A subclass that sets ``strategy`` is registered under that name; one
    that sets none (a test double, say) is not.
    """

    strategy: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "strategy" in vars(cls):
            _register(cls.strategy, cls)

    def __init__(self, inner: ObjectAutomaton, config: SystemConfig):
        super().__init__(inner.object_index)
        self.inner = inner
        self.config = config

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        replies = self.inner.on_message(sender, message)
        return self.transform(sender, message, replies)

    def transform(self, sender: ProcessId, message: Any,
                  replies: Outgoing) -> Outgoing:
        """Override: distort the honest replies."""
        return replies


class MuteByzantine(ByzantineWrapper):
    """Receives everything, acknowledges nothing.

    Behaviourally identical to an initially crashed object, but counted
    against ``b``; useful to check protocols do not over-trust silence.
    """

    strategy = "silent"

    def transform(self, sender: ProcessId, message: Any,
                  replies: Outgoing) -> Outgoing:
        return []


class StaleReplier(ByzantineWrapper):
    """Answers READs from a state frozen at corruption time.

    WRITE-protocol messages are swallowed (the object pretends to be
    partitioned from the writer), so its READ acks advertise an old value
    forever.  A classic "stale mirror" failure.
    """

    strategy = "stale"

    def __init__(self, inner: ObjectAutomaton, config: SystemConfig):
        super().__init__(inner, config)
        self._frozen = copy.deepcopy(inner)

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if isinstance(message, (Pw, W)):
            return []  # never learn new values
        # Reads are served by the frozen replica (whose tsr advances, so
        # its acks stay fresh enough to be accepted).
        return self._frozen.on_message(sender, message)


class TwoFaced(ByzantineWrapper):
    """Acknowledges the writer like an honest object, serves readers from
    a state frozen at corruption time.

    The nastiest stale strategy: unlike :class:`StaleReplier` it lets
    writes *complete* (its acks count toward the writer's quorum) while
    denying those writes to every reader.  Below optimal resilience this
    single behaviour breaks safety outright -- experiment E10 uses it to
    show what the ``S >= 2t + b + 1`` guard is protecting against.
    """

    strategy = "two-faced"

    def __init__(self, inner: ObjectAutomaton, config: SystemConfig):
        super().__init__(inner, config)
        self._frozen = copy.deepcopy(inner)

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if isinstance(message, (Pw, W)):
            # Honest-looking write path: real acks, real state updates --
            # on the hidden replica only.
            return self.inner.on_message(sender, message)
        return self._frozen.on_message(sender, message)


class ValueForger(ByzantineWrapper):
    """Forges a never-written value with an inflated timestamp in acks.

    Against a correct protocol at optimal resilience the forgery can gather
    at most ``b < b + 1`` confirmations, so ``safe(c)`` never holds for it
    -- the safety theorem in action.
    """

    strategy = "forger"

    def __init__(self, inner: ObjectAutomaton, config: SystemConfig,
                 forged_value: Any = "FORGED", ts_boost: int = 1000):
        super().__init__(inner, config)
        self.forged_value = forged_value
        self.ts_boost = int(ts_boost)

    def _forged_tuple(self, base_ts: int) -> WriteTuple:
        tsval = TimestampValue(base_ts + self.ts_boost, self.forged_value)
        return WriteTuple(tsval, TsrArray.empty(self.config.num_objects,
                                                self.config.num_readers))

    def transform(self, sender: ProcessId, message: Any,
                  replies: Outgoing) -> Outgoing:
        out: Outgoing = []
        for receiver, payload in replies:
            if isinstance(payload, ReadAck):
                forged = self._forged_tuple(payload.pw.ts)
                payload = ReadAck(
                    round_index=payload.round_index,
                    tsr=payload.tsr,
                    object_index=payload.object_index,
                    pw=forged.tsval,
                    w=forged,
                    register_id=payload.register_id,
                )
            elif isinstance(payload, HistoryReadAck):
                top = (max(payload.history).epoch
                       if payload.history else 0)
                forged = self._forged_tuple(top)
                history = dict(payload.history)
                history[forged.tag] = HistoryEntry(pw=forged.tsval, w=forged)
                payload = HistoryReadAck(
                    round_index=payload.round_index,
                    tsr=payload.tsr,
                    object_index=payload.object_index,
                    history=history,
                    register_id=payload.register_id,
                )
            out.append((receiver, payload))
        return out


class HistoryForger(ByzantineWrapper):
    """Rewrites a *specific* history slot in regular-protocol acks.

    Used to attack the ``invalid``/``safe`` predicates of Figure 6: the
    forger claims write ``target_ts`` installed ``forged_value``.
    """

    strategy = "history-forger"

    def __init__(self, inner: ObjectAutomaton, config: SystemConfig,
                 target_ts: int = 1, forged_value: Any = "REWRITTEN"):
        super().__init__(inner, config)
        self.target_ts = int(target_ts)
        self.forged_value = forged_value

    def transform(self, sender: ProcessId, message: Any,
                  replies: Outgoing) -> Outgoing:
        out: Outgoing = []
        for receiver, payload in replies:
            if isinstance(payload, HistoryReadAck):
                tsval = TimestampValue(self.target_ts, self.forged_value)
                tup = WriteTuple(tsval, TsrArray.empty(
                    self.config.num_objects, self.config.num_readers))
                history = dict(payload.history)
                history[tsval.tag] = HistoryEntry(pw=tsval, w=tup)
                payload = HistoryReadAck(
                    round_index=payload.round_index,
                    tsr=payload.tsr,
                    object_index=payload.object_index,
                    history=history,
                    register_id=payload.register_id,
                )
            out.append((receiver, payload))
        return out


class TsrInflater(ByzantineWrapper):
    """Accuses honest objects via fabricated ``tsrarray`` entries.

    Takes the honest ack and replaces its write tuple with one whose
    ``tsrarray`` claims that ``accused`` objects reported a reader
    timestamp far in the future.  Every honest responder named in the
    forgery lands in a *conflict* with this object (Figure 4, line 1) --
    the round-1 condition must route around the pair without blocking
    forever (Lemma 2 territory).
    """

    strategy = "tsr-inflater"

    def __init__(self, inner: ObjectAutomaton, config: SystemConfig,
                 accused: Optional[List[int]] = None, inflation: int = 10**6):
        super().__init__(inner, config)
        self.accused = ([int(i) for i in accused] if accused is not None
                        else list(range(config.num_objects)))
        self.inflation = inflation

    def _inflate(self, w: WriteTuple, reader_index: int) -> WriteTuple:
        tsr = w.tsrarray
        for i in self.accused:
            tsr = tsr.with_entry(i, reader_index, self.inflation)
        return WriteTuple(w.tsval, tsr)

    def transform(self, sender: ProcessId, message: Any,
                  replies: Outgoing) -> Outgoing:
        if not isinstance(message, ReadRequest):
            return replies
        out: Outgoing = []
        for receiver, payload in replies:
            if isinstance(payload, ReadAck):
                payload = ReadAck(
                    round_index=payload.round_index,
                    tsr=payload.tsr,
                    object_index=payload.object_index,
                    pw=payload.pw,
                    w=self._inflate(payload.w, message.reader_index),
                    register_id=payload.register_id,
                )
            out.append((receiver, payload))
        return out


class Equivocator(ByzantineWrapper):
    """Shows honest state to even readers, a frozen state to odd ones."""

    strategy = "equivocation"

    def __init__(self, inner: ObjectAutomaton, config: SystemConfig):
        super().__init__(inner, config)
        self._stale = copy.deepcopy(inner)

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if isinstance(message, ReadRequest) and message.reader_index % 2 == 1:
            return self._stale.on_message(sender, message)
        return self.inner.on_message(sender, message)


class AckFlooder(ByzantineWrapper):
    """Sends ``copies`` differently-forged acks per read request.

    Exercises the reader's set semantics: duplicate evidence from one
    object must never be double counted toward ``b + 1`` confirmations.
    """

    strategy = "ack-flooder"

    def __init__(self, inner: ObjectAutomaton, config: SystemConfig,
                 copies: int = 3):
        super().__init__(inner, config)
        self.copies = int(copies)

    def transform(self, sender: ProcessId, message: Any,
                  replies: Outgoing) -> Outgoing:
        out: Outgoing = list(replies)
        for receiver, payload in replies:
            if not isinstance(payload, ReadAck):
                continue
            for n in range(1, self.copies):
                tsval = TimestampValue(payload.pw.ts + n, f"flood-{n}")
                forged = WriteTuple(tsval, TsrArray.empty(
                    self.config.num_objects, self.config.num_readers))
                out.append((receiver, ReadAck(
                    round_index=payload.round_index,
                    tsr=payload.tsr,
                    object_index=payload.object_index,
                    pw=tsval,
                    w=forged,
                    register_id=payload.register_id,
                )))
        return out


class StaleTagForger(ByzantineWrapper):
    """Forges write tags in MWMR traffic: lies about the maximum tag it
    holds (tag discovery) and attributes its read-ack state to a stale
    ``(epoch, writer_id)`` tag.

    Against a correct MWMR protocol both lies are absorbed: tag discovery
    takes the *maximum* over a quorum (one under-reporting object cannot
    lower it below any completed write's tag), and a forged stale
    candidate gathers at most ``b < b + 1`` confirmations so ``safe(c)``
    never holds for it -- the satellite the MWMR test suite pins down.

    The same stale story is told to lease probes (fast reads): the
    forger vouches for whatever lease is probed, so it is the honest
    quorum majority that must -- and does -- outvote it.
    """

    strategy = "stale-tag"

    def __init__(self, inner: ObjectAutomaton, config: SystemConfig,
                 forged_tag: WriterTag = WriterTag(0, 0),
                 forged_value: Any = "STALE-TAG"):
        super().__init__(inner, config)
        self.forged_tag = as_tag(forged_tag)
        self.forged_value = forged_value

    def _stale_tuple(self) -> WriteTuple:
        tsval = (TimestampValue(self.forged_tag.epoch, self.forged_value,
                                wid=self.forged_tag.writer_id)
                 if self.forged_tag.epoch > 0
                 else TimestampValue(0, BOTTOM))
        return WriteTuple(tsval, TsrArray.empty(self.config.num_objects,
                                                self.config.num_readers))

    def transform(self, sender: ProcessId, message: Any,
                  replies: Outgoing) -> Outgoing:
        out: Outgoing = []
        for receiver, payload in replies:
            if isinstance(payload, TagQueryAck):
                # Under-report the maximum tag (pull writers backwards).
                payload = TagQueryAck(
                    nonce=payload.nonce,
                    object_index=payload.object_index,
                    epoch=self.forged_tag.epoch,
                    wid=self.forged_tag.writer_id,
                    register_id=payload.register_id,
                )
            elif isinstance(payload, ReadAck):
                forged = self._stale_tuple()
                payload = ReadAck(
                    round_index=payload.round_index,
                    tsr=payload.tsr,
                    object_index=payload.object_index,
                    pw=forged.tsval,
                    w=forged,
                    register_id=payload.register_id,
                )
            elif isinstance(payload, HistoryReadAck):
                forged = self._stale_tuple()
                history = {forged.tag: HistoryEntry(pw=forged.tsval,
                                                    w=forged)}
                payload = HistoryReadAck(
                    round_index=payload.round_index,
                    tsr=payload.tsr,
                    object_index=payload.object_index,
                    history=history,
                    register_id=payload.register_id,
                )
            elif isinstance(payload, LeaseProbeAck):
                # Vouch for any lease: under-report the top tag so the
                # probe sees no newer write, claim the leased tuple is
                # held, and hide any fence.  With at most ``b`` such
                # forgers a probe for a genuinely superseded lease still
                # hears the newer tag (or a fence) from every honest
                # member of the quorum it reached -- one honest
                # refutation forces the classic fallback -- and a probe
                # whose value is not actually quorum-held cannot reach
                # ``b + 1`` holds votes on forged acks alone.
                payload = LeaseProbeAck(
                    nonce=payload.nonce,
                    object_index=payload.object_index,
                    epoch=self.forged_tag.epoch,
                    wid=self.forged_tag.writer_id,
                    holds=True,
                    fenced=False,
                    register_id=payload.register_id,
                )
            out.append((receiver, payload))
        return out


class GarbageByzantine(ByzantineWrapper):
    """Seeded random but type-correct distortions of every reply."""

    strategy = "random-noise"

    def __init__(self, inner: ObjectAutomaton, config: SystemConfig,
                 seed: int = 0):
        super().__init__(inner, config)
        self._rng = random.Random(seed)

    def transform(self, sender: ProcessId, message: Any,
                  replies: Outgoing) -> Outgoing:
        out: Outgoing = []
        for receiver, payload in replies:
            if isinstance(payload, ReadAck) and self._rng.random() < 0.8:
                ts = self._rng.randint(1, 50)
                tsval = TimestampValue(ts, f"junk-{self._rng.randint(0, 9)}")
                payload = ReadAck(
                    round_index=payload.round_index,
                    tsr=payload.tsr,
                    object_index=payload.object_index,
                    pw=tsval,
                    w=WriteTuple(tsval, TsrArray.empty(
                        self.config.num_objects, self.config.num_readers)),
                    register_id=payload.register_id,
                )
            elif isinstance(payload, PwAck) and self._rng.random() < 0.5:
                payload = PwAck(
                    ts=payload.ts,
                    object_index=payload.object_index,
                    tsr=tuple(self._rng.randint(0, 5)
                              for _ in range(self.config.num_readers)),
                    register_id=payload.register_id,
                )
            out.append((receiver, payload))
        return out


class DelayThenForge(ByzantineWrapper):
    """Withholds its first ``quiet`` replies, then releases them forged.

    The paper's adversary controls *when* a corrupt object speaks as
    much as *what* it says: withheld acks make the object look slow (so
    clients settle on the remaining quorum), then the backlog arrives
    carrying an inflated-timestamp forgery.  A correct reader must still
    demand ``b + 1`` confirmations before believing the late wave.
    """

    strategy = "delay-then-forge"

    def __init__(self, inner: ObjectAutomaton, config: SystemConfig,
                 quiet: int = 3, forged_value: Any = "LATE-FORGE",
                 ts_boost: int = 500):
        super().__init__(inner, config)
        self.quiet = int(quiet)
        self._forger = ValueForger(inner, config, forged_value, ts_boost)
        self._held: List[Tuple[ProcessId, Any]] = []
        self._seen = 0

    def transform(self, sender: ProcessId, message: Any,
                  replies: Outgoing) -> Outgoing:
        self._seen += 1
        if self._seen <= self.quiet:
            self._held.extend(replies)
            return []
        backlog = self._held + list(replies)
        self._held = []
        return self._forger.transform(sender, message, backlog)


class BadAggregator(ByzantineWrapper):
    """Mangles multi-reply responses: drops and duplicates reply parts.

    Batched rounds expect each object to contribute one coherent bundle
    of acks; a bad aggregator breaks the bundle invariant -- some parts
    vanish, others arrive twice -- without forging any individual
    payload.  Readers' set semantics (count evidence per object, not per
    message) are what must absorb this.
    """

    strategy = "bad-aggregator"

    def __init__(self, inner: ObjectAutomaton, config: SystemConfig,
                 drop_p: float = 0.3, dup_p: float = 0.3, seed: int = 0):
        super().__init__(inner, config)
        self.drop_p = float(drop_p)
        self.dup_p = float(dup_p)
        self._rng = random.Random(derive_seed(seed, "rolls"))

    def transform(self, sender: ProcessId, message: Any,
                  replies: Outgoing) -> Outgoing:
        out: Outgoing = []
        for pair in replies:
            roll = self._rng.random()
            if roll < self.drop_p:
                continue
            out.append(pair)
            if roll > 1.0 - self.dup_p:
                out.append(pair)
        return out


# ---------------------------------------------------------------------------
# Combinators: strategies whose params nest further strategy specs
# ---------------------------------------------------------------------------


class SwitchingByzantine(ByzantineWrapper):
    """Time-varying conduct: switch behaviour at delivery thresholds.

    ``stages`` is a list of ``{"after": n, "strategy": spec}``: a stage
    takes over once the object has handled ``n`` deliveries, and a stage
    without a ``strategy`` is honest.  The last stage whose threshold has
    been reached is active.  Stage automata share the wrapped honest
    ``inner`` (each is a wrapper around the same state), so state learned
    while honest carries into the corrupt phase.
    """

    strategy = "sequence"

    def __init__(self, inner: ObjectAutomaton, config: SystemConfig,
                 stages: Sequence[Mapping[str, Any]], seed: int = 0):
        if not stages:
            raise ConfigurationError("sequence strategy needs 'stages'")
        self._switch(inner, config, [
            (stage.get("after", 0), stage.get("strategy"),
             derive_seed(seed, "stage", index))
            for index, stage in enumerate(stages)])

    @classmethod
    def after_step(cls, inner: ObjectAutomaton, config: SystemConfig,
                   after: int = 5, strategy: StrategySpec = "forger",
                   seed: int = 0) -> "SwitchingByzantine":
        """Honest until ``after`` deliveries, then ``strategy``'s conduct."""
        switching = cls.__new__(cls)
        switching._switch(inner, config, [
            (0, None, 0), (after, strategy, derive_seed(seed, "sub"))])
        return switching

    def _switch(self, inner: ObjectAutomaton, config: SystemConfig,
                stages: List[Tuple[Any, Optional[StrategySpec], int]]
                ) -> None:
        ByzantineWrapper.__init__(self, inner, config)
        self.stages = sorted(
            ((int(after), inner if spec is None
              else build_strategy(spec, stage_seed)(inner, config))
             for after, spec, stage_seed in stages),
            key=lambda pair: pair[0])
        self.deliveries = 0

    def _active(self) -> ObjectAutomaton:
        chosen = self.inner
        for threshold, automaton in self.stages:
            if self.deliveries >= threshold:
                chosen = automaton
        return chosen

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        automaton = self._active()
        self.deliveries += 1
        return automaton.on_message(sender, message)


_register("after-step", SwitchingByzantine.after_step)


class ProbabilisticByzantine(ByzantineWrapper):
    """Flips a seeded coin per delivery: ``strategy``'s conduct with
    probability ``p``, honest otherwise.

    Models intermittent corruption -- a replica that only sometimes
    lies is harder to vote out and exercises per-message (rather than
    per-process) fault absorption.
    """

    strategy = "probabilistic"

    def __init__(self, inner: ObjectAutomaton, config: SystemConfig,
                 p: float = 0.5, strategy: StrategySpec = "forger",
                 seed: int = 0):
        super().__init__(inner, config)
        self.corrupt = build_strategy(
            strategy, derive_seed(seed, "sub"))(inner, config)
        self.p = float(p)
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"probability {self.p} outside [0, 1]")
        self._rng = random.Random(derive_seed(seed, "coin"))

    def on_message(self, sender: ProcessId, message: Any) -> Outgoing:
        if self._rng.random() < self.p:
            return self.corrupt.on_message(sender, message)
        return self.inner.on_message(sender, message)


# ---------------------------------------------------------------------------
# Specs -> factories
# ---------------------------------------------------------------------------


def strategy_names() -> List[str]:
    return sorted(STRATEGIES)


def spec_of(name: str, **params: Any) -> Dict[str, Any]:
    """Convenience spec constructor: ``spec_of('forger', ts_boost=7)``."""
    return {"name": name, "params": params}


def build_strategy(spec: StrategySpec, seed: int = 0) -> StrategyFactory:
    """Resolve a spec into a ``StrategyFactory``: the registered
    constructor with the spec's ``params`` bound as keywords.

    ``seed`` is the master chaos seed scope for this strategy: a
    constructor that takes a ``seed`` gets one derived from it, and
    derives its own sub-seeds (nested strategies, coin flips) from that.
    """
    if isinstance(spec, str):
        name, params = spec, {}
    else:
        name, params = spec.get("name"), spec.get("params", {})
        if not isinstance(params, Mapping):
            raise ConfigurationError(
                f"strategy params must be a mapping: {spec!r}")
    constructor = STRATEGIES.get(name)
    if constructor is None:
        raise ConfigurationError(
            f"unknown strategy {name!r}; known: {', '.join(strategy_names())}")
    signature = inspect.signature(constructor)
    if "seed" in signature.parameters:
        params = {**params, "seed": derive_seed(seed, "strategy", name)}
    try:
        signature.bind(None, None, **params)
    except TypeError as exc:
        raise ConfigurationError(f"strategy {name!r}: {exc}") from None
    return functools.partial(constructor, **params) if params else constructor
