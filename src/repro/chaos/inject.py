"""The fault injector: applies a :class:`FaultSchedule` to a live system.

The injector owns the mutable side of a chaos run -- active partitions,
the ``(t, b)`` budget consumed so far, and the fault counters the
verdict surfaces.  It is driven by the harness loop: ``apply_due(step)``
fires every event whose step has arrived; ``apply_next()`` force-fires
the next event when the network quiesces early; ``heal_all()`` lifts
every remaining cut before the drain phase.

Illegal events (budget exceeded, unknown targets, double faults,
malformed params) are *skipped deterministically* and recorded, not
raised: shrinking deletes schedule prefixes, and a suffix must stay
runnable however the prefix changed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..adversary import build_strategy
from ..config import SystemConfig
from ..errors import ConfigurationError
from ..seeds import derive_seed
from ..sim.delay import (ConstantDelay, DelayModel, ExponentialDelay,
                         SlowProcessDelay, UniformDelay, ZeroDelay)
from ..sim.partitions import Partition
from ..system import StorageSystem
from ..types import DEFAULT_REGISTER, ProcessId, obj
from .schedule import FaultEvent, FaultSchedule, parse_pid


class FaultInjector:
    """Applies schedule events to a ``StorageSystem`` at step boundaries."""

    def __init__(self, system: StorageSystem, schedule: FaultSchedule):
        self.system = system
        self.kernel = system.kernel
        self.config: SystemConfig = system.config
        self.schedule = schedule
        # Events paired with their schedule position: the position seeds
        # per-event RNG scopes, so deleting an earlier event during
        # shrinking does not reshuffle a later event's randomness.
        self._pending: List[Tuple[int, FaultEvent]] = list(
            enumerate(schedule.events))
        self.applied: List[FaultEvent] = []
        self.skipped: List[Tuple[FaultEvent, str]] = []
        self.partitions: Dict[str, Partition] = {}
        self._healed: List[Partition] = []
        self._crashed: Set[int] = set()
        self._corrupted: Set[int] = set()
        self.counts: Dict[str, int] = {
            kind: 0 for kind in ("partition", "heal", "crash", "restore",
                                 "corrupt", "delay", "gray", "clock_skew",
                                 "epoch_skew", "drop")}
        self.dropped_messages = 0

    # -- driving ----------------------------------------------------------
    def pending(self) -> bool:
        return bool(self._pending)

    def apply_due(self, step: int) -> int:
        """Fire every event scheduled at or before ``step``."""
        fired = 0
        while self._pending and self._pending[0][1].at_step <= step:
            index, event = self._pending.pop(0)
            self._apply(index, event)
            fired += 1
        return fired

    def apply_next(self) -> bool:
        """Force-fire the next event regardless of its step.

        Used when the network quiesces before the schedule runs out:
        rather than losing the tail of the schedule, time skips ahead to
        the next event (exactly like a discrete-event simulator jumping
        to the next timer).
        """
        if not self._pending:
            return False
        index, event = self._pending.pop(0)
        self._apply(index, event)
        return True

    def heal_all(self) -> bool:
        """Lift every active partition; True if any cut was healed."""
        healed = False
        for tag in sorted(self.partitions):
            partition = self.partitions[tag]
            if not partition.healed:
                partition.heal()
                healed = True
            self._healed.append(partition)
        self.partitions.clear()
        return healed

    # -- verdict data -----------------------------------------------------
    def partition_blocks(self) -> int:
        total = sum(p.blocked for p in self._healed)
        total += sum(p.blocked for p in self.partitions.values())
        return total

    def counters(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            f"events_{kind}": count
            for kind, count in sorted(self.counts.items()) if count}
        out["events_applied"] = len(self.applied)
        out["events_skipped"] = len(self.skipped)
        out["partition_blocks"] = self.partition_blocks()
        out["adversarial_drops"] = self.kernel.dropped_adversarially
        out["byzantine_intercepts"] = self.kernel.byzantine_intercepts()
        return out

    # -- event application ------------------------------------------------
    def _skip(self, event: FaultEvent, reason: str) -> None:
        self.skipped.append((event, reason))

    def _apply(self, index: int, event: FaultEvent) -> None:
        handler = getattr(self, f"_apply_{event.kind}")
        try:
            reason: Optional[str] = handler(index, event)
        except (ConfigurationError, ValueError) as exc:
            reason = f"malformed {event.kind} event: {exc}"
        if reason is None:
            self.applied.append(event)
            self.counts[event.kind] += 1
        else:
            self._skip(event, reason)

    def _apply_partition(self, index: int,
                         event: FaultEvent) -> Optional[str]:
        groups_spec = event.params.get("groups")
        if not groups_spec:
            return "partition without groups"
        groups: List[List[ProcessId]] = [
            [parse_pid(str(name)) for name in group]
            for group in groups_spec]
        # Explicit tags keep cross-run determinism (the module-level
        # fallback counter in sim.partitions is process-global).
        tag = str(event.params.get("tag", f"chaos-cut-{index}"))
        if tag in self.partitions:
            return f"partition tag {tag!r} already active"
        self.partitions[tag] = Partition(self.kernel.network, groups,
                                         tag=tag)
        return None

    def _apply_heal(self, index: int, event: FaultEvent) -> Optional[str]:
        tag = event.params.get("tag")
        if tag is None:
            if not self.heal_all():
                return "no active partition to heal"
            return None
        partition = self.partitions.pop(str(tag), None)
        if partition is None:
            return f"no active partition tagged {tag!r}"
        partition.heal()
        self._healed.append(partition)
        return None

    def _faulty_budget_used(self) -> int:
        return len(self._crashed | self._corrupted)

    def _object_index(self, event: FaultEvent) -> Optional[int]:
        try:
            index = int(event.params["object"])
        except (KeyError, TypeError, ValueError):
            return None
        if not 0 <= index < self.config.num_objects:
            return None
        return index

    def _apply_crash(self, index: int, event: FaultEvent) -> Optional[str]:
        target = self._object_index(event)
        if target is None:
            return "crash needs a valid 'object' index"
        if target in self._crashed:
            return f"s{target + 1} already crashed"
        if target in self._corrupted:
            return f"s{target + 1} is Byzantine; crashing it would free b"
        if self._faulty_budget_used() >= self.config.t:
            return f"crash budget t={self.config.t} exhausted"
        self.kernel.crash(obj(target))
        self._crashed.add(target)
        return None

    def _apply_restore(self, index: int, event: FaultEvent) -> Optional[str]:
        target = self._object_index(event)
        if target is None:
            return "restore needs a valid 'object' index"
        if target not in self._crashed:
            return f"s{target + 1} is not crashed"
        if event.params.get("amnesia"):
            # A restart that lost volatile state is indistinguishable
            # from an arbitrary-state replica: rebuild a fresh automaton
            # and count the object against the Byzantine budget.  The
            # crash slot is NOT freed -- the (t, b) budget is a whole-run
            # bound, not an instantaneous one.
            if len(self._corrupted) >= self.config.b:
                return (f"amnesiac restart needs Byzantine budget; "
                        f"b={self.config.b} exhausted")
            fresh = self.system.protocol.make_objects(self.config)[target]
            self.kernel.restore(obj(target))
            self.kernel.make_byzantine(obj(target), fresh,
                                       note="amnesiac-restart")
            self._corrupted.add(target)
            return None
        self.kernel.restore(obj(target))
        return None

    def _apply_corrupt(self, index: int, event: FaultEvent) -> Optional[str]:
        target = self._object_index(event)
        if target is None:
            return "corrupt needs a valid 'object' index"
        spec = event.params.get("strategy", "forger")
        if target in self._corrupted:
            return f"s{target + 1} already Byzantine"
        if target in self._crashed:
            return f"s{target + 1} is crashed"
        if len(self._corrupted) >= self.config.b:
            return f"Byzantine budget b={self.config.b} exhausted"
        if self._faulty_budget_used() >= self.config.t:
            return f"fault budget t={self.config.t} exhausted"
        factory = build_strategy(
            spec, derive_seed(self.schedule.seed, "event", index))
        honest = self.kernel.object_automaton(obj(target))
        self.kernel.make_byzantine(obj(target), factory(honest, self.config))
        self._corrupted.add(target)
        return None

    def _apply_delay(self, index: int, event: FaultEvent) -> Optional[str]:
        model = self._delay_model(event, index)
        if model is None:
            return f"unknown delay model {event.params.get('model')!r}"
        self.kernel.delay_model = model
        return None

    def _delay_model(self, event: FaultEvent,
                     index: int) -> Optional[DelayModel]:
        name = str(event.params.get("model", "uniform"))
        seed = derive_seed(self.schedule.seed, "event", index, "delay")
        if name == "zero":
            return ZeroDelay()
        if name == "constant":
            return ConstantDelay(float(event.params.get("latency", 1.0)))
        if name == "uniform":
            low = float(event.params.get("low", 0.0))
            high = float(event.params.get("high", 2.0))
            return UniformDelay(low, high, seed=seed)
        if name == "exponential":
            base = float(event.params.get("base", 0.1))
            mean = float(event.params.get("mean", 1.0))
            return ExponentialDelay(base, mean, seed=seed)
        return None

    def _apply_gray(self, index: int, event: FaultEvent) -> Optional[str]:
        indices = [int(i) for i in event.params.get("objects", [])]
        if not indices:
            return "gray needs 'objects'"
        if any(not 0 <= i < self.config.num_objects for i in indices):
            return "gray object index out of range"
        slow = float(event.params.get("slow", 50.0))
        fast = float(event.params.get("fast", 1.0))
        self.kernel.delay_model = SlowProcessDelay(
            [obj(i) for i in indices], fast=fast, slow=slow)
        return None

    def _apply_clock_skew(self, index: int,
                          event: FaultEvent) -> Optional[str]:
        delta = float(event.params.get("delta", 10.0))
        if delta < 0:
            return "clock skew must be non-negative"
        self.kernel.advance_clock(delta)
        return None

    def _apply_epoch_skew(self, index: int,
                          event: FaultEvent) -> Optional[str]:
        register = str(event.params.get("register", DEFAULT_REGISTER))
        writer_index = int(event.params.get("writer_index", 0))
        epoch = int(event.params.get("epoch", 0))
        if writer_index >= self.config.num_writers:
            return f"writer index {writer_index} out of range"
        try:
            state = self.system.writer_state_for(register, writer_index)
        except Exception:  # pragma: no cover - defensive
            return f"no writer state for {register!r}"
        if not hasattr(state, "ts"):
            return "writer state has no timestamp floor"
        state.ts = max(state.ts, epoch)
        return None

    def _apply_drop(self, index: int, event: FaultEvent) -> Optional[str]:
        target = self._object_index(event)
        if target is None:
            return "drop needs a valid 'object' index"
        pid = obj(target)
        if pid not in self.kernel.byzantine_processes():
            return f"s{target + 1} is not Byzantine; cannot drop its traffic"
        dropped = self.kernel.drop_messages(
            lambda env: env.sender == pid or env.receiver == pid)
        self.dropped_messages += dropped
        return None


__all__ = ["FaultInjector"]
