"""Workload definitions, the seeded op-list generator and the O(1) value check.

A workload fixes everything about a trial except the seed: protocol,
deployment, key count, read share, call shape and op counts.  The seed
only decides *which keys, in which order* -- the number of gets and puts
is exact (a shuffled multiset, not a coin per op), so message counts and
per-call-type sample sizes do not drift with the seed.

Values are ``"<key>|<seq>"``.  Key ``k`` (by index) is written only by
client ``k mod 2``, so every key has one writer and its ``seq`` is a
plain counter: that is what makes the regularity window checkable in
O(1) per op (:class:`WindowChecker`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

NUM_CLIENTS = 2
GET, PUT = "get", "put"
FORGED_VALUE = "STALE-TAG"

#: one call of the front door: (kind, keys).  Single-key calls carry one
#: key; ``batch_inproc`` calls carry ``Workload.batch`` keys.
Call = Tuple[str, Tuple[str, ...]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocol: str            # "cached_regular" | "atomic"
    num_shards: int
    num_keys: int
    get_fraction: float
    solo_calls: int          # client 0 alone
    loaded_calls: int        # per client, 2 clients in a closed loop
    batch: int = 1           # keys per call (1 = get/put, else *_many)
    multiproc: bool = False
    fast_reads: bool = False
    byzantine: bool = False

    def smoke(self) -> "Workload":
        """The same shape at a size the tier-1 smoke test can afford."""
        return replace(self, num_keys=64, solo_calls=12, loaded_calls=12,
                       batch=min(self.batch, 16))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="mixed_inproc",
        why=("single-key 50/50 get/put in one process: per-call dispatch "
             "(asyncio, hosts, memnet) dominates; codec, TCP and WAL are "
             "bypassed"),
        protocol="cached_regular", num_shards=1, num_keys=1024,
        get_fraction=0.5, solo_calls=1000, loaded_calls=1500),
    Workload(
        name="batch_inproc",
        why=("256-key put_many/get_many over 2 shards: vector rounds "
             "amortise dispatch, so the replica and client automata and "
             "the shard split/merge do the work"),
        protocol="cached_regular", num_shards=2, num_keys=2048,
        get_fraction=0.5, solo_calls=12, loaded_calls=16, batch=256),
    Workload(
        name="mixed_multiproc",
        why=("the mixed_inproc mix against one replica child process with "
             "a batch-fsync WAL: codec, TCP, process hop and WAL do the "
             "work; its ops_per_s over mixed_inproc is the multiproc tax"),
        protocol="cached_regular", num_shards=1, num_keys=1024,
        get_fraction=0.5, solo_calls=160, loaded_calls=200,
        multiproc=True),
    Workload(
        name="readheavy_byz",
        why=("90/10 atomic reads with tag-lease fast reads beside writes, "
             "replica 0 a StaleTagForger vouching for every lease: the "
             "read path (probe first, classic rounds on refutation) and "
             "the Byzantine path"),
        protocol="atomic", num_shards=1, num_keys=1024,
        get_fraction=0.9, solo_calls=1000, loaded_calls=1500,
        fast_reads=True, byzantine=True),
)}


@dataclass(frozen=True)
class Plan:
    """The fixed op list every trial of one run replays."""
    keys: Tuple[str, ...]
    solo: Tuple[Call, ...]
    loaded: Tuple[Tuple[Call, ...], ...]   # one list per client

    def owned_by(self, client: int) -> List[str]:
        return list(self.keys[client::NUM_CLIENTS])


def _kinds(rng: random.Random, calls: int, get_fraction: float,
           alternate: bool) -> List[str]:
    if alternate:  # batch rounds: put_many then get_many
        return [PUT if i % 2 == 0 else GET for i in range(calls)]
    gets = round(calls * get_fraction)
    kinds = [GET] * gets + [PUT] * (calls - gets)
    rng.shuffle(kinds)
    return kinds


def _calls(rng: random.Random, workload: Workload, keys: Sequence[str],
           client: int, calls: int) -> Tuple[Call, ...]:
    own = keys[client::NUM_CLIENTS]
    out: List[Call] = []
    for kind in _kinds(rng, calls, workload.get_fraction,
                       alternate=workload.batch > 1):
        pool = own if kind == PUT else keys
        if workload.batch > 1:
            chosen = tuple(rng.sample(pool, workload.batch))
        else:
            chosen = (pool[rng.randrange(len(pool))],)
        out.append((kind, chosen))
    return tuple(out)


def make_plan(workload: Workload, seed: int) -> Plan:
    """Same (workload, seed) -> same plan, on every machine."""
    rng = random.Random(f"{workload.name}:{seed}")
    keys = tuple(f"key-{i:05d}" for i in range(workload.num_keys))
    solo = _calls(rng, workload, keys, 0, workload.solo_calls)
    loaded = tuple(_calls(rng, workload, keys, client, workload.loaded_calls)
                   for client in range(NUM_CLIENTS))
    return Plan(keys=keys, solo=solo, loaded=loaded)


class WindowChecker:
    """O(1)-per-op regularity window over ``"<key>|<seq>"`` values.

    A ``get`` of ``key`` is valid iff its ``seq`` lies between the
    owner's last ``put`` *completed* before the get was invoked and its
    last ``put`` *invoked* before the get returned.  With one call in
    flight (solo phase) the window is a single value.
    """

    def __init__(self, keys: Sequence[str]):
        self.invoked: Dict[str, int] = dict.fromkeys(keys, 0)
        self.completed: Dict[str, int] = dict.fromkeys(keys, 0)
        self.attempted = 0
        self.failed = 0
        self.forged_values = 0
        self.first_failure: Optional[str] = None

    # -- puts ---------------------------------------------------------------
    def next_values(self, keys: Sequence[str]) -> Dict[str, str]:
        """Mark puts invoked; returns the values to write."""
        invoked = self.invoked
        items = {}
        for key in keys:
            seq = invoked[key] = invoked[key] + 1
            items[key] = f"{key}|{seq}"
        return items

    def puts_completed(self, keys: Sequence[str]) -> None:
        for key in keys:
            self.completed[key] = self.invoked[key]
        self.attempted += len(keys)

    # -- gets ---------------------------------------------------------------
    def floors(self, keys: Sequence[str]) -> List[int]:
        """Window lower bounds, taken when the get is invoked."""
        completed = self.completed
        return [completed[key] for key in keys]

    def check_get(self, key: str, floor: int, value: Any) -> bool:
        self.attempted += 1
        seq = -1
        if isinstance(value, str):
            got_key, sep, tail = value.rpartition("|")
            if sep and got_key == key and tail.isdigit():
                seq = int(tail)
        if floor <= seq <= self.invoked[key]:
            return True
        if value == FORGED_VALUE:
            self.forged_values += 1
        self.fail(f"get({key!r}) returned {value!r}; window "
                  f"[{floor}, {self.invoked[key]}]")
        return False

    def fail(self, what: str, ops: int = 0) -> None:
        """Count a failure (``ops`` > 0: a whole call raised)."""
        self.attempted += ops
        self.failed += max(ops, 1)
        if self.first_failure is None:
            self.first_failure = what
