"""Crash-during-reconfig: the named service-tier chaos scenario.

The sim-tier scenarios in :mod:`repro.chaos.harness` attack the paper's
protocols directly; this one attacks the *deployment machinery* built
on top of them -- the epoch-fenced shard handoff of
:class:`~repro.service.reconfig.ReconfigCoordinator`.  A seeded RNG
picks a handoff stage (``fenced`` / ``snapshotted`` / ``replayed``) and
a replica index, the coordinator's ``chaos_hook`` kills that replica at
exactly that stage of the first moved key, application write load keeps
hammering the store throughout, and the run is gated on
``check_mwmr_atomicity`` per register plus
``check_snapshot_consistency`` -- the two properties a botched handoff
would break first (a buried write surfaces as a tag inversion; a
half-flipped routing surfaces as an inconsistent cut).

The service tier runs on asyncio, so unlike the sim scenarios this one
carries no state fingerprint -- determinism here means the *fault
choice* is seed-stable, not the interleaving.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Dict, Optional

from ..api import Cluster, RetryPolicy
from ..config import SystemConfig
from ..core.atomic import AtomicStorageProtocol
from ..errors import SnapshotContentionError
from ..seeds import derive_seed
from ..spec.checkers import (check_mwmr_atomicity, check_per_register,
                             check_snapshot_consistency)
from .harness import ChaosVerdict, CheckOutcome

CRASH_DURING_RECONFIG = "crash-during-reconfig"

_STAGES = ("fenced", "snapshotted", "replayed")


async def _scenario(seed: int) -> ChaosVerdict:
    rng = random.Random(derive_seed(seed, CRASH_DURING_RECONFIG))
    config = SystemConfig.optimal(t=1, b=1, num_readers=2, num_writers=2)
    kill_stage = rng.choice(_STAGES)
    kill_replica = rng.randrange(config.num_objects)
    counters: Dict[str, Any] = {
        "kill_stage": kill_stage,
        "kill_replica": kill_replica,
        "killed": 0,
        "healed": 0,
        "writes_during_handoff": 0,
        "snapshots_taken": 0,
    }
    retry = RetryPolicy(attempts=80, backoff=0.001)
    async with Cluster(AtomicStorageProtocol, config, num_shards=2,
                       seed=derive_seed(seed, "cluster") % (2 ** 31),
                       record_history=True) as cluster:
        session = cluster.session(retry=retry)
        keys = [f"k:{n}" for n in range(10)]
        await session.put_many({key: f"v0:{key}" for key in keys})

        admin = cluster.admin()
        killed_shard: Dict[str, Optional[int]] = {"shard": None}

        def hook(stage: str, key: Optional[str]) -> None:
            # Kill exactly one replica, at the chosen stage of the first
            # key that reaches it.  The source store still holds the key
            # mid-handoff, so that's where the crash lands.
            if (stage == kill_stage and key is not None
                    and not counters["killed"]):
                store = cluster.kv.store_for(key)
                store.crash_object(kill_replica)
                for shard_id, shard in cluster.kv.shards.items():
                    if shard is store:
                        killed_shard["shard"] = shard_id
                counters["killed"] = 1

        admin.coordinator.chaos_hook = hook

        done = asyncio.Event()

        async def write_load() -> None:
            i = 0
            while not done.is_set():
                # The session retry policy must absorb every fence the
                # handoff installs; no FencedWriteError escapes here.
                await session.put(keys[i % len(keys)], f"mid:{i}")
                i += 1
                counters["writes_during_handoff"] = i
                await asyncio.sleep(0.002)

        loader = asyncio.create_task(write_load())
        try:
            report = await admin.add_shard()
        finally:
            done.set()
            await loader
        counters["keys_moved"] = len(report.moved)
        counters["keys_skipped"] = len(report.skipped)

        if counters["killed"] and killed_shard["shard"] in cluster.kv.shards:
            await admin.heal_replica(killed_shard["shard"], kill_replica)
            counters["healed"] = 1

        # Post-handoff traffic + a consistent cut across old and new
        # owners: the snapshot is what check_snapshot_consistency gates.
        await session.put_many({key: f"v1:{key}" for key in keys[:4]})
        snapper = cluster.session(retry=retry)
        try:
            snap = await snapper.snapshot(keys, max_rounds=16)
            counters["snapshots_taken"] = 1
            assert set(snap) == set(keys)
        except SnapshotContentionError:
            pass
        for key in keys:
            await session.get(key)

        history = cluster.history
        assert history is not None
        outcomes = [
            CheckOutcome.of(check_per_register(history,
                                               check_mwmr_atomicity)),
            CheckOutcome.of(check_snapshot_consistency(history)),
        ]
    return ChaosVerdict(
        scenario=CRASH_DURING_RECONFIG,
        seed=seed,
        ok=all(outcome.ok for outcome in outcomes),
        checks=outcomes,
        counters=counters,
        fingerprint="",  # asyncio tier: no deterministic state digest
        steps=0,
        truncated=False,
    )


def run_crash_during_reconfig(seed: int) -> ChaosVerdict:
    """Synchronous entry point (tests, CLI smoke matrix)."""
    return asyncio.run(_scenario(seed))


__all__ = ["CRASH_DURING_RECONFIG", "run_crash_during_reconfig"]
