"""E8 -- read latency under metric delay models (the practical payoff).

The paper's motivation: reads dominate real workloads, so read round-trips
dominate user-visible latency.  With the delay-model simulator the round
counts of E7 translate into latency distributions:

* at ``b = 0`` the crash-only baseline reads in ~1 RTT;
* the paper's safe reader decides on round-1 evidence fault-free: ~1 RTT
  (~2 one-way delays), with a 2-round worst case regardless of ``b``;
* the passive-reader baseline matches ~1 RTT fault-free but degrades
  toward ``(b+1)`` RTT under Byzantine forgery -- the crossover the
  paper's constant worst case is about.

Latency units are virtual (one-way delay drawn from the model); ratios,
not absolute values, are the result.
"""

from __future__ import annotations

from typing import List

from ...adversary import forger, max_byzantine
from ...baselines import PassiveReaderProtocol
from ...config import SystemConfig
from ...core.safe import SafeStorageProtocol
from ...sim import EarliestDeliveryScheduler, ExponentialDelay, UniformDelay
from ...system import StorageSystem
from ..metrics import OperationMetrics
from ..tables import render_table
from .base import ExperimentResult, register

NUM_READS = 30


def _read_latency(protocol_factory, config: SystemConfig, delay_model,
                  plan=None) -> float:
    system = StorageSystem(protocol_factory(), config,
                           scheduler=EarliestDeliveryScheduler(),
                           delay_model=delay_model)
    if plan is not None:
        plan.apply(system)
    system.write("v1")
    for _ in range(NUM_READS):
        system.read(0)
    metrics = OperationMetrics.from_history(system.history)
    return metrics.read_latency.mean


@register("E8")
def run() -> ExperimentResult:
    rows: List[List[object]] = []
    shape_ok = True

    for b in (1, 2, 3):
        t = b
        config = SystemConfig.optimal(t=t, b=b)
        for model_name, model_factory in (
                ("uniform(0.5,1.5)", lambda: UniformDelay(0.5, 1.5, seed=7)),
                ("exp(base=0.2,mean=0.5)",
                 lambda: ExponentialDelay(0.2, 0.5, seed=7))):
            gv = _read_latency(SafeStorageProtocol, config, model_factory())
            passive_ff = _read_latency(PassiveReaderProtocol, config,
                                       model_factory())
            passive_adv = _read_latency(
                PassiveReaderProtocol, config, model_factory(),
                plan=max_byzantine(config, forger()))
            rows.append([f"t=b={b}", model_name,
                         f"{gv:.2f}", f"{passive_ff:.2f}",
                         f"{passive_adv:.2f}",
                         f"{passive_adv / gv:.2f}x"])
            # Shape: fault-free passivity beats gv's one quorum round
            # trip, but under attack the ordering flips as b grows.
            shape_ok &= passive_ff < gv
            if b >= 2:
                shape_ok &= passive_adv > gv

    table = render_table(
        ["thresholds", "delay model", "gv-safe mean",
         "passive fault-free", "passive under forgery",
         "passive/gv (attacked)"],
        rows,
        title=f"Mean READ latency over {NUM_READS} reads (virtual time)")
    return ExperimentResult(
        experiment_id="E8",
        title="Read latency: 1 RTT (2-round worst case) vs b-dependent",
        paper_claim=("the worst-case read cost of prior optimally "
                     "resilient designs grows with b (b+1 rounds); the "
                     "paper's storage pins it at 2 regardless of b"),
        measured=("fault-free: passive 1-round reads win; under Byzantine "
                  "forgery the passive reader crosses over and loses for "
                  f"b >= 2 (shape holds: {shape_ok})"),
        ok=shape_ok,
        table=table,
    )
