"""Deterministic chaos harness: strategies × schedules × shrinking.

The paper's theorems quantify over *every* execution under the
``(t, b)`` adversary; hand-written tests only visit a few.  This
package explores the space mechanically while keeping every run
replayable from one integer:

* :mod:`~repro.chaos.schedule` -- declarative :class:`FaultSchedule`
  events applied at deterministic kernel steps, with a JSON form;
* :mod:`~repro.chaos.inject` -- the :class:`FaultInjector` applying
  them to a live system within the fault budget;
* :mod:`~repro.chaos.harness` -- named scenarios and
  :func:`run_chaos`, gating every run on the spec checkers;
* :mod:`~repro.chaos.explorer` -- seeded schedule generation, seed
  sweeps, ddmin shrinking, and reproducer save/replay;
* :mod:`~repro.chaos.reconfig_chaos` -- the service-tier
  crash-during-reconfig scenario;
* ``python -m repro.chaos`` -- the CI smoke matrix CLI.

The Byzantine strategies a schedule's ``corrupt`` events name live in
:mod:`repro.adversary` (``build_strategy``, ``spec_of``,
``strategy_names``): each is declared once, on its wrapper class.
"""

from ..seeds import derive_seed
from .explorer import (ExploreReport, ShrinkResult, explore,
                       generate_schedule, load_reproducer,
                       replay_reproducer, reproducer_dict, run_seed,
                       save_reproducer, shrink)
from .harness import (SCENARIOS, ChaosScenario, ChaosVerdict, CheckOutcome,
                      WorkloadOp, get_scenario, run_chaos)
from .inject import FaultInjector
from .reconfig_chaos import CRASH_DURING_RECONFIG, run_crash_during_reconfig
from .schedule import (EVENT_KINDS, FaultEvent, FaultSchedule, format_pid,
                       parse_pid, validate_schedule)

__all__ = [
    "CRASH_DURING_RECONFIG",
    "ChaosScenario",
    "ChaosVerdict",
    "CheckOutcome",
    "EVENT_KINDS",
    "ExploreReport",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "SCENARIOS",
    "ShrinkResult",
    "WorkloadOp",
    "derive_seed",
    "explore",
    "format_pid",
    "generate_schedule",
    "get_scenario",
    "load_reproducer",
    "parse_pid",
    "replay_reproducer",
    "reproducer_dict",
    "run_chaos",
    "run_crash_during_reconfig",
    "run_seed",
    "save_reproducer",
    "shrink",
    "validate_schedule",
]
