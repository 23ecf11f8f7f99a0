"""``reprolint``: protocol-aware static analysis for this codebase.

The test suite exercises protocol *behaviour*; this package mechanically
checks protocol *structure* -- the invariants that no single test owns
and that example-based testing misses by construction (Gomes et al.,
"Verifying Strong Eventual Consistency in Distributed Systems" make the
general case for mechanically checking protocol-implementation parity):

* :mod:`.rules_async` -- the asyncio analogue of a race detector
  (read-check-act on shared attributes straddling an ``await``) and a
  blocking-call-in-async lint (``os.fsync``, ``time.sleep``, file
  ``flush``, synchronous subprocess/socket work on an event loop);
* :mod:`.rules_registry` -- message/codec/automata exhaustiveness:
  every :class:`~repro.messages.Message` subclass is slotted and has a
  wire codec, kind bytes are unique and stable,
  and batch fast paths are only reached through
  :func:`~repro.automata.base.resolve_batch_handler`;
* :mod:`.rules_determinism` -- SimKernel-reachable modules must stay
  deterministic: no ambient wall clocks, no process-global RNG, no
  unordered-set iteration flowing into message payloads;
* :mod:`.rules_chaos` -- every ``ByzantineWrapper`` subclass must be
  reachable from the chaos strategy registry, so the seeded chaos
  sweep stays exhaustive as strategies grow.

Run it as ``python -m repro.analysis [paths...]`` or via the
``reprolint`` console script; suppress a deliberate violation with
``# reprolint: ok[rule-id] -- reason``.
"""

from .core import (Finding, ProjectRule, Rule, SourceFile, all_rules,
                   iter_python_files, register_rule, run_analysis)

# Importing the rule modules registers every rule with the registry.
from . import rules_async  # noqa: E402,F401  (import-for-effect)
from . import rules_chaos  # noqa: E402,F401
from . import rules_determinism  # noqa: E402,F401
from . import rules_registry  # noqa: E402,F401

__all__ = [
    "Finding",
    "ProjectRule",
    "Rule",
    "SourceFile",
    "all_rules",
    "iter_python_files",
    "register_rule",
    "run_analysis",
]
