"""Chaos harness: strategies, schedules, injection, exploration, shrinking.

The acceptance-critical checks live here:

* **Determinism** -- the same ``(seed, scenario)`` pair produces a
  bit-identical post-run state fingerprint across two runs
  (``explore._fingerprint`` over automata, pending ops and in-transit
  messages);
* **Bug finding** -- a deliberately planted protocol mutant (a fast
  reader that accepts a single ack as a quorum) is found by the seeded
  explorer, shrunk to a minimal reproducer (well under the 5-event
  bound), and the serialized reproducer replays to the same checker
  violation and fingerprint;
* **Verdict counters** -- partition blocks, adversarial drops and
  per-strategy intercept counts surface in run verdicts;
* **Crash-during-reconfig** -- the named service-tier scenario kills a
  replica mid ``ReconfigCoordinator`` handoff and stays gated on
  ``check_mwmr_atomicity`` + ``check_snapshot_consistency``.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.adversary import (STRATEGIES, build_strategy, spec_of,
                             strategy_names)
from repro.adversary import byzantine as byz
from repro.chaos import (SCENARIOS, ChaosScenario, FaultEvent, FaultInjector,
                         FaultSchedule, WorkloadOp, derive_seed, explore,
                         format_pid, generate_schedule, get_scenario,
                         parse_pid, replay_reproducer, run_chaos,
                         run_crash_during_reconfig, run_seed,
                         save_reproducer, shrink, validate_schedule)
from repro.chaos.explorer import load_reproducer, reproducer_dict
from repro.config import SystemConfig
from repro.core.lower_bound import FastReadProtocol
from repro.errors import ConfigurationError
from repro.sim.schedulers import RandomScheduler
from repro.spec import checkers
from repro.system import StorageSystem
from repro.types import WriterTag, obj, reader


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


class TestSeeds:
    @given(st.integers(min_value=0, max_value=2 ** 62), st.text(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_derivation_is_deterministic_and_positive(self, master, label):
        a = derive_seed(master, label)
        b = derive_seed(master, label)
        assert a == b
        assert 0 <= a < 2 ** 63

    def test_sibling_labels_get_independent_streams(self):
        seeds = {derive_seed(7, "scheduler"), derive_seed(7, "delay"),
                 derive_seed(7, "strategy", 0), derive_seed(7, "strategy", 1),
                 derive_seed(8, "scheduler")}
        assert len(seeds) == 5


# ---------------------------------------------------------------------------
# Strategy library
# ---------------------------------------------------------------------------


def _honest(config=None):
    from repro.core.safe import SafeStorageProtocol
    config = config or SystemConfig.optimal(t=1, b=1, num_readers=2)
    return SafeStorageProtocol().make_objects(config)[0], config


class TestStrategies:
    def test_registry_covers_every_adversary_wrapper(self):
        """Every shipped wrapper is registered under its declared name."""
        shipped = [
            cls for cls in vars(byz).values()
            if isinstance(cls, type) and issubclass(cls, byz.ByzantineWrapper)
            and cls is not byz.ByzantineWrapper
        ]
        assert len(shipped) == 14
        for cls in shipped:
            assert STRATEGIES[cls.strategy] is cls
        assert STRATEGIES["after-step"] == \
            byz.SwitchingByzantine.after_step

    def test_only_a_new_declared_name_registers(self):
        before = dict(STRATEGIES)

        class TestDouble(byz.ValueForger):
            pass

        assert STRATEGIES == before
        with pytest.raises(ConfigurationError, match="duplicate"):
            class Impostor(byz.ByzantineWrapper):
                strategy = "forger"

    def test_params_are_constructor_keywords(self):
        inner, config = _honest()
        forged = build_strategy(spec_of(
            "delay-then-forge", forged_value="LATE", quiet=1))(inner, config)
        assert forged.quiet == 1
        assert forged._forger.forged_value == "LATE"
        tagged = build_strategy(spec_of(
            "stale-tag", forged_tag=[3, 1]))(inner, config)  # JSON form
        assert tagged.forged_tag == WriterTag(3, 1)
        with pytest.raises(ConfigurationError, match="value"):
            build_strategy(spec_of("forger", value="X"))

    def test_readme_strategy_table_lists_every_strategy(self):
        lines = (Path(__file__).parent.parent / "README.md").read_text(
            encoding="utf-8").splitlines()
        start = lines.index("| Strategy | Conduct |") + 2
        listed = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            listed += re.findall(r"`([^`]+)`", line.split("|")[1])
        assert sorted(listed) == strategy_names()

    def test_build_by_name_and_by_spec(self):
        inner, config = _honest()
        assert isinstance(build_strategy("silent")(inner, config),
                          byz.MuteByzantine)
        forged = build_strategy(spec_of("forger", ts_boost=7))(inner, config)
        assert isinstance(forged, byz.ValueForger)
        assert forged.ts_boost == 7

    def test_unknown_strategy_raises(self):
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            build_strategy("nope")

    def test_after_step_is_honest_then_corrupt(self):
        from repro.messages import ReadRequest
        inner, config = _honest()
        wrapped = build_strategy(
            spec_of("after-step", after=2, strategy="silent"))(inner, config)

        def ask(tsr):
            return wrapped.on_message(
                reader(0), ReadRequest(round_index=1, tsr=tsr, reader_index=0))

        assert ask(1) and ask(2)     # honest replies pre-threshold
        assert ask(3) == []          # mute afterwards

    def test_probabilistic_is_seed_deterministic(self):
        from repro.messages import ReadRequest

        def run_once(seed):
            inner, config = _honest()
            wrapped = build_strategy(
                spec_of("probabilistic", p=0.5, strategy="silent"),
                seed=seed)(inner, config)
            return [bool(wrapped.on_message(
                reader(0), ReadRequest(round_index=1, tsr=t, reader_index=0)))
                for t in range(1, 13)]

        assert run_once(3) == run_once(3)
        assert run_once(3) != run_once(4)  # astronomically unlikely to tie

    def test_every_registered_strategy_builds(self):
        inner, config = _honest()
        for name in strategy_names():
            if name == "sequence":
                spec = spec_of("sequence", stages=[
                    {"after": 0}, {"after": 3, "strategy": "silent"}])
            else:
                spec = name
            automaton = build_strategy(spec, seed=11)(inner, config)
            assert automaton.object_index == inner.object_index


# ---------------------------------------------------------------------------
# Schedule DSL
# ---------------------------------------------------------------------------


class TestSchedule:
    def test_pid_round_trip(self):
        for text in ("s1", "s4", "r1", "r2", "w", "w2"):
            assert format_pid(parse_pid(text)) == text
        with pytest.raises(ConfigurationError):
            parse_pid("x9")

    def test_json_round_trip(self):
        schedule = FaultSchedule(seed=5, scenario="swmr-regular", events=(
            FaultEvent(3, "partition", {
                "groups": [["s1"], ["s2", "s3", "s4", "w", "r1"]],
                "tag": "cut"}),
            FaultEvent(20, "heal", {"tag": "cut"}),
            FaultEvent(9, "corrupt", {"object": 1, "strategy": "silent"}),
        ))
        back = FaultSchedule.from_json(schedule.to_json())
        assert back == schedule
        # Events store sorted by step regardless of construction order.
        assert [e.at_step for e in back.events] == [3, 9, 20]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultEvent(0, "meteor", {})

    def test_validate_flags_budget_violations(self):
        config = SystemConfig.optimal(t=1, b=1, num_readers=1)
        schedule = FaultSchedule(seed=0, events=(
            FaultEvent(0, "corrupt", {"object": 0, "strategy": "silent"}),
            FaultEvent(1, "crash", {"object": 1}),
            FaultEvent(2, "crash", {"object": 2}),
        ))
        problems = validate_schedule(schedule, config)
        assert any("exceed" in p for p in problems)
        assert validate_schedule(FaultSchedule(seed=0), config) == []


# ---------------------------------------------------------------------------
# Harness: named scenarios, determinism, counters
# ---------------------------------------------------------------------------


class TestHarness:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_named_scenarios_absorb_generated_chaos(self, name):
        scenario = get_scenario(name)
        for seed in range(3):
            _, verdict = run_seed(scenario, seed)
            assert verdict.ok, verdict.violations()

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_same_seed_same_fingerprint(self, name):
        """Acceptance: (seed, scenario) -> bit-identical state, twice."""
        scenario = get_scenario(name)
        for seed in (0, 5):
            schedule_a, verdict_a = run_seed(scenario, seed)
            schedule_b, verdict_b = run_seed(scenario, seed)
            assert schedule_a == schedule_b
            assert verdict_a.fingerprint == verdict_b.fingerprint
            assert verdict_a.counters == verdict_b.counters

    def test_fingerprint_is_stable_across_processes(self):
        """A fingerprint depends on (scenario, seed) alone: two fresh
        interpreters with different string-hash seeds (and different
        identity hashes, by address-space randomisation) agree, so a
        saved reproducer's fingerprint can be re-checked later."""
        script = (
            "from repro.chaos import get_scenario, run_seed\n"
            "for name, seed in (('swmr-regular', 2), ('mwmr-atomic', 0),"
            " ('safe-under-forgery', 0)):\n"
            "    print(name, run_seed(get_scenario(name), seed)[1]"
            ".fingerprint)\n")
        src = str(Path(repro.__file__).resolve().parents[1])

        def fingerprints(hash_seed):
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                       PYTHONPATH=src)
            return subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=300).stdout

        first = fingerprints(1)
        assert len(first.splitlines()) == 3
        assert fingerprints(2) == first

    def test_sweep_matches_golden_table(self):
        """Behaviour pin: seeds 0-7 of every named scenario reproduce the
        recorded ``(ok, steps, counters, failing_properties)``.  Counters
        (not the fingerprint, which pickles wrapper attributes) carry the
        class-name-keyed ``byzantine_intercepts``."""
        golden = json.loads((Path(__file__).parent
                             / "chaos_sweep_golden.json").read_text())
        got = {}
        for name in sorted(SCENARIOS):
            scenario = get_scenario(name)
            for seed in range(8):
                _, verdict = run_seed(scenario, seed)
                got[f"{name}/{seed}"] = [verdict.ok, verdict.steps,
                                         verdict.counters,
                                         verdict.failing_properties()]
        assert got == golden

    def test_fault_counters_surface_in_verdict(self):
        scenario = get_scenario("swmr-regular")
        schedule = FaultSchedule(seed=1, scenario=scenario.name, events=(
            FaultEvent(1, "corrupt", {"object": 1, "strategy": "silent"}),
            FaultEvent(2, "partition", {
                "groups": [["s1"], ["s2", "s3", "s4", "w", "r1", "r2"]],
                "tag": "cut"}),
            FaultEvent(12, "drop", {"object": 1}),
            FaultEvent(30, "heal", {"tag": "cut"}),
        ))
        verdict = run_chaos(scenario, schedule)
        assert verdict.ok, verdict.violations()
        counters = verdict.counters
        assert counters["events_applied"] == 4
        assert counters["partition_blocks"] > 0
        intercepts = counters["byzantine_intercepts"]
        assert intercepts["s2:MuteByzantine"] > 0
        assert counters["adversarial_drops"] >= 0
        assert counters["messages_delivered"] > 0

    def test_restore_lifts_a_crash_and_amnesia_costs_budget(self):
        scenario = get_scenario("swmr-regular")
        schedule = FaultSchedule(seed=2, scenario=scenario.name, events=(
            FaultEvent(1, "crash", {"object": 0}),
            FaultEvent(15, "restore", {"object": 0, "amnesia": True}),
            # b=1 is now spent on the amnesiac restart: a further corrupt
            # must be skipped, not applied.
            FaultEvent(20, "corrupt", {"object": 2, "strategy": "forger"}),
        ))
        verdict = run_chaos(scenario, schedule)
        assert verdict.ok, verdict.violations()
        assert verdict.counters["events_restore"] == 1
        assert verdict.counters["events_skipped"] == 1
        assert "s1:amnesiac-restart" in verdict.counters[
            "byzantine_intercepts"]

    def test_injector_skips_are_deterministic_data(self):
        scenario = get_scenario("swmr-regular")
        system = scenario.build(0)
        schedule = FaultSchedule(seed=0, events=(
            FaultEvent(0, "corrupt", {"object": 0, "strategy": "silent"}),
            FaultEvent(0, "corrupt", {"object": 1, "strategy": "silent"}),
        ))
        injector = FaultInjector(system, schedule)
        injector.apply_due(0)
        assert len(injector.applied) == 1
        assert len(injector.skipped) == 1
        assert "budget" in injector.skipped[0][1]


#: Events the injector cannot apply as written; each must become a skip.
MALFORMED_EVENTS = [
    ("corrupt", {"object": 1, "strategy": "nope"}),
    ("corrupt", {"object": 1, "strategy": {
        "name": "probabilistic", "params": {"p": 2}}}),
    ("corrupt", {"object": 1, "strategy": {"name": "sequence"}}),
    ("corrupt", {"object": 1, "strategy": {
        "name": "forger", "params": {"ts_boost": "x"}}}),
    ("partition", {"groups": [["s1"], ["x9"]]}),
    ("gray", {"objects": ["a"]}),
    ("clock_skew", {"delta": "soon"}),
    ("delay", {"model": "uniform", "low": 3.0, "high": 1.0}),
]


@pytest.mark.parametrize("kind,params", MALFORMED_EVENTS,
                         ids=[f"{kind}-{i}" for i, (kind, _)
                              in enumerate(MALFORMED_EVENTS)])
def test_malformed_event_is_a_recorded_skip(kind, params):
    scenario = get_scenario("swmr-regular")
    schedule = FaultSchedule(seed=3, scenario=scenario.name,
                             events=(FaultEvent(1, kind, params),))
    verdict = run_chaos(scenario, schedule)
    assert verdict.ok, verdict.violations()
    assert verdict.counters["events_applied"] == 0
    assert verdict.counters["events_skipped"] == 1


# ---------------------------------------------------------------------------
# Explorer: generation properties, the planted mutant, shrinking, replay
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_generated_schedules_are_deterministic_and_legal(seed):
    scenario = get_scenario("swmr-regular")
    schedule = generate_schedule(scenario, seed)
    again = generate_schedule(scenario, seed)
    assert schedule.to_json() == again.to_json()
    system = scenario.build(seed)
    assert validate_schedule(schedule, system.config) == []


class SabotagedFastRead(FastReadProtocol):
    """Planted mutant: accepts a single ack as a full read quorum.

    Test-only -- the chaos explorer must find the resulting safety
    violation and shrink the trigger to a minimal schedule.
    """

    name = "sabotaged-fast"

    def __init__(self):
        super().__init__("highest-ts")

    def make_read(self, reader_state):
        operation = super().make_read(reader_state)
        operation.config = SystemConfig.with_objects(
            t=reader_state.config.num_objects - 1, b=0,
            num_objects=reader_state.config.num_objects)
        return operation


def mutant_scenario() -> ChaosScenario:
    config = SystemConfig.optimal(t=1, b=1, num_readers=1)

    def build(seed: int) -> StorageSystem:
        return StorageSystem(
            SabotagedFastRead(), config,
            scheduler=RandomScheduler(seed=derive_seed(seed, "scheduler")),
            trace_enabled=False)

    return ChaosScenario(
        name="mutant-fast-read",
        description="planted bug: read quorum of one",
        build=build,
        workload=(WorkloadOp(0, "write", 0, "v0"),
                  WorkloadOp(25, "read", 0)),
        checkers=(checkers.check_safety,),
        event_kinds=("partition",),
        max_events=4,
        event_window=20,
    )


class TestMutantHunt:
    def test_explorer_finds_shrinks_and_replays_the_planted_bug(
            self, tmp_path, monkeypatch):
        scenario = mutant_scenario()

        # 1. A healthy protocol absorbs the same schedules: the explorer
        # only fires on the mutant, not on chaos noise.
        report = explore(scenario, range(10), stop_at_first_failure=True)
        failure = report.first_failure()
        assert failure is not None, "explorer missed the planted bug"
        schedule, verdict = failure
        assert verdict.failing_properties() == ["safety"]

        # 2. Shrinking: minimal reproducer, well under the 5-event bound.
        result = shrink(scenario, schedule, verdict)
        assert len(result.schedule.events) <= 5
        assert result.verdict.failing_properties() == ["safety"]

        # 3. The JSON reproducer replays to the same violation and the
        # same post-run state fingerprint.
        path = tmp_path / "reproducer.json"
        save_reproducer(str(path), result.schedule, result.verdict)
        data = load_reproducer(str(path))
        monkeypatch.setitem(SCENARIOS, scenario.name, mutant_scenario)
        replayed = replay_reproducer(data)
        assert replayed.failing_properties() == ["safety"]
        assert replayed.fingerprint == result.verdict.fingerprint
        assert replayed.violations() == result.verdict.violations()

    def test_replay_exits_nonzero_when_expected_failure_is_missing(
            self, tmp_path, monkeypatch, capsys):
        from repro.chaos.cli import main
        scenario = mutant_scenario()
        schedule, verdict = explore(
            scenario, range(10), stop_at_first_failure=True).first_failure()
        monkeypatch.setitem(SCENARIOS, scenario.name, mutant_scenario)
        data = reproducer_dict(schedule, verdict)
        faithful = tmp_path / "faithful.json"
        faithful.write_text(json.dumps(data))
        assert main(["--replay", str(faithful)]) == 0
        # It fails safety, not the liveness this reproducer promises.
        data["expected"]["failing_properties"] = ["liveness"]
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(data))
        assert main(["--replay", str(stale)]) != 0
        assert "DID NOT REPRODUCE" in capsys.readouterr().out

    def test_reproducer_json_is_self_describing(self, tmp_path):
        scenario = mutant_scenario()
        report = explore(scenario, range(10), stop_at_first_failure=True)
        schedule, verdict = report.first_failure()
        data = reproducer_dict(schedule, verdict)
        text = json.dumps(data)  # must be pure JSON, no custom types
        parsed = json.loads(text)
        assert parsed["scenario"] == "mutant-fast-read"
        assert parsed["expected"]["failing_properties"] == ["safety"]


# ---------------------------------------------------------------------------
# Crash during reconfiguration (service tier)
# ---------------------------------------------------------------------------


class TestCrashDuringReconfig:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_handoff_survives_a_replica_crash(self, seed):
        verdict = run_crash_during_reconfig(seed)
        assert verdict.ok, verdict.violations()
        assert verdict.counters["killed"] == 1
        assert verdict.counters["keys_moved"] > 0
        checked = {check.property_name for check in verdict.checks}
        assert any("atomic" in name for name in checked)
        assert any("snapshot" in name for name in checked)

    def test_fault_choice_is_seed_stable(self):
        a = run_crash_during_reconfig(0)
        b = run_crash_during_reconfig(0)
        assert a.counters["kill_stage"] == b.counters["kill_stage"]
        assert a.counters["kill_replica"] == b.counters["kill_replica"]
