"""Tests for the Proposition 1 machinery: blocks, driver, victims, figure."""

import pytest

from repro.config import SystemConfig
from repro.core.lower_bound import (ALL_RULES, BlockPartition,
                                    FastReadProtocol, LowerBoundDriver,
                                    ReplayResponder, RULE_HIGHEST_TS,
                                    RULE_MAJORITY, RULE_THRESHOLD, figure1,
                                    run_lower_bound)
from repro.core.atomic import AtomicStorageProtocol
from repro.core.regular import (CachedRegularStorageProtocol,
                                RegularStorageProtocol)
from repro.core.safe import SafeStorageProtocol
from repro.errors import ConfigurationError, ProtocolError
from repro.spec import check_safety
from repro.system import StorageSystem
from repro.types import BOTTOM


class TestBlockPartition:
    def test_sizes_at_threshold(self):
        config = SystemConfig.at_impossibility_threshold(2, 2)
        part = BlockPartition.for_config(config)
        assert len(part.t1) == len(part.t2) == 2
        assert len(part.b1) == len(part.b2) == 2
        all_indices = part.t1 + part.t2 + part.b1 + part.b2
        assert sorted(all_indices) == list(range(8))

    def test_below_threshold_still_partitions(self):
        config = SystemConfig.with_objects(t=2, b=2, num_objects=7)
        part = BlockPartition.for_config(config)
        assert len(part.b1) >= 1 and len(part.b2) >= 1
        assert len(part.b1) <= 2 and len(part.b2) <= 2

    def test_rejects_b_zero(self):
        config = SystemConfig.with_objects(t=2, b=0, num_objects=6)
        with pytest.raises(ConfigurationError):
            BlockPartition.for_config(config)

    def test_rejects_above_threshold(self):
        config = SystemConfig.with_objects(t=1, b=1, num_objects=5)
        with pytest.raises(ConfigurationError):
            BlockPartition.for_config(config)

    def test_block_name_lookup(self):
        config = SystemConfig.at_impossibility_threshold(1, 1)
        part = BlockPartition.for_config(config)
        assert part.block_name(part.t1[0]) == "T1"
        assert part.block_name(part.b2[0]) == "B2"
        with pytest.raises(KeyError):
            part.block_name(99)


class TestVictims:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ProtocolError):
            FastReadProtocol("coin-flip")

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_benign_sequential_behaviour(self, rule):
        config = SystemConfig.at_impossibility_threshold(2, 1)
        system = StorageSystem(FastReadProtocol(rule), config)
        system.write("x")
        assert system.read(0) == "x"
        handle = system.read_handle(0)
        assert handle.rounds_used == 1  # it really is fast

    def test_threshold_rule_safe_above_bound(self):
        """At S = 2t+2b+1 the threshold fast read is actually safe."""
        config = SystemConfig.with_objects(t=1, b=1, num_objects=5)
        from repro.adversary import adversarial_suite
        for plan in adversarial_suite(config):
            system = StorageSystem(FastReadProtocol(RULE_THRESHOLD), config)
            plan.apply(system)
            system.write("a")
            system.read(0)
            system.write("b")
            system.read(0)
            check_safety(system.history).assert_ok()


class TestDriver:
    @pytest.mark.parametrize("t,b", [(1, 1), (2, 1), (2, 2)])
    def test_highest_ts_rule_dies_in_run5(self, t, b):
        report = run_lower_bound(lambda: FastReadProtocol(RULE_HIGHEST_TS),
                                 t=t, b=b)
        assert report.violated
        assert report.violation_run == "run5"
        assert report.runs["run5"].value == "v1"  # never written!

    @pytest.mark.parametrize("t,b", [(1, 1), (2, 1), (2, 2)])
    def test_majority_rule_dies_in_run4(self, t, b):
        report = run_lower_bound(lambda: FastReadProtocol(RULE_MAJORITY),
                                 t=t, b=b)
        assert report.violated
        assert report.violation_run == "run4"
        assert report.runs["run4"].value is BOTTOM  # missed a write

    def test_threshold_rule_dies_at_bound(self):
        report = run_lower_bound(lambda: FastReadProtocol(RULE_THRESHOLD),
                                 t=2, b=1)
        assert report.violated

    def test_indistinguishability_verified(self):
        report = run_lower_bound(lambda: FastReadProtocol(RULE_HIGHEST_TS),
                                 t=1, b=1)
        assert report.indistinguishable
        values = {report.runs[name].value for name in ("run3", "run4",
                                                       "run5")}
        assert len(values) == 1

    @pytest.mark.parametrize("factory,t,b", [
        pytest.param(factory, t, b, id=factory.__name__
                     + ("" if (t, b) == (1, 1) else f"-t{t}b{b}"))
        for factory in (SafeStorageProtocol, RegularStorageProtocol,
                        CachedRegularStorageProtocol, AtomicStorageProtocol)
        for t, b in ((1, 1), (2, 2))])
    def test_two_round_protocols_survive(self, factory, t, b):
        """Round 2 is spent exactly where the construction forces it."""
        worst = factory.read_rounds_worst_case  # 2, or 3 with write-back
        report = run_lower_bound(factory, t=t, b=b)
        assert not report.violated
        assert report.survived_by_blocking
        assert report.blocked_run == "run5"
        # and when they do answer (runs 3, 4), they answer correctly --
        # after the second round the construction forces
        for name in ("run3", "run4"):
            assert report.runs[name].value == "v1"
            assert report.runs[name].rounds_used == worst
        # Fault-free on the same config, round-1 evidence decides.
        system = StorageSystem(factory(), report.config)
        system.write("v1")
        handle = system.read_handle(0)
        assert handle.result == "v1"
        assert handle.rounds_used == worst - 1

    def test_report_renders(self):
        report = run_lower_bound(lambda: FastReadProtocol(RULE_MAJORITY),
                                 t=1, b=1)
        text = report.render()
        assert "SAFETY VIOLATED" in text
        assert "run4" in text

    def test_custom_written_value(self):
        report = run_lower_bound(lambda: FastReadProtocol(RULE_HIGHEST_TS),
                                 t=1, b=1, written_value="payload-42")
        assert report.runs["run5"].value == "payload-42"

    def test_smaller_s_also_covered(self):
        """The proof covers any S in [2t+2, 2t+2b]."""
        report = run_lower_bound(lambda: FastReadProtocol(RULE_MAJORITY),
                                 t=2, b=2, num_objects=7)
        assert report.violated


class TestReplayResponder:
    def test_replays_in_order_then_falls_back(self):
        from repro.core.lower_bound.victims import FastObject
        from repro.messages import ReadRequest, ReadAck
        from repro.types import reader
        config = SystemConfig.at_impossibility_threshold(1, 1)
        honest = FastObject(0, config)
        recorded = ["first", "second"]
        responder = ReplayResponder(honest, recorded)
        r1 = responder.on_message(reader(0), ReadRequest(1, 1, 0))
        r2 = responder.on_message(reader(0), ReadRequest(1, 2, 0))
        assert r1 == [(reader(0), "first")]
        assert r2 == [(reader(0), "second")]
        # exhausted: nothing more to say
        assert responder.on_message(reader(0), ReadRequest(1, 3, 0)) == []
        assert responder.replayed == 2


class TestFigure1:
    def test_contains_all_runs(self):
        art = figure1(t=1, b=1)
        for run in ("run1", "run2", "run3", "run4", "run5"):
            assert run in art

    def test_mentions_blocks_and_contradiction(self):
        art = figure1(t=2, b=2)
        assert "T1" in art and "B2" in art
        assert "CONTRADICTION" in art

    def test_parameterized_write_rounds(self):
        art = figure1(t=1, b=1, write_rounds=3)
        assert "wr1:3" in art
