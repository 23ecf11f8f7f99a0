"""Tests for the Byzantine behaviour library and fault plans."""

import pytest

from repro.adversary import (FaultPlan, adversarial_suite, max_byzantine,
                             max_crashes, no_faults, random_plan)
from repro.adversary.byzantine import (MuteByzantine, StaleReplier, TwoFaced,
                                       TsrInflater, ValueForger)
from repro.config import SystemConfig
from repro.core.safe import SafeStorageProtocol
from repro.core.safe.object import SafeObject
from repro.errors import ConfigurationError
from repro.messages import Pw, ReadRequest, W
from repro.system import StorageSystem
from repro.types import (TimestampValue, TsrArray, WRITER, WriteTuple, obj,
                         reader)


@pytest.fixture
def config():
    return SystemConfig.optimal(t=2, b=1, num_readers=1)


def fresh_object(config):
    return SafeObject(0, config)


def pw_message(config, ts, value="v"):
    pair = TimestampValue(ts, value)
    tup = WriteTuple(pair, TsrArray.empty(config.num_objects,
                                          config.num_readers))
    return Pw(ts=ts, pw=pair, w=tup)


class TestStrategies:
    def test_mute_swallows_everything(self, config):
        byz = MuteByzantine(fresh_object(config), config)
        assert byz.on_message(WRITER, pw_message(config, 1)) == []
        assert byz.on_message(reader(0), ReadRequest(1, 1, 0)) == []

    def test_stale_replier_denies_writes(self, config):
        byz = StaleReplier(fresh_object(config), config)
        assert byz.on_message(WRITER, pw_message(config, 1)) == []
        [(_, ack)] = byz.on_message(reader(0), ReadRequest(1, 1, 0))
        assert ack.pw.ts == 0  # still the initial state

    def test_two_faced_acks_writes_but_serves_stale(self, config):
        byz = TwoFaced(fresh_object(config), config)
        replies = byz.on_message(WRITER, pw_message(config, 1))
        assert len(replies) == 1  # the writer sees a healthy ack
        [(_, ack)] = byz.on_message(reader(0), ReadRequest(1, 1, 0))
        assert ack.pw.ts == 0     # the reader sees the initial state

    def test_value_forger_substitutes_payload(self, config):
        byz = ValueForger(fresh_object(config), config,
                          forged_value="EVIL", ts_boost=100)
        byz.on_message(WRITER, pw_message(config, 1))
        [(_, ack)] = byz.on_message(reader(0), ReadRequest(1, 1, 0))
        assert ack.pw.value == "EVIL"
        assert ack.pw.ts >= 100

    def test_tsr_inflater_plants_accusations(self, config):
        byz = TsrInflater(fresh_object(config), config, accused=[2])
        [(_, ack)] = byz.on_message(reader(0), ReadRequest(1, 1, 0))
        assert ack.w.tsrarray.get(2, 0) == 10**6

    def test_byzantine_keeps_object_index(self, config):
        byz = ValueForger(fresh_object(config), config)
        assert byz.object_index == 0


class TestFaultPlans:
    def test_validation_rejects_over_budget_byzantine(self, config):
        plan = FaultPlan(byzantine={0: ValueForger, 1: ValueForger})
        with pytest.raises(ConfigurationError):
            plan.validate(config)

    def test_validation_rejects_over_budget_total(self, config):
        plan = FaultPlan(crash_indices=[0, 1], byzantine={2: ValueForger})
        with pytest.raises(ConfigurationError):
            plan.validate(config)

    def test_validation_rejects_double_assignment(self, config):
        plan = FaultPlan(crash_indices=[0], byzantine={0: ValueForger})
        with pytest.raises(ConfigurationError):
            plan.validate(config)

    def test_validation_rejects_out_of_range(self, config):
        with pytest.raises(ConfigurationError):
            FaultPlan(crash_indices=[99]).validate(config)

    def test_apply_installs_faults(self, config):
        system = StorageSystem(SafeStorageProtocol(), config)
        plan = FaultPlan(crash_indices=[1], byzantine={0: MuteByzantine})
        plan.apply(system)
        assert obj(1) in system.kernel.crashed_processes()
        assert obj(0) in system.kernel.byzantine_processes()

    def test_max_plans(self, config):
        assert len(max_crashes(config).crash_indices) == config.t
        plan = max_byzantine(config)
        assert len(plan.byzantine) == config.b
        assert len(plan.crash_indices) == config.t - config.b

    def test_adversarial_suite_is_legal(self, config):
        for plan in adversarial_suite(config):
            plan.validate(config)

    def test_random_plan_is_legal_and_seeded(self, config):
        a = random_plan(config, 7)
        b = random_plan(config, 7)
        a.validate(config)
        assert a.crash_indices == b.crash_indices
        assert set(a.byzantine) == set(b.byzantine)

    def test_describe_no_faults(self):
        assert no_faults().describe() == "fault-free"
