"""Tests for the three baseline protocols (ABD, passive reader, auth)."""

import pytest

from repro.adversary import adversarial_suite, max_byzantine
from repro.baselines import (AbdAtomicProtocol, AbdRegularProtocol,
                             AuthenticatedProtocol, PassiveReaderProtocol)
from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.sim import RandomScheduler
from repro.spec import (check_atomicity, check_regularity, check_safety)
from repro.spec.histories import READ
from repro.system import StorageSystem
from repro.types import BOTTOM, obj


class TestAbd:
    def test_rejects_byzantine_configs(self):
        config = SystemConfig.optimal(t=2, b=1)
        with pytest.raises(ConfigurationError, match="crash"):
            StorageSystem(AbdRegularProtocol(), config)

    def test_regular_read_one_round(self):
        config = SystemConfig.with_objects(t=2, b=0, num_objects=5)
        system = StorageSystem(AbdRegularProtocol(), config)
        system.write("v")
        handle = system.read_handle(0)
        assert handle.result == "v"
        assert handle.rounds_used == 1

    def test_atomic_read_writes_back(self):
        config = SystemConfig.with_objects(t=1, b=0, num_objects=3)
        system = StorageSystem(AbdAtomicProtocol(), config)
        system.write("v")
        handle = system.read_handle(0)
        assert handle.rounds_used == 2  # query + write-back

    def test_atomic_initial_read_skips_write_back(self):
        config = SystemConfig.with_objects(t=1, b=0, num_objects=3)
        system = StorageSystem(AbdAtomicProtocol(), config)
        handle = system.read_handle(0)
        assert handle.result is BOTTOM
        assert handle.rounds_used == 1

    def test_tolerates_t_crashes(self):
        config = SystemConfig.with_objects(t=2, b=0, num_objects=5)
        system = StorageSystem(AbdRegularProtocol(), config)
        system.write("v1")
        system.crash_object(0)
        system.crash_object(1)
        system.write("v2")
        assert system.read(0) == "v2"

    def test_atomicity_over_concurrent_runs(self):
        config = SystemConfig.with_objects(t=1, b=0, num_objects=3,
                                           num_readers=2)
        for seed in range(5):
            system = StorageSystem(AbdAtomicProtocol(), config,
                                   scheduler=RandomScheduler(seed))
            system.write("v1")
            w = system.invoke_write("v2")
            r0 = system.invoke_read(0)
            r1 = system.invoke_read(1)
            system.run_until_done(w, r0, r1)
            check_atomicity(system.history).assert_ok()


class TestPassiveReader:
    def test_fault_free_single_round(self):
        config = SystemConfig.optimal(t=2, b=1)
        system = StorageSystem(PassiveReaderProtocol(), config)
        system.write("v")
        handle = system.read_handle(0)
        assert handle.result == "v"
        assert handle.rounds_used == 1

    def test_objects_keep_no_reader_state(self):
        config = SystemConfig.optimal(t=1, b=1)
        system = StorageSystem(PassiveReaderProtocol(), config)
        system.write("v")
        system.read(0)
        automaton = system.kernel.object_automaton(obj(0))
        assert not hasattr(automaton, "tsr")

    def test_forgery_costs_extra_rounds(self):
        """The b+1 shape of [1]: each forgery needs an elimination round."""
        config = SystemConfig.optimal(t=2, b=1)
        system = StorageSystem(PassiveReaderProtocol(), config)
        max_byzantine(config).apply(system)
        system.write("v")
        handle = system.read_handle(0)
        assert handle.result == "v"
        assert handle.rounds_used == config.b + 1

    def test_safety_under_adversarial_suite(self):
        config = SystemConfig.optimal(t=2, b=2)
        for plan in adversarial_suite(config):
            system = StorageSystem(PassiveReaderProtocol(), config)
            plan.apply(system)
            system.write("a")
            system.read(0)
            system.write("b")
            system.read(0)
            check_safety(system.history).assert_ok()

    def test_reads_do_not_touch_objects(self):
        config = SystemConfig.optimal(t=1, b=1)
        system = StorageSystem(PassiveReaderProtocol(), config)
        system.write("v")
        before = [system.kernel.object_automaton(obj(i)).snapshot_state()
                  for i in range(config.num_objects)]
        system.read(0)
        after = [system.kernel.object_automaton(obj(i)).snapshot_state()
                 for i in range(config.num_objects)]
        assert before == after


class TestAuthenticated:
    def test_one_round_reads_and_writes(self):
        config = SystemConfig.optimal(t=2, b=2)
        system = StorageSystem(AuthenticatedProtocol(), config)
        w = system.write("v")
        r = system.read_handle(0)
        assert w.rounds_used == 1
        assert r.rounds_used == 1
        assert r.result == "v"

    def test_regularity_under_adversarial_suite(self):
        config = SystemConfig.optimal(t=2, b=1, num_readers=2)
        for plan in adversarial_suite(config):
            system = StorageSystem(AuthenticatedProtocol(), config)
            plan.apply(system)
            system.write("a")
            system.read(0)
            system.write("b")
            system.read(1)
            check_regularity(system.history).assert_ok()

    def test_forged_signatures_rejected(self):
        """A Byzantine object minting its own 'signed' value is ignored."""
        from repro.automata.base import ObjectAutomaton
        from repro.baselines.authenticated.protocol import (AuthQuery,
                                                            AuthQueryAck)
        from repro.crypto_sim import forge_attempt
        from repro.types import TimestampValue

        class SignatureForger(ObjectAutomaton):
            def on_message(self, sender, message):
                if isinstance(message, AuthQuery):
                    fake = forge_attempt(
                        "writer", TimestampValue(999, "FORGED"))
                    return [(sender, AuthQueryAck(nonce=message.nonce,
                                                  signed=fake))]
                return []

        config = SystemConfig.optimal(t=1, b=1)
        system = StorageSystem(AuthenticatedProtocol(), config)
        system.kernel.make_byzantine(obj(0), SignatureForger(0))
        system.write("genuine")
        handle = system.read_handle(0)
        assert handle.result == "genuine"
        assert handle.operation.rejected_forgeries >= 1

    def test_replayed_old_signature_is_still_regular(self):
        """Byzantine objects may replay old signed values; regularity
        survives because some correct quorum member has the newest one."""
        from repro.adversary import StaleReplier
        config = SystemConfig.optimal(t=1, b=1)
        system = StorageSystem(AuthenticatedProtocol(), config)
        system.write("v1")
        max_byzantine(config, StaleReplier).apply(system)
        system.write("v2")
        assert system.read(0) == "v2"
