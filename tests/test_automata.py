"""Tests for the automata framework: operations, round collectors."""

import pytest

from repro.automata import ClientOperation, ObjectAutomaton, RoundCollector
from repro.errors import ProtocolError
from repro.types import reader


class NoopOperation(ClientOperation):
    kind = "READ"

    def start(self):
        return []

    def on_message(self, sender, message):
        return []


class TestClientOperationBase:
    def test_fresh_operation_state(self):
        op = NoopOperation(reader(0))
        assert not op.done
        assert op.rounds_used == 0

    def test_complete_sets_result(self):
        op = NoopOperation(reader(0))
        assert op.complete("x") == []
        assert op.done
        assert op.result == "x"

    def test_double_complete_rejected(self):
        op = NoopOperation(reader(0))
        op.complete("x")
        with pytest.raises(ProtocolError):
            op.complete("y")

    def test_result_before_completion_rejected(self):
        op = NoopOperation(reader(0))
        with pytest.raises(ProtocolError):
            _ = op.result

    def test_operation_ids_unique(self):
        a, b = NoopOperation(reader(0)), NoopOperation(reader(0))
        assert a.operation_id != b.operation_id

    def test_begin_round_counts(self):
        op = NoopOperation(reader(0))
        op.begin_round()
        op.begin_round()
        assert op.rounds_used == 2

    def test_describe_mentions_kind_and_client(self):
        op = NoopOperation(reader(1))
        assert "READ" in op.describe()
        assert "r2" in op.describe()


class StatefulObject(ObjectAutomaton):
    def __init__(self):
        super().__init__(0)
        self.counter = 0
        self.log = []

    def on_message(self, sender, message):
        self.counter += 1
        self.log.append(message)
        return []


class TestObjectAutomatonBase:
    def test_snapshot_is_deep(self):
        obj_ = StatefulObject()
        obj_.on_message(reader(0), "a")
        snap = obj_.snapshot_state()
        obj_.on_message(reader(0), "b")
        assert snap["counter"] == 1
        assert snap["log"] == ["a"]  # unaffected by later mutation

    def test_restore_replaces_state(self):
        obj_ = StatefulObject()
        obj_.on_message(reader(0), "a")
        snap = obj_.snapshot_state()
        obj_.on_message(reader(0), "b")
        obj_.restore_state(snap)
        assert obj_.counter == 1
        assert obj_.log == ["a"]

    def test_restore_is_a_copy(self):
        obj_ = StatefulObject()
        snap = obj_.snapshot_state()
        obj_.restore_state(snap)
        obj_.on_message(reader(0), "x")
        assert snap["counter"] == 0


class TestRoundCollector:
    def test_fresh_acks_counted(self):
        collector = RoundCollector(round_index=1, freshness=42)
        assert collector.offer(0, 42, "ack-a")
        assert collector.offer(1, 42, "ack-b")
        assert collector.count() == 2
        assert collector.responders == {0, 1}

    def test_stale_acks_rejected(self):
        collector = RoundCollector(1, freshness=42)
        assert not collector.offer(0, 41, "old")
        assert collector.stale == 1
        assert collector.count() == 0

    def test_duplicates_rejected(self):
        collector = RoundCollector(1, freshness=42)
        collector.offer(0, 42, "first")
        assert not collector.offer(0, 42, "second")
        assert collector.duplicates == 1
        assert collector.ack_of(0) == "first"

    def test_quorum_check(self):
        collector = RoundCollector(1, freshness=1)
        for i in range(3):
            collector.offer(i, 1, i)
        assert collector.has_quorum(3)
        assert not collector.has_quorum(4)
