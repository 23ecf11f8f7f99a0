"""Tests for the harness: tables, metrics, workloads, tracing."""

import math

import pytest

from repro.config import SystemConfig
from repro.core.safe import SafeStorageProtocol
from repro.harness import (OperationMetrics, Summary, WorkloadSpec,
                           max_rounds, render_kv, render_table,
                           run_concurrent, run_read_heavy, run_sequential)
from repro.sim import RandomScheduler, tracing
from repro.spec import check_safety
from repro.spec.histories import READ, WRITE
from repro.system import StorageSystem


class TestTables:
    def test_alignment_and_rule(self):
        text = render_table(["name", "n"], [["alpha", 1], ["b", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert "alpha" in lines[2]

    def test_title_and_float_formatting(self):
        text = render_table(["x"], [[3.14159]], title="numbers")
        assert text.startswith("numbers")
        assert "3.142" in text

    def test_bools_render_as_yes_no(self):
        assert "yes" in render_table(["ok"], [[True]])
        assert "no" in render_table(["ok"], [[False]])

    def test_kv_block(self):
        text = render_kv([("key", "value"), ("longer-key", 3)], title="hd")
        assert "hd" in text and "longer-key" in text


class TestSummary:
    def test_empty_sample(self):
        summary = Summary.of([])
        assert summary.count == 0
        assert math.isnan(summary.mean)

    def test_percentiles(self):
        summary = Summary.of(list(range(1, 101)))
        assert summary.count == 100
        assert summary.mean == pytest.approx(50.5)
        assert summary.p50 == pytest.approx(50, abs=1)
        assert summary.p95 == pytest.approx(95, abs=1)
        assert summary.maximum == 100
        assert summary.minimum == 1


class TestWorkloads:
    @pytest.fixture
    def system(self):
        config = SystemConfig.optimal(t=1, b=1, num_readers=2)
        return StorageSystem(SafeStorageProtocol(), config)

    def test_sequential_counts(self, system):
        history = run_sequential(system, num_writes=3, reads_per_write=2)
        assert len(history.writes()) == 3
        assert len(history.reads()) == 3 * 2 * 2
        check_safety(history).assert_ok()

    def test_concurrent_completes_everything(self, system):
        spec = WorkloadSpec(num_writes=5, reads_per_reader=5, seed=3)
        history = run_concurrent(system, spec)
        assert len(history.writes()) == 5
        assert all(r.complete for r in history.operations())
        check_safety(history).assert_ok()

    def test_concurrent_actually_overlaps(self, system):
        spec = WorkloadSpec(num_writes=8, reads_per_reader=8, seed=1)
        history = run_concurrent(system, spec)
        overlapping = [
            r for r in history.reads() if history.concurrent_writes(r)
        ]
        assert overlapping, "workload produced no read/write concurrency"

    def test_read_heavy_shape(self, system):
        history = run_read_heavy(system, num_reads=20, writes_every=5)
        assert len(history.reads()) == 20
        assert len(history.writes()) > 1

    def test_metrics_from_history(self, system):
        run_sequential(system, num_writes=2, reads_per_write=1)
        metrics = OperationMetrics.from_history(system.history)
        # Sequential reads decide on round-1 evidence.
        assert metrics.read_rounds.maximum == 1
        assert metrics.write_rounds.maximum == 2
        assert metrics.incomplete == 0
        assert max_rounds(system.history, READ) == 1
        assert max_rounds(system.history, WRITE) == 2


class TestTracing:
    def test_trace_records_lifecycle(self):
        config = SystemConfig.optimal(t=1, b=1)
        system = StorageSystem(SafeStorageProtocol(), config)
        system.write("v")
        trace = system.kernel.trace
        assert trace.events(kind=tracing.INVOKE)
        assert trace.events(kind=tracing.RESPOND)
        assert trace.events(kind=tracing.SEND)
        assert trace.events(kind=tracing.DELIVER)

    def test_delivery_order_replayable(self):
        from repro.sim import ReplayScheduler
        config = SystemConfig.optimal(t=1, b=1)
        first = StorageSystem(SafeStorageProtocol(), config,
                              scheduler=RandomScheduler(13))
        first.write("v")
        first.read(0)
        order = first.kernel.trace.delivery_order()

        second = StorageSystem(SafeStorageProtocol(), config,
                               scheduler=ReplayScheduler(order))
        second.write("v")
        second.read(0)
        assert second.kernel.trace.delivery_order() == order

    def test_capacity_bounds_memory(self):
        trace = tracing.TraceLog(capacity=10)
        for n in range(50):
            trace.append(time=0.0, kind=tracing.NOTE, detail=f"n{n}")
        assert len(trace) == 10
        assert trace.dropped == 40

    def test_disabled_trace_records_nothing(self):
        trace = tracing.TraceLog(enabled=False)
        trace.append(time=0.0, kind=tracing.NOTE, detail="x")
        assert len(trace) == 0

    def test_render_smoke(self):
        config = SystemConfig.optimal(t=1, b=1)
        system = StorageSystem(SafeStorageProtocol(), config)
        system.write("v")
        text = system.kernel.trace.render(last=5)
        assert text.count("\n") == 4
