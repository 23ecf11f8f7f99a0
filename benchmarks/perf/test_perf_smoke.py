"""Tier-1 smoke test of the serving benchmark: names, counts, the check.

Timing-free on purpose: it asserts *what* the benchmark emits and that
the emitted counts are exact, never how fast anything ran.
"""

import json
from pathlib import Path

import pytest

import perf_layers
import run as perf_run
from perf_workloads import FORGED_VALUE, WORKLOADS, WindowChecker, make_plan

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _smoke(capsys, workload, *extra):
    code = perf_run.main(["--workload", workload, "--seed", "7", "--smoke",
                          *extra])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result["metrics"]


def test_benchmark_json_repeats_the_tables_in_the_code():
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert SPEC["command"] == ["python3", "benchmarks/perf/run.py"]
    assert SPEC["run_seconds"] == perf_run.DEFAULT_SECONDS
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == perf_run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == perf_layers.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_and_exact_message_counts(capsys, workload):
    first = _smoke(capsys, workload)
    second = _smoke(capsys, workload)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in first.items()} == declared
    assert all(m["value"] > 0 for m in first.values())
    assert first["msgs_per_op"] == second["msgs_per_op"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(capsys, tmp_path, workload):
    spans = tmp_path / "spans.json"
    metrics = _smoke(capsys, workload, "--trace", "1",
                     "--spans-out", str(spans))
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in metrics.items()} == declared
    for must_be_zero in ("api.failed_ops", "spec.checkers.violations",
                         "adversary.forged_values_returned",
                         "service.procs.restarts"):
        assert metrics[must_be_zero]["value"] == 0
    byzantine = WORKLOADS[workload].byzantine
    assert (metrics["adversary.forged_acks"]["value"] > 0) == byzantine
    dumped = json.loads(spans.read_text())
    assert dumped["columns"] == ["id", "name", "start_s", "end_s",
                                 "parent", "op"]
    assert all(span[4] < span[0] for span in dumped["spans"])


def test_plans_are_a_function_of_the_seed():
    workload = WORKLOADS["mixed_inproc"].smoke()
    assert make_plan(workload, 3) == make_plan(workload, 3)
    assert make_plan(workload, 3) != make_plan(workload, 4)
    kinds = [kind for kind, _ in make_plan(workload, 3).solo]
    assert kinds.count("get") == kinds.count("put")  # exact, not sampled


def test_window_check_rejects_a_planted_stale_read():
    key = "key-00000"
    checker = WindowChecker([key, "key-00001"])
    for _ in range(2):  # two completed puts: the window is now [2, 2]
        checker.next_values([key])
        checker.puts_completed([key])
    floor, = checker.floors([key])
    assert checker.check_get(key, floor, f"{key}|2")
    assert checker.failed == 0
    for stale_or_bogus in (f"{key}|1", f"{key}|3", "key-00001|2", "junk",
                           None, FORGED_VALUE):
        assert not checker.check_get(key, floor, stale_or_bogus)
    assert checker.failed == 6 and checker.forged_values == 1
    # A put in flight widens the window to [2, 3].
    checker.next_values([key])
    assert checker.check_get(key, floor, f"{key}|3")
