"""Bench E11: atomic extension validation + atomic-read micro-bench."""

from conftest import regenerate

from repro.config import SystemConfig
from repro.core.atomic import AtomicStorageProtocol
from repro.system import StorageSystem


def test_e11_regenerate(benchmark):
    regenerate(benchmark, "E11")


def test_e11_atomic_read_cost(benchmark):
    """Atomic READ (round 1 + write-back) at t=2, b=1 -- compare with
    bench_e02's read."""
    config = SystemConfig.optimal(t=2, b=1, num_readers=1)
    system = StorageSystem(AtomicStorageProtocol(), config,
                           trace_enabled=False)
    system.write("payload")

    value = benchmark(lambda: system.read(0))
    assert value == "payload"
