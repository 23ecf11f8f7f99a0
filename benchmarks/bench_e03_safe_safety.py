"""Bench E3: Theorem 1 safety sweep + adversarial read micro-bench."""

from conftest import regenerate

from repro.adversary import max_byzantine
from repro.config import SystemConfig
from repro.core.safe import SafeStorageProtocol
from repro.system import StorageSystem


def test_e03_regenerate(benchmark):
    regenerate(benchmark, "E3")


def test_e03_read_under_forgery_cost(benchmark):
    """READ cost with b Byzantine forgers active (t=2, b=1)."""
    config = SystemConfig.optimal(t=2, b=1, num_readers=1)
    system = StorageSystem(SafeStorageProtocol(), config,
                           trace_enabled=False)
    max_byzantine(config).apply(system)
    system.write("genuine")

    value = benchmark(lambda: system.read(0))
    assert value == "genuine"
