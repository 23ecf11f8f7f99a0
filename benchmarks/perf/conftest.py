"""Keeps the perf smoke test clear of the experiment suite's fixture."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _populate_registry():
    """Overrides ``benchmarks/conftest.py``'s fixture of the same name.

    That one runs experiment E2 (~2.5 s) before any test below
    ``benchmarks/``; nothing here reads the experiment registry, and the
    smoke test has a 10 s budget.
    """
