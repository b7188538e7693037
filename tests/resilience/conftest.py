"""Shared hygiene for resilience tests: no fault/cache/env leakage."""

from __future__ import annotations

import pytest

from repro.experiments import cache
from repro.resilience import faults
from repro.resilience.faults import FAULTS_ENV


@pytest.fixture(autouse=True)
def _clean_resilience(monkeypatch):
    """Each test starts with no plans, no cache, and no ``REPRO_FAULTS``."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    faults.clear()
    cache.clear()
    yield
    faults.clear()
    cache.enable(False)
    cache.clear()
