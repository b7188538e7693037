"""Simulation configuration."""

import pytest

from repro.config import (
    DEFAULT_CONFIG,
    DEFAULT_HASH_BLOCK_KEYS,
    DEFAULT_HASH_LOAD_FACTOR,
    DEFAULT_NUM_PARTITIONS,
    DEFAULT_S_TUPLES,
    SimulationConfig,
)
from repro.errors import ConfigurationError


class TestPaperDefaults:
    """The constants of the paper's Section 3.2 / 4.3.1 setup."""

    def test_s_relation(self):
        assert DEFAULT_S_TUPLES == 2**26

    def test_hash_join_settings(self):
        assert DEFAULT_HASH_LOAD_FACTOR == 0.5
        assert DEFAULT_HASH_BLOCK_KEYS == 512

    def test_partitions(self):
        assert DEFAULT_NUM_PARTITIONS == 2048


class TestSimulationConfig:
    def test_default_is_valid(self):
        assert DEFAULT_CONFIG.probe_sample % 32 == 0

    def test_sample_must_be_warp_multiple(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(probe_sample=100)

    def test_sample_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(probe_sample=0)

    def test_interleave_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(interleave_width=0)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(seed=-1)

    def test_with_sample(self):
        derived = DEFAULT_CONFIG.with_sample(2**10)
        assert derived.probe_sample == 2**10
        assert derived.seed == DEFAULT_CONFIG.seed

    def test_with_seed(self):
        derived = DEFAULT_CONFIG.with_seed(7)
        assert derived.seed == 7
        assert derived.probe_sample == DEFAULT_CONFIG.probe_sample

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.seed = 1  # type: ignore[misc]
