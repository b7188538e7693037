"""The OrderedDict cache oracles the vectorized models are checked against."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError

from .oracles import LruCache, SetAssociativeCache


class TestLruCache:
    def test_hit_after_insert(self):
        cache = LruCache(capacity_bytes=4 * 128, line_bytes=128)
        assert cache.access(7) is False
        assert cache.access(7) is True

    def test_eviction(self):
        cache = LruCache(capacity_bytes=2 * 128, line_bytes=128)
        cache.access(1)
        cache.access(2)
        cache.access(3)  # evicts 1
        assert cache.access(1) is False

    def test_lru_refresh(self):
        cache = LruCache(capacity_bytes=2 * 128, line_bytes=128)
        cache.access(1)
        cache.access(2)
        cache.access(1)  # 2 is now LRU
        cache.access(3)  # evicts 2
        assert cache.contains(1)
        assert not cache.contains(2)

    def test_contains_does_not_touch(self):
        cache = LruCache(capacity_bytes=2 * 128, line_bytes=128)
        cache.access(1)
        cache.access(2)
        cache.contains(1)  # must NOT refresh line 1
        cache.access(3)  # evicts 1 (still LRU)
        assert not cache.contains(1)

    def test_occupancy_and_hit_rate(self):
        cache = LruCache(capacity_bytes=8 * 128, line_bytes=128)
        cache.access(1)
        cache.access(1)
        assert cache.occupancy == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_reset(self):
        cache = LruCache(capacity_bytes=2 * 128, line_bytes=128)
        cache.access(1)
        cache.reset()
        assert cache.occupancy == 0 and cache.hits == 0

    def test_rejects_capacity_below_line(self):
        with pytest.raises(ConfigurationError):
            LruCache(capacity_bytes=64, line_bytes=128)

    def test_rejects_zero_sizes(self):
        with pytest.raises(ConfigurationError):
            LruCache(capacity_bytes=0, line_bytes=128)
        with pytest.raises(ConfigurationError):
            LruCache(capacity_bytes=128, line_bytes=0)


class TestSetAssociativeCache:
    def test_geometry(self):
        cache = SetAssociativeCache(
            capacity_bytes=64 * 128, line_bytes=128, ways=4
        )
        assert cache.num_sets == 16

    def test_conflict_misses_within_one_set(self):
        # Lines mapping to the same set thrash once they exceed the ways.
        cache = SetAssociativeCache(
            capacity_bytes=8 * 128, line_bytes=128, ways=2
        )
        same_set = [0, cache.num_sets, 2 * cache.num_sets]
        for line in same_set:
            cache.access(line)
        assert cache.access(same_set[0]) is False  # evicted by the third

    def test_different_sets_do_not_conflict(self):
        cache = SetAssociativeCache(
            capacity_bytes=8 * 128, line_bytes=128, ways=2
        )
        cache.access(0)
        cache.access(1)
        cache.access(2)
        assert cache.access(0) is True

    def test_sequence_and_occupancy(self):
        cache = SetAssociativeCache(
            capacity_bytes=16 * 128, line_bytes=128, ways=4
        )
        misses = cache.access_sequence([1, 2, 3, 1, 2, 3])
        assert misses == 3
        assert cache.occupancy == 3

    def test_contains(self):
        cache = SetAssociativeCache(
            capacity_bytes=16 * 128, line_bytes=128, ways=4
        )
        cache.access(5)
        assert cache.contains(5)
        assert not cache.contains(6)

    def test_reset(self):
        cache = SetAssociativeCache(
            capacity_bytes=16 * 128, line_bytes=128, ways=4
        )
        cache.access(1)
        cache.reset()
        assert cache.occupancy == 0

    def test_rejects_capacity_below_ways(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(capacity_bytes=128, line_bytes=128, ways=4)

    def test_rejects_zero_ways(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(capacity_bytes=1024, line_bytes=128, ways=0)


@settings(max_examples=25, deadline=None)
@given(
    ways=st.integers(min_value=1, max_value=8),
    sets_pow=st.integers(min_value=0, max_value=4),
    length=st.integers(min_value=1, max_value=400),
    universe=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_set_associative_invariants(ways, sets_pow, length, universe, seed):
    """Hits + misses == accesses; occupancy bounded by capacity."""
    num_sets = 2**sets_pow
    cache = SetAssociativeCache(
        capacity_bytes=ways * num_sets * 128, line_bytes=128, ways=ways
    )
    rng = np.random.default_rng(seed)
    cache.access_sequence(rng.integers(0, universe, length).tolist())
    assert cache.hits + cache.misses == length
    assert cache.occupancy <= ways * cache.num_sets
    assert cache.occupancy <= universe
