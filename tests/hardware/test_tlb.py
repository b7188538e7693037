"""The OrderedDict TLB oracle the vectorized TLB is checked against."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError

from .oracles import LruTlb


class TestLruTlb:
    def test_cold_miss_then_hit(self):
        tlb = LruTlb(entries=4)
        assert tlb.access(1) is False
        assert tlb.access(1) is True
        assert tlb.misses == 1 and tlb.hits == 1

    def test_cold_misses_tracked(self):
        tlb = LruTlb(entries=2)
        tlb.access_sequence([1, 2, 3, 1, 2, 3])
        # Three distinct pages -> 3 cold; capacity 2 -> the revisits also
        # miss (cyclic eviction), but they are not cold.
        assert tlb.cold_misses == 3
        assert tlb.misses == 6

    def test_lru_eviction_order(self):
        tlb = LruTlb(entries=2)
        tlb.access(1)
        tlb.access(2)
        tlb.access(1)  # refresh 1; 2 becomes LRU
        tlb.access(3)  # evicts 2
        assert tlb.access(1) is True
        assert tlb.access(2) is False

    def test_working_set_within_capacity_never_thrashes(self):
        tlb = LruTlb(entries=8)
        sequence = [i % 8 for i in range(1000)]
        misses = tlb.access_sequence(sequence)
        assert misses == 8  # cold only

    def test_cyclic_thrash(self):
        # The classic LRU worst case: cycling over capacity + 1 pages.
        tlb = LruTlb(entries=4)
        sequence = [i % 5 for i in range(500)]
        tlb.access_sequence(sequence)
        assert tlb.miss_rate == 1.0

    def test_reset(self):
        tlb = LruTlb(entries=2)
        tlb.access_sequence([1, 2, 3])
        tlb.reset()
        assert tlb.hits == 0 and tlb.misses == 0 and tlb.cold_misses == 0
        assert tlb.access(1) is False

    def test_rejects_zero_entries(self):
        with pytest.raises(ConfigurationError):
            LruTlb(entries=0)

    def test_miss_rate_empty(self):
        assert LruTlb(entries=1).miss_rate == 0.0


@settings(max_examples=25, deadline=None)
@given(
    entries=st.integers(min_value=1, max_value=64),
    pages=st.integers(min_value=1, max_value=128),
    length=st.integers(min_value=1, max_value=500),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_lru_invariants(entries, pages, length, seed):
    """Misses bounded by accesses; cold misses bounded by distinct pages."""
    rng = np.random.default_rng(seed)
    sequence = rng.integers(0, pages, length).tolist()
    tlb = LruTlb(entries=entries)
    tlb.access_sequence(sequence)
    assert tlb.hits + tlb.misses == length
    assert tlb.cold_misses == len(set(sequence))
    assert tlb.misses >= tlb.cold_misses
    if pages <= entries:
        assert tlb.misses == tlb.cold_misses
