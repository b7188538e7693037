"""Closed-form locality formulas."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.perf.analytic import (
    expected_distinct,
    level_sweep_pages,
    midtree_sweep_pages,
    uniform_lru_misses,
)

from ..hardware.oracles import LruTlb


class TestExpectedDistinct:
    def test_zero_samples(self):
        assert expected_distinct(0, 100) == 0.0

    def test_one_sample(self):
        assert expected_distinct(1, 100) == pytest.approx(1.0)

    def test_saturates_at_universe(self):
        assert expected_distinct(10**9, 50) == pytest.approx(50.0)

    def test_single_page_universe(self):
        assert expected_distinct(10, 1) == 1.0

    def test_matches_simulation(self, rng):
        universe, samples = 200, 500
        draws = rng.integers(0, universe, size=(64, samples))
        empirical = np.mean([len(np.unique(row)) for row in draws])
        analytic = expected_distinct(samples, universe)
        assert analytic == pytest.approx(empirical, rel=0.03)

    def test_numerically_stable_at_paper_scale(self):
        # 2^26 lookups over ~57k pages: must not overflow or lose mass.
        value = expected_distinct(2**26, 56832)
        assert value == pytest.approx(56832, rel=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            expected_distinct(-1, 10)
        with pytest.raises(ConfigurationError):
            expected_distinct(1, 0)


class TestUniformLruMisses:
    def test_fitting_working_set(self):
        assert uniform_lru_misses(10_000, pages=50, capacity=100) == 50

    def test_steady_state(self):
        misses = uniform_lru_misses(100_000, pages=400, capacity=100)
        assert misses == pytest.approx(75_000, rel=0.01)

    def test_agrees_with_event_simulator(self, rng):
        """The model's central cross-check: closed form vs exact LRU."""
        pages, capacity, accesses = 500, 128, 80_000
        tlb = LruTlb(entries=capacity)
        tlb.access_sequence(rng.integers(0, pages, accesses).tolist())
        analytic = uniform_lru_misses(accesses, pages, capacity)
        assert tlb.misses == pytest.approx(analytic, rel=0.05)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            uniform_lru_misses(-1, 10, 10)
        with pytest.raises(ConfigurationError):
            uniform_lru_misses(1, 0, 10)


class TestLevelSweepPages:
    def test_empty_cases(self):
        assert level_sweep_pages(0, 1000, 100) == 0.0
        assert level_sweep_pages(100, 0, 100) == 0.0

    def test_bounded_by_span(self):
        pages = level_sweep_pages(10**9, span_bytes=2**30, page_bytes=2**21)
        assert pages <= 2**30 / 2**21

    def test_bounded_by_lookups(self):
        pages = level_sweep_pages(10, span_bytes=2**40, page_bytes=2**21)
        assert pages <= 10 + 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            level_sweep_pages(-1, 100, 10)
        with pytest.raises(ConfigurationError):
            level_sweep_pages(1, 100, 0)


class TestMidtreeSweepPages:
    KWARGS = dict(page_bytes=2**21, l2_bytes=6 * 2**20, cacheline_bytes=128)

    def test_zero_cases(self):
        assert midtree_sweep_pages(0, 2**30, **self.KWARGS) == 0.0
        assert midtree_sweep_pages(100, 0, **self.KWARGS) == 0.0

    def test_includes_dense_sweep(self):
        span = 100 * 2**30
        pages = midtree_sweep_pages(2**22, span, **self.KWARGS)
        assert pages >= span / 2**21  # at least the data sweep

    def test_exceeds_plain_level_sweep(self):
        """Binary search touches more pages than a single-array sweep --
        its upper steps jump across the whole span (paper Fig. 6)."""
        span = 100 * 2**30
        flat = level_sweep_pages(2**22, span, 2**21)
        mid = midtree_sweep_pages(2**22, span, **self.KWARGS)
        assert mid > flat

    def test_grows_with_span(self):
        small = midtree_sweep_pages(2**22, 2**33, **self.KWARGS)
        large = midtree_sweep_pages(2**22, 2**37, **self.KWARGS)
        assert large > small

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            midtree_sweep_pages(1, 100, page_bytes=0, l2_bytes=1,
                                cacheline_bytes=128)


@settings(max_examples=40, deadline=None)
@given(
    samples=st.floats(min_value=0, max_value=1e9),
    universe=st.floats(min_value=1, max_value=1e9),
)
def test_expected_distinct_bounds(samples, universe):
    value = expected_distinct(samples, universe)
    assert 0 <= value <= min(samples, universe) + 1e-6
