"""The skewed ordered sampler against its one-shot reference.

``make_ordered_probe_sample`` inverts a Zipf window chunk by chunk, in
place, and stops once the ``4 * count`` cap is full.  Every sample must
equal the full-draw oracle bit for bit, whatever the chunk length, and
the generator must end where a full draw leaves it (the ``match_rate <
1`` miss flags are drawn after the window).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.data import generator
from repro.data.generator import (
    WorkloadConfig,
    make_build_relation,
    make_ordered_probe_sample,
    make_probe_keys,
)
from repro.data.zipf import zipf_ranks, zipf_sample

from .oracles import full_draw_ordered_sample, full_draw_zipf_ranks

#: The paper's exponents, plus 0.5 and 1.5 whose inversion exponents
#: (2 and -2) take numpy's scalar-power shortcuts.
PAPER_THETAS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)

thetas = st.one_of(
    st.sampled_from(PAPER_THETAS),
    st.floats(min_value=1e-3, max_value=1.75, allow_nan=False),
)
match_rates = st.sampled_from((1.0, 0.9, 0.5, 0.0))


def config_for(r_log2, theta, seed, match_rate=1.0):
    return WorkloadConfig(
        r_tuples=2**r_log2, zipf_theta=theta, seed=seed, match_rate=match_rate
    )


def assert_same(sample, reference):
    assert np.array_equal(sample.keys, reference.keys)
    assert np.array_equal(
        sample.expected_positions, reference.expected_positions
    )


def sample_both(config, window, count, chunk=None):
    column = make_build_relation(config).column
    if chunk is None:
        sample = make_ordered_probe_sample(column, config, window, count)
    else:
        with mock.patch.object(generator, "_ZIPF_CHUNK", chunk):
            sample = make_ordered_probe_sample(column, config, window, count)
    return sample, full_draw_ordered_sample(column, config, window, count)


class CountingRanks:
    """Spy on the sampler's per-chunk inversion calls."""

    def __init__(self):
        self.calls = 0
        self.drawn = 0

    def __call__(self, u, *args, **kwargs):
        self.calls += 1
        self.drawn += len(u)
        return zipf_ranks(u, *args, **kwargs)


class TestAgainstFullDraw:
    @given(
        theta=thetas,
        r_log2=st.integers(8, 34),
        window=st.integers(1, 2**14),
        count=st.integers(1, 2**12),
        seed=st.integers(0, 2**20),
        match_rate=match_rates,
    )
    def test_equals_the_oracle(
        self, theta, r_log2, window, count, seed, match_rate
    ):
        config = config_for(r_log2, theta, seed, match_rate)
        assert_same(*sample_both(config, window, count))

    @given(
        theta=thetas,
        r_log2=st.integers(8, 30),
        window=st.integers(1, 2**12),
        count=st.integers(1, 2**11),
        seed=st.integers(0, 2**20),
        match_rate=match_rates,
        chunk=st.sampled_from((1, 7, 4096, 2**24)),
    )
    def test_chunk_length_does_not_change_the_sample(
        self, theta, r_log2, window, count, seed, match_rate, chunk
    ):
        config = config_for(r_log2, theta, seed, match_rate)
        assert_same(*sample_both(config, window, count, chunk=chunk))

    @pytest.mark.parametrize("seed", (42, 7))
    @pytest.mark.parametrize("theta", PAPER_THETAS)
    def test_paper_window_at_100_gib(self, theta, seed):
        """Fig. 8's point: R = 100 GiB, 32 MiB windows, 2^14 samples."""
        config = WorkloadConfig(
            r_tuples=100 * 2**30 // 8, zipf_theta=theta, seed=seed
        )
        assert_same(*sample_both(config, 2**22, 2**14))

    def test_count_larger_than_one_chunk(self):
        config = config_for(30, 0.75, seed=3, match_rate=0.5)
        sample, reference = sample_both(config, 2**16, 5000, chunk=4096)
        assert_same(sample, reference)
        assert len(sample) > 4096


class TestEarlyStop:
    def test_cap_fills_in_the_first_chunk(self):
        config = config_for(33, 1.75, seed=42, match_rate=0.5)
        spy = CountingRanks()
        with mock.patch.object(generator, "zipf_ranks", spy):
            sample, reference = sample_both(config, 2**22, 64)
        assert_same(sample, reference)
        assert len(sample) == 4 * 64
        assert spy.calls == 1 and spy.drawn == generator._ZIPF_CHUNK

    def test_cap_that_never_fills_draws_the_whole_window(self):
        config = config_for(33, 0.25, seed=42, match_rate=0.5)
        spy = CountingRanks()
        with mock.patch.object(generator, "zipf_ranks", spy):
            sample, reference = sample_both(config, 2**18, 2**10)
        assert_same(sample, reference)
        assert len(sample) < 4 * 2**10
        assert spy.drawn == 2**18

    @pytest.mark.parametrize("chunk", (1, 7, None))
    def test_empty_segment_falls_back_to_the_first_draws(self, chunk):
        # Two in-segment positions out of 1024, and no Zipf(1.5) draw of
        # this window lands on either: the sample is the window's first
        # ``count`` positions.
        config = config_for(10, 1.5, seed=3, match_rate=0.5)
        sample, reference = sample_both(config, 2**12, 9, chunk=chunk)
        assert_same(sample, reference)
        assert len(sample) == 9
        positions = make_build_relation(config).column.rank_of(
            sample.keys - (sample.expected_positions < 0)
        )
        assert positions.min() >= 2


class TestMatchRate:
    def test_skewed_sample_with_misses_no_longer_crashes(self):
        config = WorkloadConfig(
            r_tuples=2**30, zipf_theta=1.0, match_rate=0.5
        )
        column = make_build_relation(config).column
        sample = make_ordered_probe_sample(
            column, config, window_tuples=2**22, count=2**10
        )
        assert len(sample) == 4 * 2**10
        matched = sample.expected_positions >= 0
        assert matched.mean() == pytest.approx(0.5, abs=0.05)
        assert np.all(column.rank_of(sample.keys[~matched]) == -1)
        assert np.array_equal(
            column.rank_of(sample.keys[matched]),
            sample.expected_positions[matched],
        )

    @given(
        theta=thetas,
        match_rate=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(0, 2**20),
    )
    def test_matched_share_follows_match_rate(self, theta, match_rate, seed):
        config = config_for(28, theta, seed, match_rate)
        column = make_build_relation(config).column
        sample = make_ordered_probe_sample(column, config, 2**16, 2**11)
        matched = sample.expected_positions >= 0
        assert matched.mean() == pytest.approx(match_rate, abs=0.1)
        assert np.all(column.rank_of(sample.keys[~matched]) == -1)

    def test_uniform_miss_stream_is_unchanged(self):
        """theta = 0 returns exactly ``count`` positions, as before."""
        config = WorkloadConfig(r_tuples=2**20, match_rate=0.5, seed=9)
        column = make_build_relation(config).column
        sample = make_ordered_probe_sample(column, config, 2**12, 2**8)
        rng = np.random.default_rng(config.seed + 0x0D0E)
        positions = np.sort(rng.integers(0, 2**16, size=2**8))
        misses = rng.random(2**8) >= 0.5
        assert np.array_equal(sample.expected_positions >= 0, ~misses)
        assert np.array_equal(
            sample.expected_positions[~misses], positions[~misses]
        )


class TestOneInversionFormula:
    @given(
        theta=thetas,
        n=st.integers(1, 2**36),
        size=st.integers(0, 2**12),
        seed=st.integers(0, 2**20),
    )
    def test_zipf_sample_matches_the_out_of_place_formula(
        self, theta, n, size, seed
    ):
        ranks = zipf_sample(np.random.default_rng(seed), n, theta, size)
        reference = full_draw_zipf_ranks(
            np.random.default_rng(seed), n, theta, size
        )
        assert np.array_equal(ranks, reference)

    @pytest.mark.parametrize("theta", PAPER_THETAS)
    def test_probe_keys_scatter_is_unchanged(self, theta):
        config = WorkloadConfig(
            r_tuples=100 * 2**30 // 8, zipf_theta=theta, seed=42
        )
        column = make_build_relation(config).column
        probes = make_probe_keys(column, config, count=2**12)
        rng = np.random.default_rng(config.seed + 0x5EED)
        ranks = full_draw_zipf_ranks(rng, len(column), theta, 2**12)
        positions = (ranks * np.int64(2654435761) + np.int64(42)) % len(column)
        assert np.array_equal(probes.expected_positions, positions)
