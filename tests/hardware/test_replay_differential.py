"""Differential and metamorphic properties of the fast replay engine.

The vectorized L2 kernel and TLB (``repro.hardware.fastlru``) must agree
with the ``OrderedDict`` oracles access for access -- hit mask, counters,
and each set's resident order -- on any geometry, stream, and split of
the stream into ``access_batch`` calls (state carries across calls).
Hypothesis generates all four; named regressions pin the stream shapes
that exercise the kernel's rarer tiers.

The metamorphic half pins LRU inclusion: on one stream, more ways at a
fixed set count, more TLB entries, or coarser pages never add misses --
a faster kernel must not be able to bend the 32 GiB TLB knee.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import SimulationConfig
from repro.gpu.executor import LookupTrace, MachineModel
from repro.hardware import fastlru
from repro.hardware.fastlru import VectorLruTlb, VectorSetAssociativeCache
from repro.hardware.spec import V100_NVLINK2

from .oracles import LruTlb, SetAssociativeCache, replay

LINE_BYTES = 32


def replay_in_batches(model, stream, cuts):
    """Hit mask of ``stream`` fed to ``model`` as batches split at ``cuts``."""
    parts = np.split(np.asarray(stream, dtype=np.int64), sorted(cuts))
    return np.concatenate([model.access_batch(part) for part in parts])


def assert_l2_matches_oracle(num_sets, ways, stream, cuts=()):
    capacity = num_sets * ways * LINE_BYTES
    oracle = SetAssociativeCache(capacity, LINE_BYTES, ways=ways)
    kernel = VectorSetAssociativeCache(capacity, LINE_BYTES, ways=ways)
    assert kernel.num_sets == oracle.num_sets == num_sets
    expected = np.array([oracle.access(int(line)) for line in stream], bool)
    np.testing.assert_array_equal(replay_in_batches(kernel, stream, cuts), expected)
    assert (kernel.hits, kernel.misses) == (oracle.hits, oracle.misses)
    assert kernel.occupancy == oracle.occupancy
    assert [kernel.resident_lines(i).tolist() for i in range(num_sets)] == [
        list(cache_set) for cache_set in oracle._sets
    ]


def assert_tlb_matches_oracle(entries, prior, stream, cuts=()):
    oracle = LruTlb(entries)
    kernel = VectorLruTlb(entries)
    for page in prior:
        oracle.access(int(page))
    kernel.access_batch(np.asarray(prior, dtype=np.int64))
    expected = np.array([oracle.access(int(page)) for page in stream], bool)
    np.testing.assert_array_equal(replay_in_batches(kernel, stream, cuts), expected)
    assert (kernel.hits, kernel.misses) == (oracle.hits, oracle.misses)
    assert kernel.cold_misses == oracle.cold_misses
    np.testing.assert_array_equal(
        kernel.resident_pages(), np.fromiter(oracle._cached, dtype=np.int64)
    )


@st.composite
def streams(draw, max_universe=300, max_length=400):
    """A stream over a drawn universe, plus batch cut points."""
    universe = draw(st.integers(min_value=1, max_value=max_universe))
    stream = draw(
        st.lists(
            st.integers(min_value=0, max_value=universe - 1),
            min_size=1,
            max_size=max_length,
        )
    )
    cuts = draw(st.lists(st.integers(0, len(stream)), max_size=4))
    return stream, cuts


@st.composite
def skewed_streams(draw):
    """Longer seeded streams: a few hot lines among a cold universe."""
    length = draw(st.integers(min_value=1, max_value=3000))
    hot = draw(st.integers(min_value=1, max_value=24))
    hot_share = draw(st.floats(min_value=0.0, max_value=1.0))
    universe = draw(st.integers(min_value=1, max_value=5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stream = np.where(
        rng.random(length) < hot_share,
        rng.integers(0, hot, length),
        rng.integers(0, universe, length),
    )
    cuts = draw(st.lists(st.integers(0, length), max_size=4))
    return stream, cuts


class TestL2KernelMatchesOracle:
    @given(
        num_sets=st.integers(min_value=1, max_value=12),
        ways=st.integers(min_value=1, max_value=8),
        case=streams(),
    )
    def test_any_geometry_stream_and_split(self, num_sets, ways, case):
        stream, cuts = case
        assert_l2_matches_oracle(num_sets, ways, stream, cuts)

    @given(
        num_sets=st.sampled_from([1, 3, 7, 16, 96]),
        ways=st.sampled_from([1, 2, 4, 16]),
        case=skewed_streams(),
    )
    def test_skewed_streams(self, num_sets, ways, case):
        stream, cuts = case
        assert_l2_matches_oracle(num_sets, ways, stream, cuts)

    def test_hot_lines_aliasing_into_few_sets_among_cold_lines(self):
        """The shuffled naive-INLJ shape: index upper levels are a few hot
        lines whose strides alias into a handful of sets, shuffled among
        cold leaf and data lines spread over every set."""
        rng = np.random.default_rng(0x1A5)
        num_sets, ways = 96, 16
        hot = (rng.integers(0, 40, 6000) * num_sets) + rng.integers(0, 3, 6000)
        cold = rng.integers(0, 200_000, 9000)
        stream = np.concatenate([hot, cold])
        rng.shuffle(stream)
        assert_l2_matches_oracle(num_sets, ways, stream, cuts=(5000, 11000))

    def test_low_diversity_stretches_inside_long_reuse_windows(self):
        """Lines reused across a long stretch of few distinct lines hit
        with windows far longer than ``ways`` -- the deep lag tier."""
        rng = np.random.default_rng(0xCA1)
        wild = rng.integers(0, 4000, 2000)
        calm = np.repeat(rng.integers(0, 3, 900), 3)
        anchors = np.array([4001, 4002, 4003])
        stream = np.concatenate(
            [wild[:1000], anchors, calm, anchors, wild[1000:], calm, anchors]
        )
        assert_l2_matches_oracle(1, 4, stream, cuts=(1500,))
        assert_l2_matches_oracle(2, 8, stream)

    @pytest.mark.parametrize("ways,length,cut_step", [(1, 7, 3), (2, 7, 4), (3, 6, 2)])
    def test_every_short_stream_in_its_own_set(self, ways, length, cut_step):
        """Every stream of ``length`` accesses over ``ways + 2`` lines, one
        stream per set, replayed step-major and split at a step: each
        trivial class is hit exactly at its boundary somewhere."""
        tokens = itertools.product(range(ways + 2), repeat=length)
        steps = np.array(list(tokens), dtype=np.int64).T
        num_sets = steps.shape[1]
        stream = (steps * num_sets + np.arange(num_sets)).ravel()
        assert_l2_matches_oracle(num_sets, ways, stream, cuts=(cut_step * num_sets,))

    def test_sets_with_at_most_ways_lines_hit_on_every_retouch(self):
        rng = np.random.default_rng(16)
        stream = rng.integers(0, 16, 800) * 4  # 16 lines, all in set 0 of 4
        assert_l2_matches_oracle(4, 16, stream, cuts=(100,))


@pytest.mark.parametrize("reader", ["occupancy", "resident_lines", "contains"])
def test_each_reader_folds_a_cold_batch(reader):
    """A batch replayed cold on an empty L2 keeps no state until read:
    every reader, read first, sees the end state the oracle holds."""
    rng = np.random.default_rng(0xF01D)
    num_sets, ways = 6, 4
    stream = rng.integers(0, 90, 500)
    capacity = num_sets * ways * LINE_BYTES
    kernel = VectorSetAssociativeCache(capacity, LINE_BYTES, ways=ways)
    oracle = SetAssociativeCache(capacity, LINE_BYTES, ways=ways)
    kernel.access_batch(stream)
    for line in stream.tolist():
        oracle.access(line)
    if reader == "occupancy":
        assert kernel.occupancy == oracle.occupancy
    elif reader == "resident_lines":
        assert [kernel.resident_lines(i).tolist() for i in range(num_sets)] == [
            list(cache_set) for cache_set in oracle._sets
        ]
    else:
        assert [kernel.contains(line) for line in range(90)] == [
            oracle.contains(line) for line in range(90)
        ]


def test_cold_batch_folds_from_the_callers_array():
    """The cache keeps the caller's batch, not a copy, until a read folds
    it: a write to the batch before that read is what the fold sees.  So
    a caller leaves its batch untouched until it reads or resets the
    cache; ``MachineModel`` resets the L2 right after the L2 stage."""
    rng = np.random.default_rng(0xF01E)
    num_sets, ways = 6, 4
    stream = rng.integers(0, 90, 500)
    capacity = num_sets * ways * LINE_BYTES

    def end_state(lines):
        oracle = SetAssociativeCache(capacity, LINE_BYTES, ways=ways)
        for line in lines.tolist():
            oracle.access(line)
        return [list(cache_set) for cache_set in oracle._sets]

    kernel = VectorSetAssociativeCache(capacity, LINE_BYTES, ways=ways)
    kernel.access_batch(stream)
    as_passed = end_state(stream)
    stream[:] = stream[::-1].copy()
    as_folded = [kernel.resident_lines(i).tolist() for i in range(num_sets)]
    assert as_folded == end_state(stream) != as_passed


class TestLongerThanOnePass:
    """A batch longer than one kernel pass reaches an empty model through
    the stateful kernels, one pass after another; every shorter first
    batch above replays cold.  The pass length is patched down so a short
    stream spans several passes."""

    @pytest.fixture(autouse=True)
    def short_passes(self, monkeypatch):
        monkeypatch.setattr(fastlru, "_POS_BITS", 6)
        monkeypatch.setattr(fastlru, "_POS_CAP", 1 << 6)

    def test_models_from_empty(self):
        rng = np.random.default_rng(0x9A55)
        stream = rng.integers(0, 300, 1000)
        assert_l2_matches_oracle(8, 4, stream)
        assert_tlb_matches_oracle(32, [], stream)

    def test_machine_replay_from_empty(self):
        rng = np.random.default_rng(0x9A56)
        trace = LookupTrace(
            step_addresses=rng.integers(0, 1 << 30, size=(3, 400), dtype=np.int64),
            steps_per_lookup=np.full(400, 3, dtype=np.int64),
        )
        machine = MachineModel(V100_NVLINK2, SimulationConfig(probe_sample=2**10))
        stream, _ = machine.coalesced_lines(trace)
        assert len(stream) > fastlru._POS_CAP
        assert machine.simulate_lookups(trace).as_dict() == replay(machine, trace).as_dict()


class TestTlbMatchesOracle:
    @given(
        entries=st.integers(min_value=1, max_value=64),
        prior=st.lists(st.integers(0, 120), max_size=80),
        case=streams(max_universe=120, max_length=600),
    )
    def test_any_capacity_prior_state_stream_and_split(self, entries, prior, case):
        stream, cuts = case
        assert_tlb_matches_oracle(entries, prior, stream, cuts)

    def test_universe_exactly_at_capacity_with_prior_residents(self):
        """Residents plus new pages fill the TLB exactly: nothing evicts."""
        rng = np.random.default_rng(64)
        prior = np.arange(40)
        stream = rng.permutation(np.tile(np.arange(16, 64), 5))
        assert len(np.union1d(prior, stream)) == 64
        assert_tlb_matches_oracle(64, prior, stream, cuts=(100,))

    def test_universe_one_past_capacity_with_prior_residents(self):
        """One page too many: the batch must take the evicting path."""
        rng = np.random.default_rng(65)
        prior = np.arange(40)
        stream = rng.permutation(np.tile(np.arange(16, 65), 5))
        assert len(np.union1d(prior, stream)) == 65
        assert_tlb_matches_oracle(64, prior, stream, cuts=(100,))


def misses_with(model, stream):
    model.access_batch(np.asarray(stream, dtype=np.int64))
    return model.misses


class TestLruInclusion:
    """More capacity never adds misses (LRU's stack inclusion)."""

    @given(num_sets=st.integers(min_value=1, max_value=8), case=skewed_streams())
    def test_l2_misses_non_increasing_in_ways(self, num_sets, case):
        stream, _ = case
        misses = [
            misses_with(
                VectorSetAssociativeCache(
                    num_sets * ways * LINE_BYTES, LINE_BYTES, ways=ways
                ),
                stream,
            )
            for ways in range(1, 10)
        ]
        assert misses == sorted(misses, reverse=True)

    @given(case=skewed_streams())
    def test_tlb_misses_non_increasing_in_entries(self, case):
        stream, _ = case
        misses = [
            misses_with(VectorLruTlb(entries), stream)
            for entries in (1, 2, 4, 8, 16, 32, 64, 128, 256)
        ]
        assert misses == sorted(misses, reverse=True)

    @given(case=skewed_streams(), entries=st.integers(min_value=1, max_value=64))
    def test_tlb_misses_non_increasing_in_page_size(self, case, entries):
        stream, _ = case
        misses = [
            misses_with(VectorLruTlb(entries), np.asarray(stream) >> shift)
            for shift in range(0, 8)
        ]
        assert misses == sorted(misses, reverse=True)

    def test_machine_tlb_misses_non_increasing_in_tlb_range(self):
        """The knee's mechanism end to end: on one random-order trace over
        64 GiB, a larger TLB range never adds translation misses."""
        rng = np.random.default_rng(0x32)
        trace = LookupTrace(
            step_addresses=rng.integers(0, 1 << 36, size=(4, 2048), dtype=np.int64),
            steps_per_lookup=np.full(2048, 4, dtype=np.int64),
        )
        sim = SimulationConfig(probe_sample=2**10)
        gpu = V100_NVLINK2.gpu
        misses = []
        for range_gib in (1, 4, 16, 32, 64):
            spec = replace(
                V100_NVLINK2, gpu=replace(gpu, tlb_range_bytes=range_gib << 30)
            )
            counters = MachineModel(spec, sim).simulate_lookups(trace, shuffle=True)
            misses.append(counters.tlb_misses)
        assert misses == sorted(misses, reverse=True)
        assert misses[0] > misses[-1]
