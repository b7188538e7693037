"""Join plumbing: results, reference join, environment."""

import tracemalloc

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.data.column import MaterializedColumn
from repro.data.generator import WorkloadConfig
from repro.errors import CapacityError, WorkloadError
from repro.experiments.common import gib_to_tuples, make_environment
from repro.hardware.memory import MemorySpace
from repro.hardware.spec import V100_NVLINK2
from repro.indexes import BinarySearchIndex, BPlusTreeIndex, RadixSplineIndex
from repro.join.base import (
    JoinResult,
    QueryEnvironment,
    expand_spans,
    reference_join,
)
from repro.join.inlj import IndexNestedLoopJoin
from repro.units import GIB


class TestJoinResult:
    def test_equality_ignores_order(self):
        a = JoinResult(
            probe_indices=np.array([2, 0, 1]),
            build_positions=np.array([20, 0, 10]),
        )
        b = JoinResult(
            probe_indices=np.array([0, 1, 2]),
            build_positions=np.array([0, 10, 20]),
        )
        assert a.equals(b)

    def test_inequality(self):
        a = JoinResult(
            probe_indices=np.array([0]), build_positions=np.array([1])
        )
        b = JoinResult(
            probe_indices=np.array([0]), build_positions=np.array([2])
        )
        assert not a.equals(b)

    def test_different_sizes_unequal(self):
        a = JoinResult(
            probe_indices=np.array([0]), build_positions=np.array([1])
        )
        b = JoinResult(
            probe_indices=np.empty(0, dtype=np.int64),
            build_positions=np.empty(0, dtype=np.int64),
        )
        assert not a.equals(b)

    def test_length_mismatch_rejected(self):
        with pytest.raises(WorkloadError):
            JoinResult(
                probe_indices=np.array([0, 1]),
                build_positions=np.array([1]),
            )

    def test_len(self):
        result = JoinResult(
            probe_indices=np.array([0, 1]), build_positions=np.array([5, 6])
        )
        assert len(result) == 2


class TestReferenceJoin:
    def test_matches_found(self, small_relation, small_probes):
        result = reference_join(small_relation.column, small_probes.keys)
        assert len(result) == small_probes.num_matches

    def test_positions_correct(self, small_relation, small_probes):
        result = reference_join(small_relation.column, small_probes.keys)
        expected = small_probes.expected_positions[result.probe_indices]
        assert np.array_equal(result.build_positions, expected)


class TestMultiMatchResults:
    """Regressions for the single-match assumption the non-equi joins
    removed: ``reference_join`` used to compute one ``rank_of`` per probe
    and ``equals`` relied on one pair per probe index, so any multi-match
    result (several R positions per S tuple) compared incorrectly or
    could not be expressed at all."""

    def test_regression_canonical_orders_within_probe(self):
        result = JoinResult(
            probe_indices=np.array([1, 0, 1, 0]),
            build_positions=np.array([9, 4, 2, 7]),
        )
        canonical = result.canonical()
        np.testing.assert_array_equal(canonical.probe_indices, [0, 0, 1, 1])
        np.testing.assert_array_equal(canonical.build_positions, [4, 7, 2, 9])

    def test_regression_equals_is_multiset_equality(self):
        a = JoinResult(
            probe_indices=np.array([0, 0, 1]),
            build_positions=np.array([5, 6, 7]),
        )
        b = JoinResult(
            probe_indices=np.array([1, 0, 0]),
            build_positions=np.array([7, 6, 5]),
        )
        assert a.equals(b)
        # Same probes, different pair multiplicities: NOT equal.  A
        # probe-index lexsort alone (the old single-match comparison)
        # cannot distinguish these reliably.
        c = JoinResult(
            probe_indices=np.array([0, 0, 1]),
            build_positions=np.array([5, 5, 7]),
        )
        assert not a.equals(c)

    def test_expand_spans_flattens_in_canonical_order(self):
        probe, positions = expand_spans(
            sources=np.array([0, 1, 2]),
            starts=np.array([4, 9, 2]),
            ends=np.array([6, 9, 5]),
        )
        np.testing.assert_array_equal(probe, [0, 0, 2, 2, 2])
        np.testing.assert_array_equal(positions, [4, 5, 2, 3, 4])

    def test_expand_spans_inverted_spans_are_empty(self):
        probe, positions = expand_spans(
            sources=np.array([0, 1]),
            starts=np.array([5, 1]),
            ends=np.array([3, 2]),
        )
        np.testing.assert_array_equal(probe, [1])
        np.testing.assert_array_equal(positions, [1])

    def test_expand_spans_all_empty(self):
        probe, positions = expand_spans(
            sources=np.array([0, 1]),
            starts=np.array([3, 4]),
            ends=np.array([3, 4]),
        )
        assert len(probe) == 0
        assert len(positions) == 0
        assert probe.dtype == np.int64
        assert positions.dtype == np.int64

    def test_regression_reference_join_emits_multi_match(self):
        """The old rank_of formulation returned at most one position per
        probe; with a band width it must emit the whole span."""
        column = MaterializedColumn(
            np.array([10, 20, 30, 40], dtype=np.uint64)
        )
        result = reference_join(
            column, np.array([25], dtype=np.uint64), epsilon=10
        )
        canonical = result.canonical()
        np.testing.assert_array_equal(canonical.probe_indices, [0, 0])
        np.testing.assert_array_equal(canonical.build_positions, [1, 2])

    def test_reference_join_epsilon_zero_unchanged(self):
        """epsilon=0 subsumes the historical equi semantics exactly."""
        column = MaterializedColumn(
            np.array([10, 20, 30], dtype=np.uint64)
        )
        result = reference_join(
            column, np.array([20, 21, 10], dtype=np.uint64)
        )
        canonical = result.canonical()
        np.testing.assert_array_equal(canonical.probe_indices, [0, 2])
        np.testing.assert_array_equal(canonical.build_positions, [1, 0])


class TestQueryEnvironment:
    def test_places_relations_in_host(self, tiny_sim):
        workload = WorkloadConfig(r_tuples=2**12, s_tuples=2**10)
        env = QueryEnvironment(V100_NVLINK2, workload, sim=tiny_sim)
        assert env.relation.allocation.space is MemorySpace.HOST
        assert env.probe_allocation.space is MemorySpace.HOST

    def test_builds_and_places_index(self, tiny_sim):
        workload = WorkloadConfig(r_tuples=2**12, s_tuples=2**10)
        env = QueryEnvironment(
            V100_NVLINK2, workload, index_cls=RadixSplineIndex, sim=tiny_sim
        )
        assert env.index.is_placed

    def test_capacity_error_propagates(self, tiny_sim):
        # A payload-bearing B+tree over 111 GiB exceeds 256 GiB of host
        # memory together with R.
        workload = WorkloadConfig(r_tuples=int(111 * GIB // 8))
        with pytest.raises(CapacityError):
            QueryEnvironment(
                V100_NVLINK2,
                workload,
                index_cls=BPlusTreeIndex,
                sim=tiny_sim,
                index_kwargs={"leaf_payload_bytes": 8},
            )

    def test_sizes(self, tiny_sim):
        workload = WorkloadConfig(r_tuples=2**12, s_tuples=2**10)
        env = QueryEnvironment(V100_NVLINK2, workload, sim=tiny_sim)
        assert env.s_bytes == 2**10 * 8
        assert env.r_bytes == 2**12 * 8

    def test_result_bytes_scale_with_match_rate(self, tiny_sim):
        full = QueryEnvironment(
            V100_NVLINK2, WorkloadConfig(r_tuples=2**12, s_tuples=2**10),
            sim=tiny_sim,
        )
        half = QueryEnvironment(
            V100_NVLINK2,
            WorkloadConfig(r_tuples=2**12, s_tuples=2**10, match_rate=0.5),
            sim=tiny_sim,
        )
        assert half.result_bytes() == full.result_bytes() / 2


class TestReplayWorkingSet:
    """The naive estimate replays its sample in a bounded working set: each
    stage drops its input once the next one owns the data (DESIGN.md §10,
    *Working set*)."""

    #: Traced peak of one estimate per sampled lookup.  Binary search at
    #: 111 GiB with a 2^13 sample, first call in a fresh process, measured
    #: 1,189 B/lookup; before the stages released their inputs (the trace,
    #: a shuffled copy of the stream and the L2's copy of it stayed alive
    #: through the L2 and TLB stages) it measured 2,317 B/lookup.
    BYTES_PER_LOOKUP = 1_800

    def test_naive_estimate_peak(self):
        sim = SimulationConfig(probe_sample=2**13)
        env = make_environment(
            V100_NVLINK2, gib_to_tuples(111.0), index_cls=BinarySearchIndex,
            sim=sim,
        )
        join = IndexNestedLoopJoin(env.index)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            join.estimate(env)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < self.BYTES_PER_LOOKUP * sim.probe_sample
