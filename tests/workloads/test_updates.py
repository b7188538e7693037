"""Index maintenance workloads."""

import numpy as np
import pytest

from repro.data.column import VirtualSortedColumn
from repro.data.relation import Relation
from repro.errors import ConfigurationError, WorkloadError
from repro.hardware.spec import V100_NVLINK2
from repro.indexes import (
    BinarySearchIndex,
    BPlusTreeIndex,
    HarmoniaIndex,
    RadixSplineIndex,
)
from repro.workloads.updates import (
    SortedArrayOracle,
    functional_insert_throughput,
    maintenance_cost,
    make_update_stream,
)

CPU = V100_NVLINK2.cpu


def index_over(index_cls, n=2**28):
    return index_cls(Relation("R", VirtualSortedColumn(n)))


class TestMaintenanceCost:
    def test_tree_indexes_update_in_place(self):
        for index_cls in (BPlusTreeIndex, HarmoniaIndex):
            cost = maintenance_cost(index_over(index_cls), 10_000, CPU)
            assert cost.strategy == "in-place"

    def test_static_indexes_rebuild(self):
        for index_cls in (RadixSplineIndex, BinarySearchIndex):
            cost = maintenance_cost(index_over(index_cls), 10_000, CPU)
            assert cost.strategy == "rebuild"

    def test_section6_guidance_quantified(self):
        """Harmonia absorbs a batch orders of magnitude cheaper than a
        RadixSpline refit at paper scale (Section 6)."""
        harmonia = maintenance_cost(index_over(HarmoniaIndex), 10_000, CPU)
        spline = maintenance_cost(index_over(RadixSplineIndex), 10_000, CPU)
        assert (
            spline.seconds_per_batch > 50 * harmonia.seconds_per_batch
        )

    def test_in_place_scales_with_batch(self):
        small = maintenance_cost(index_over(BPlusTreeIndex), 1_000, CPU)
        large = maintenance_cost(index_over(BPlusTreeIndex), 100_000, CPU)
        assert large.seconds_per_batch == pytest.approx(
            100 * small.seconds_per_batch, rel=0.01
        )

    def test_rebuild_independent_of_batch(self):
        small = maintenance_cost(index_over(RadixSplineIndex), 1_000, CPU)
        large = maintenance_cost(index_over(RadixSplineIndex), 100_000, CPU)
        assert large.seconds_per_batch == pytest.approx(
            small.seconds_per_batch
        )

    def test_amortized_cost(self):
        cost = maintenance_cost(index_over(HarmoniaIndex), 1_000, CPU)
        assert cost.amortized_seconds_per_insert(1_000) == pytest.approx(
            cost.seconds_per_batch / 1_000
        )

    def test_rejects_bad_batch(self):
        with pytest.raises(ConfigurationError):
            maintenance_cost(index_over(HarmoniaIndex), 0, CPU)
        cost = maintenance_cost(index_over(HarmoniaIndex), 10, CPU)
        with pytest.raises(ConfigurationError):
            cost.amortized_seconds_per_insert(0)


class TestFunctionalInserts:
    @pytest.mark.parametrize("index_cls", [BPlusTreeIndex, HarmoniaIndex])
    def test_inserts_complete_and_queryable(self, index_cls):
        rate = functional_insert_throughput(
            index_cls, base_tuples=2**12, batch_size=256, batches=2
        )
        assert rate > 0

    def test_static_index_rejected(self):
        with pytest.raises(WorkloadError):
            functional_insert_throughput(
                RadixSplineIndex, base_tuples=1024, batch_size=16
            )

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            functional_insert_throughput(
                BPlusTreeIndex, base_tuples=0, batch_size=16
            )


class TestMakeUpdateStream:
    def setup_method(self):
        self.base_keys = np.arange(0, 4096 * 4, 4, dtype=np.uint64)
        self.probe_keys = np.tile(self.base_keys, 2)[: 16 * 64]

    def make(self, update_fraction=0.5, seed=42, num_requests=16,
             request_tuples=64):
        return make_update_stream(
            self.base_keys,
            self.probe_keys,
            num_requests,
            request_tuples,
            update_fraction,
            seed,
        )

    def test_deterministic_in_seed(self):
        first, second = self.make(), self.make()
        assert first.kinds == second.kinds
        for a, b in zip(first.keys, second.keys):
            np.testing.assert_array_equal(a, b)

    def test_seed_changes_the_stream(self):
        assert self.make(seed=1).kinds != self.make(seed=2).kinds

    def test_zero_fraction_is_pure_probe_slices(self):
        stream = self.make(update_fraction=0.0)
        assert stream.update_requests == 0
        for i, keys in enumerate(stream.keys):
            np.testing.assert_array_equal(
                keys, self.probe_keys[i * 64 : (i + 1) * 64]
            )

    def test_values_are_the_dense_global_row_id_sequence(self):
        stream = self.make()
        expected_next = len(self.base_keys)
        for kind, values in zip(stream.kinds, stream.values):
            if kind == "update":
                assert values is not None
                assert values[0] == expected_next
                np.testing.assert_array_equal(
                    values,
                    np.arange(
                        expected_next,
                        expected_next + len(values),
                        dtype=np.int64,
                    ),
                )
                expected_next += len(values)
            else:
                assert values is None
        assert stream.update_tuples == expected_next - len(self.base_keys)

    def test_inserts_are_non_members(self):
        stream = self.make(update_fraction=1.0)
        members = set(self.base_keys.tolist())
        inserted = [
            key
            for keys in stream.keys
            for key in keys.tolist()
            if key not in members
        ]
        # The +1 stride-4 construction guarantees true inserts exist
        # and every one of them misses the base relation.
        assert inserted
        assert all((key - 1) % 4 == 0 for key in inserted)

    def test_probes_read_back_written_keys(self):
        stream = self.make(seed=42)
        written: set = set()
        readback_seen = False
        for kind, keys in zip(stream.kinds, stream.keys):
            if kind == "update":
                written.update(keys.tolist())
            elif written and set(keys.tolist()) & written:
                readback_seen = True
        assert readback_seen

    def test_rejects_bad_fraction_and_short_probe_stream(self):
        with pytest.raises(ConfigurationError):
            self.make(update_fraction=1.5)
        with pytest.raises(ConfigurationError):
            make_update_stream(
                self.base_keys, self.probe_keys[:8], 16, 64, 0.5, 42
            )


class TestSortedArrayOracle:
    def test_base_positions_then_updates_win(self):
        keys = np.asarray([2, 5, 9], dtype=np.uint64)
        oracle = SortedArrayOracle(keys)
        np.testing.assert_array_equal(
            oracle.lookup(np.asarray([2, 9, 7], dtype=np.uint64)),
            np.asarray([0, 2, -1], dtype=np.int64),
        )
        oracle.apply(
            np.asarray([5, 7], dtype=np.uint64),
            np.asarray([3, 4], dtype=np.int64),
        )
        np.testing.assert_array_equal(
            oracle.lookup(np.asarray([5, 7, 2], dtype=np.uint64)),
            np.asarray([3, 4, 0], dtype=np.int64),
        )

    def test_later_entries_win_within_a_batch(self):
        oracle = SortedArrayOracle(np.asarray([1], dtype=np.uint64))
        oracle.apply(
            np.asarray([1, 1], dtype=np.uint64),
            np.asarray([10, 11], dtype=np.int64),
        )
        assert oracle.lookup(np.asarray([1], dtype=np.uint64))[0] == 11

    def test_rejects_unsorted_base_and_ragged_batch(self):
        with pytest.raises(ConfigurationError):
            SortedArrayOracle(np.asarray([3, 2], dtype=np.uint64))
        oracle = SortedArrayOracle(np.asarray([1, 2], dtype=np.uint64))
        with pytest.raises(ConfigurationError):
            oracle.apply(
                np.asarray([1], dtype=np.uint64),
                np.asarray([1, 2], dtype=np.int64),
            )
