"""Radix partitioner."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.column import VirtualSortedColumn
from repro.errors import ConfigurationError
from repro.partition.bits import PartitionBits, choose_partition_bits
from repro.partition.radix import RadixPartitioner


@pytest.fixture
def partitioner():
    return RadixPartitioner(PartitionBits(shift=4, bits=4))


def random_keys(rng, count=1000):
    return rng.integers(0, 2**16, size=count).astype(np.uint64)


class TestPartition:
    def test_preserves_multiset(self, partitioner, rng):
        keys = random_keys(rng)
        output = partitioner.partition(keys)
        assert np.array_equal(np.sort(output.keys), np.sort(keys))

    def test_partitions_contiguous(self, partitioner, rng):
        keys = random_keys(rng)
        output = partitioner.partition(keys)
        ids = partitioner.bits.partition_of(output.keys)
        assert np.all(ids[:-1] <= ids[1:])

    def test_offsets_consistent(self, partitioner, rng):
        keys = random_keys(rng)
        output = partitioner.partition(keys)
        assert output.offsets[0] == 0
        assert output.offsets[-1] == len(keys)
        assert np.all(np.diff(output.offsets) >= 0)

    def test_partition_slice_contents(self, partitioner, rng):
        keys = random_keys(rng)
        output = partitioner.partition(keys)
        for partition in range(output.num_partitions):
            chunk = output.keys[
                output.offsets[partition] : output.offsets[partition + 1]
            ]
            if len(chunk):
                ids = partitioner.bits.partition_of(chunk)
                assert np.all(ids == partition)

    def test_stability_within_partition(self, partitioner):
        """The linear allocator hands out slots in arrival order."""
        keys = np.array([16, 18, 17, 16], dtype=np.uint64)  # all partition 1
        output = partitioner.partition(keys)
        assert output.keys.tolist() == [16, 18, 17, 16]
        assert output.source_indices.tolist() == [0, 1, 2, 3]

    def test_source_indices_track_keys(self, partitioner, rng):
        keys = random_keys(rng)
        output = partitioner.partition(keys)
        assert output.source_indices.dtype == np.int64
        assert np.array_equal(keys[output.source_indices], output.keys)

    def test_empty_input(self, partitioner):
        output = partitioner.partition(np.empty(0, dtype=np.uint64))
        assert len(output.keys) == 0
        assert output.offsets[-1] == 0


class TestCostModel:
    def test_two_pass_traffic(self, partitioner):
        counters = partitioner.partition_counters(1000, tuple_bytes=16)
        assert counters.gpu_memory_bytes == 1000 * 16 * 2

    def test_rejects_negative(self, partitioner):
        with pytest.raises(ConfigurationError):
            partitioner.partition_counters(-1)


class TestLocality:
    def test_partitioned_keys_improve_position_locality(self, rng):
        """After partitioning, neighbouring keys index nearby positions --
        the property that restores TLB hits (Section 4.2)."""
        column = VirtualSortedColumn(2**18, stride=4)
        bits = choose_partition_bits(column, 256, ignored_lsb=4)
        partitioner = RadixPartitioner(bits)
        positions = rng.integers(0, 2**18, size=4096)
        keys = column.key_at(positions)
        output = partitioner.partition(keys)
        shuffled_jumps = np.abs(np.diff(column.rank_of(keys))).mean()
        partitioned_jumps = np.abs(np.diff(column.rank_of(output.keys))).mean()
        assert partitioned_jumps < shuffled_jumps / 10


@settings(max_examples=25, deadline=None)
@given(
    shift=st.integers(min_value=0, max_value=12),
    bits=st.integers(min_value=1, max_value=10),
    count=st.integers(min_value=0, max_value=500),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_stable_order_matches_argsort(shift, bits, count, seed):
    """The packed-sort scatter equals the stable argsort it replaced."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**40, size=count).astype(np.uint64)
    partitioner = RadixPartitioner(PartitionBits(shift=shift, bits=bits))
    partitions = partitioner.bits.partition_of(keys)
    order = partitioner._stable_order(partitions, len(keys))
    assert np.array_equal(order, np.argsort(partitions, kind="stable"))


def test_stable_order_wide_id_fallback(rng):
    """When id + position bits exceed an int64, the argsort path is used
    and still yields a stable order."""
    import types

    partitioner = RadixPartitioner(
        types.SimpleNamespace(num_partitions=2**60)
    )
    partitions = rng.integers(0, 2**31, size=200).astype(np.uint64)
    order = partitioner._stable_order(partitions, len(partitions))
    assert np.array_equal(order, np.argsort(partitions, kind="stable"))


@settings(max_examples=25, deadline=None)
@given(
    shift=st.integers(min_value=0, max_value=12),
    bits=st.integers(min_value=1, max_value=10),
    count=st.integers(min_value=0, max_value=500),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_partition_properties(shift, bits, count, seed):
    """Multiset preserved, ids sorted, offsets == histogram -- always."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**40, size=count).astype(np.uint64)
    partitioner = RadixPartitioner(PartitionBits(shift=shift, bits=bits))
    output = partitioner.partition(keys)
    assert np.array_equal(np.sort(output.keys), np.sort(keys))
    ids = partitioner.bits.partition_of(output.keys)
    assert np.all(np.diff(ids) >= 0) if len(ids) > 1 else True
    histogram = np.bincount(
        partitioner.bits.partition_of(keys),
        minlength=partitioner.bits.num_partitions,
    )
    assert np.array_equal(np.diff(output.offsets), histogram)
