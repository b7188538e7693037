"""Key columns: materialized and virtual."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.column import (
    MaterializedColumn,
    VirtualSortedColumn,
    make_column,
)
from repro.errors import ConfigurationError, WorkloadError

from . import oracles

MAX_KEY = 2**64 - 1


class TestMaterializedColumn:
    def test_basic(self):
        column = MaterializedColumn(np.array([1, 5, 9], dtype=np.uint64))
        assert len(column) == 3
        assert column.nbytes == 24
        assert column.min_key == 1
        assert column.max_key == 9

    def test_key_at(self):
        column = MaterializedColumn(np.array([1, 5, 9], dtype=np.uint64))
        assert column.key_at(np.array([0, 2])).tolist() == [1, 9]

    def test_rank_of_members(self):
        column = MaterializedColumn(np.array([1, 5, 9], dtype=np.uint64))
        assert column.rank_of(np.array([5, 1, 9])).tolist() == [1, 0, 2]

    def test_rank_of_non_members(self):
        column = MaterializedColumn(np.array([1, 5, 9], dtype=np.uint64))
        assert column.rank_of(np.array([0, 4, 10])).tolist() == [-1, -1, -1]

    def test_hint_is_exact(self):
        column = MaterializedColumn(np.array([1, 5, 9], dtype=np.uint64))
        assert column.hint_error_bound() == 0
        assert column.lower_bound_hint(np.array([6]))[0] == 2

    def test_min_gap(self):
        column = MaterializedColumn(np.array([0, 2, 10], dtype=np.uint64))
        assert column.min_gap == 2

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigurationError):
            MaterializedColumn(np.array([3, 1, 2], dtype=np.uint64))

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            MaterializedColumn(np.array([1, 1, 2], dtype=np.uint64))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            MaterializedColumn(np.array([], dtype=np.uint64))

    def test_rejects_matrix(self):
        with pytest.raises(ConfigurationError):
            MaterializedColumn(np.zeros((2, 2), dtype=np.uint64))

    def test_keys_view_readonly(self):
        column = MaterializedColumn(np.array([1, 2], dtype=np.uint64))
        with pytest.raises(ValueError):
            column.keys[0] = 0


class TestVirtualSortedColumn:
    def test_deterministic(self):
        a = VirtualSortedColumn(1000, stride=4, seed=7)
        b = VirtualSortedColumn(1000, stride=4, seed=7)
        positions = np.arange(1000)
        assert np.array_equal(a.key_at(positions), b.key_at(positions))

    def test_seed_changes_keys(self):
        a = VirtualSortedColumn(1000, stride=4, seed=7)
        b = VirtualSortedColumn(1000, stride=4, seed=8)
        positions = np.arange(1000)
        assert not np.array_equal(a.key_at(positions), b.key_at(positions))

    def test_strictly_increasing_full_scan(self):
        column = VirtualSortedColumn(10_000, stride=4, seed=3)
        keys = column.key_at(np.arange(10_000))
        assert np.all(keys[:-1] < keys[1:])

    def test_min_gap_two_for_stride_four(self):
        column = VirtualSortedColumn(10_000, stride=4, seed=3)
        keys = column.key_at(np.arange(10_000))
        gaps = keys[1:] - keys[:-1]
        assert gaps.min() >= 2
        assert column.min_gap == 2

    def test_key_plus_one_never_member(self):
        column = VirtualSortedColumn(10_000, stride=4, seed=3)
        keys = column.key_at(np.arange(10_000)) + np.uint64(1)
        assert np.all(column.rank_of(keys) == -1)

    def test_rank_of_roundtrip(self):
        column = VirtualSortedColumn(10_000, stride=4, seed=3)
        positions = np.array([0, 17, 9_999])
        assert np.array_equal(
            column.rank_of(column.key_at(positions)), positions
        )

    def test_rank_of_out_of_domain(self):
        column = VirtualSortedColumn(100, stride=4, offset=1000)
        assert column.rank_of(np.array([0, 999, 10**9]))[0] == -1

    def test_regression_hint_for_keys_at_or_above_2_63(self):
        """An int64 cast wrapped these keys negative, clipping the hint to
        0 while the true lower bound is the column length."""
        column = VirtualSortedColumn(1000, stride=4)
        keys = np.asarray([2**63, 2**63 + 5, MAX_KEY], dtype=np.uint64)
        hints = column.lower_bound_hint(keys)
        assert hints.tolist() == [999, 999, 999]
        assert np.all(
            np.abs(column.bound_positions(keys) - hints)
            <= column.hint_error_bound()
        )

    def test_bound_positions_rejects_unknown_side(self):
        with pytest.raises(ConfigurationError):
            VirtualSortedColumn(10).bound_positions([3], side="middle")
        with pytest.raises(ConfigurationError):
            MaterializedColumn(np.arange(3, dtype=np.uint64)).bound_positions(
                [1], side="middle"
            )

    def test_hint_within_bound(self):
        column = VirtualSortedColumn(10_000, stride=4, seed=3)
        positions = np.arange(10_000)
        hints = column.lower_bound_hint(column.key_at(positions))
        assert np.all(np.abs(hints - positions) <= column.hint_error_bound())

    def test_offset(self):
        column = VirtualSortedColumn(10, stride=4, offset=100)
        assert column.min_key >= 100

    def test_dense_stride_one(self):
        column = VirtualSortedColumn(100, stride=1)
        assert column.key_at(np.arange(100)).tolist() == list(range(100))

    def test_positions_out_of_range_rejected(self):
        column = VirtualSortedColumn(10)
        with pytest.raises(ConfigurationError):
            column.key_at(np.array([10]))
        with pytest.raises(ConfigurationError):
            column.key_at(np.array([-1]))

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            VirtualSortedColumn(0)
        with pytest.raises(ConfigurationError):
            VirtualSortedColumn(10, stride=0)
        with pytest.raises(ConfigurationError):
            VirtualSortedColumn(10, offset=-1)

    def test_rejects_domain_overflow(self):
        with pytest.raises(ConfigurationError):
            VirtualSortedColumn(2**61, stride=8)

    def test_validate_sample(self, rng):
        VirtualSortedColumn(10_000, stride=4).validate_sample(rng)

    def test_sample_positions(self, rng):
        column = VirtualSortedColumn(1000)
        positions = column.sample_positions(rng, 100)
        assert len(positions) == 100
        assert positions.min() >= 0 and positions.max() < 1000

    def test_sample_positions_rejects_negative(self, rng):
        with pytest.raises(WorkloadError):
            VirtualSortedColumn(10).sample_positions(rng, -1)

    def test_paper_scale_footprint(self):
        column = VirtualSortedColumn(num_keys=int(2**33.9))
        assert column.nbytes > 119 * 2**30  # ~120 GiB, nothing allocated


class TestMakeColumn:
    def test_small_materializes(self):
        column = make_column(1000, materialize_threshold=2**20)
        assert isinstance(column, MaterializedColumn)

    def test_large_stays_virtual(self):
        column = make_column(2**21, materialize_threshold=2**20)
        assert isinstance(column, VirtualSortedColumn)

    def test_same_keys_either_way(self):
        virtual = make_column(5000, materialize_threshold=0)
        materialized = make_column(5000, materialize_threshold=10_000)
        positions = np.arange(5000)
        assert np.array_equal(
            virtual.key_at(positions), materialized.key_at(positions)
        )


@settings(max_examples=40, deadline=None)
@given(
    num_keys=st.integers(min_value=1, max_value=5000),
    stride=st.integers(min_value=1, max_value=64),
    offset=st.integers(min_value=0, max_value=10**6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_virtual_column_properties(num_keys, stride, offset, seed):
    """Monotone keys, exact rank recovery, bounded hints -- any params."""
    column = VirtualSortedColumn(
        num_keys, stride=stride, offset=offset, seed=seed
    )
    positions = np.arange(num_keys, dtype=np.int64)
    keys = column.key_at(positions)
    if num_keys > 1:
        assert np.all(keys[:-1] < keys[1:])
    assert np.array_equal(column.rank_of(keys), positions)
    hints = column.lower_bound_hint(keys)
    assert np.all(np.abs(hints - positions) <= column.hint_error_bound())


@settings(max_examples=40, deadline=None)
@given(
    num_keys=st.integers(min_value=1, max_value=3000),
    stride=st.integers(min_value=1, max_value=64),
    offset=st.sampled_from([0, 1, 10**6, 2**62]),
    seed=st.integers(min_value=0, max_value=2**31),
    probe_seed=st.integers(min_value=0, max_value=2**32 - 1),
    materialize=st.booleans(),
)
def test_bound_positions_match_the_bisection_reference(
    num_keys, stride, offset, seed, probe_seed, materialize
):
    """Both column kinds, both sides: the rank equals the key-at bisection
    and ``searchsorted`` over the materialized keys, for members, near
    misses, 0, MAX, keys past the end and keys at or above 2^63."""
    virtual = VirtualSortedColumn(
        num_keys, stride=stride, offset=offset, seed=seed
    )
    keys = virtual.key_at(np.arange(num_keys, dtype=np.int64))
    column = MaterializedColumn(keys) if materialize else virtual
    rng = np.random.default_rng(probe_seed)
    members = keys[rng.integers(0, num_keys, size=64)]
    with np.errstate(over="ignore"):
        near = np.concatenate([members + np.uint64(1), members - np.uint64(1)])
    last = int(keys[-1])
    extremes = np.asarray(
        [0, MAX_KEY, last + 1, last + stride + 1, 2**63 - 1, 2**63, 2**63 + 1],
        dtype=np.uint64,
    )
    wide = rng.integers(0, MAX_KEY, size=16, dtype=np.uint64, endpoint=True)
    probes = np.concatenate([members, near, extremes, wide])
    for side in ("left", "right"):
        ranks = column.bound_positions(probes, side=side)
        assert ranks.dtype == np.int64
        np.testing.assert_array_equal(
            ranks, oracles.bound_positions(column, probes, side=side)
        )
        np.testing.assert_array_equal(
            ranks, np.searchsorted(keys, probes, side=side)
        )
