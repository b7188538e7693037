"""Tumbling-window batcher: boundaries, partial flush, and the window
operator each shard's stream runs on."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.serve.batcher import ShardBatcher, TupleBatch, WindowOperator
from repro.units import KEY_BYTES

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - property tests skip themselves
    HAVE_HYPOTHESIS = False


def keys_of(count, start=0):
    return np.arange(start, start + count, dtype=np.uint64)


def indices_of(count, start=0):
    return np.arange(start, start + count, dtype=np.int64)


def drain(operator, upstream):
    return list(operator.process(iter(upstream)))


def batch_of(keys, start=0):
    keys = np.asarray(keys, dtype=np.uint64)
    return TupleBatch(
        keys=keys, indices=np.arange(start, start + len(keys), dtype=np.int64)
    )


class TestTupleBatch:
    def test_length_checked(self):
        with pytest.raises(WorkloadError):
            TupleBatch(
                keys=np.zeros(2, dtype=np.uint64),
                indices=np.zeros(3, dtype=np.int64),
            )


class TestShardBatcher:
    def test_window_closes_exactly_at_capacity(self):
        batcher = ShardBatcher(num_shards=1, window_bytes=8 * KEY_BYTES)
        assert batcher.push(0, keys_of(7), indices_of(7)) == []
        windows = batcher.push(0, keys_of(1, 7), indices_of(1, 7))
        assert len(windows) == 1
        assert windows[0].full
        assert len(windows[0]) == 8
        assert batcher.pending_tuples(0) == 0

    def test_oversized_push_emits_multiple_windows(self):
        batcher = ShardBatcher(num_shards=1, window_bytes=4 * KEY_BYTES)
        windows = batcher.push(0, keys_of(11), indices_of(11))
        assert [len(w) for w in windows] == [4, 4]
        assert all(w.full for w in windows)
        # The trailing 3 tuples stay buffered, not emitted.
        assert batcher.pending_tuples(0) == 3

    def test_windows_preserve_arrival_order_and_indices(self):
        batcher = ShardBatcher(num_shards=1, window_bytes=4 * KEY_BYTES)
        batcher.push(0, keys_of(2, 100), indices_of(2, 0))
        windows = batcher.push(0, keys_of(3, 200), indices_of(3, 2))
        assert len(windows) == 1
        np.testing.assert_array_equal(
            windows[0].keys, [100, 101, 200, 201]
        )
        np.testing.assert_array_equal(windows[0].indices, [0, 1, 2, 3])
        assert batcher.pending_tuples(0) == 1

    def test_flush_emits_partial_window(self):
        """Named regression guard: the final partial window must flush.

        Section 5.1 processes a window early "if no more tuples are
        available on the probe side"; a batcher that only emitted full
        windows would silently drop up to window_size - 1 trailing
        probes of every stream.
        """
        batcher = ShardBatcher(num_shards=2, window_bytes=8 * KEY_BYTES)
        batcher.push(1, keys_of(3), indices_of(3))
        windows = batcher.flush_all()
        assert [w.shard_id for w in windows] == [1]
        assert not windows[0].full
        assert len(windows[0]) == 3
        # Flush is terminal for the buffered state: nothing remains.
        assert batcher.pending_tuples(1) == 0
        assert batcher.flush_all() == []

    def test_flush_after_exact_fill_emits_nothing(self):
        batcher = ShardBatcher(num_shards=1, window_bytes=4 * KEY_BYTES)
        batcher.push(0, keys_of(4), indices_of(4))
        assert batcher.flush_all() == []

    def test_per_shard_streams_are_independent(self):
        batcher = ShardBatcher(num_shards=3, window_bytes=4 * KEY_BYTES)
        batcher.push(0, keys_of(3), indices_of(3))
        windows = batcher.push(2, keys_of(4), indices_of(4))
        assert [w.shard_id for w in windows] == [2]
        assert batcher.pending_tuples(0) == 3
        assert batcher.pending_tuples(1) == 0

    def test_rejects_unknown_shard_and_degenerate_window(self):
        batcher = ShardBatcher(num_shards=1, window_bytes=8 * KEY_BYTES)
        with pytest.raises(ConfigurationError):
            batcher.push(1, keys_of(1), indices_of(1))
        with pytest.raises(ConfigurationError):
            ShardBatcher(num_shards=1, window_bytes=KEY_BYTES - 1)
        with pytest.raises(ConfigurationError):
            ShardBatcher(num_shards=0, window_bytes=8 * KEY_BYTES)

    def test_empty_push_is_a_no_op(self):
        batcher = ShardBatcher(num_shards=1, window_bytes=4 * KEY_BYTES)
        assert batcher.push(0, keys_of(0), indices_of(0)) == []
        assert batcher.pending_tuples(0) == 0


class TestWindowOperator:
    def test_regroups_to_window_size(self):
        operator = WindowOperator(window_bytes=4 * 8)
        batches = drain(
            operator, [batch_of([1, 2, 3]), batch_of([4, 5, 6, 7], start=3)]
        )
        assert [len(b) for b in batches] == [4, 3]
        assert batches[0].keys.tolist() == [1, 2, 3, 4]

    def test_exact_fit_no_empty_tail(self):
        operator = WindowOperator(window_bytes=2 * 8)
        batches = drain(operator, [batch_of([1, 2, 3, 4])])
        assert [len(b) for b in batches] == [2, 2]

    def test_large_input_batch_split(self):
        operator = WindowOperator(window_bytes=3 * 8)
        batches = drain(operator, [batch_of(list(range(10)))])
        assert [len(b) for b in batches] == [3, 3, 3, 1]

    def test_indices_preserved(self):
        operator = WindowOperator(window_bytes=2 * 8)
        batches = drain(operator, [batch_of([9, 8, 7], start=5)])
        assert batches[0].indices.tolist() == [5, 6]
        assert batches[1].indices.tolist() == [7]

    def test_window_equal_to_batch_size_passes_through(self):
        # Upstream batches already have exactly the window size: each
        # must come out unchanged (and uncopied), with no empty tail.
        operator = WindowOperator(window_bytes=4 * 8)
        upstream = [batch_of([1, 2, 3, 4]), batch_of([5, 6, 7, 8], start=4)]
        batches = drain(operator, upstream)
        assert [len(b) for b in batches] == [4, 4]
        assert batches[0].keys.tolist() == [1, 2, 3, 4]
        assert batches[1].keys.tolist() == [5, 6, 7, 8]
        assert batches[1].indices.tolist() == [4, 5, 6, 7]
        # The contiguous fast path slices, never concatenates.
        assert batches[0].keys.base is upstream[0].keys

    def test_final_partial_window_of_one_tuple(self):
        operator = WindowOperator(window_bytes=4 * 8)
        batches = drain(operator, [batch_of(list(range(9)))])
        assert [len(b) for b in batches] == [4, 4, 1]
        assert batches[-1].keys.tolist() == [8]
        assert batches[-1].indices.tolist() == [8]

    def test_partial_tail_spanning_input_batches(self):
        # The 1-tuple tail accumulates across two upstream batches.
        operator = WindowOperator(window_bytes=4 * 8)
        batches = drain(operator, [batch_of([1, 2, 3]), batch_of([4, 5], start=3)])
        assert [len(b) for b in batches] == [4, 1]
        assert batches[-1].keys.tolist() == [5]

    def test_zero_batch_upstream_yields_nothing(self):
        operator = WindowOperator(window_bytes=4 * 8)
        assert drain(operator, []) == []

    def test_open_window_persists_between_pushes(self):
        operator = WindowOperator(window_bytes=4 * 8)
        assert operator.push(batch_of([1, 2, 3])) == []
        assert len(operator) == 3
        closed = operator.push(batch_of([4, 5], start=3))
        assert [b.keys.tolist() for b in closed] == [[1, 2, 3, 4]]
        assert len(operator) == 1
        tail = operator.flush()
        assert [b.indices.tolist() for b in tail] == [[4]]
        assert len(operator) == 0
        assert operator.flush() == []


if HAVE_HYPOTHESIS:

    @given(
        size=st.integers(min_value=0, max_value=40),
        window_tuples=st.integers(min_value=1, max_value=10),
        cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=8),
    )
    def test_push_and_flush_over_any_split_equal_process(
        size, window_tuples, cuts
    ):
        """Pushing any split of a stream (empty batches included), then
        flushing, yields exactly the windows ``process()`` yields over
        the whole stream or over the same split."""
        keys = np.arange(size, dtype=np.uint64) * 5
        bounds = [0] + sorted(min(cut, size) for cut in cuts) + [size]
        split = [
            batch_of(keys[lo:hi], start=lo)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        window_bytes = window_tuples * 8
        operator = WindowOperator(window_bytes)
        pushed = [w for batch in split for w in operator.push(batch)]
        pushed += operator.flush()
        assert len(operator) == 0
        for upstream in ([batch_of(keys)], split):
            processed = drain(WindowOperator(window_bytes), upstream)
            assert [w.keys.tolist() for w in pushed] == [
                w.keys.tolist() for w in processed
            ]
            assert [w.indices.tolist() for w in pushed] == [
                w.indices.tolist() for w in processed
            ]
