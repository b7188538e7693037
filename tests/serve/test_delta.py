"""Delta tier primitives: buffer, merge, read pricing, compaction policy."""

import numpy as np
import pytest

from repro.data.column import VirtualSortedColumn
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.indexes import (
    BinarySearchIndex,
    BPlusTreeIndex,
    HarmoniaIndex,
    RadixSplineIndex,
)
import repro.serve.delta as delta_module
from repro.serve.delta import (
    DEFAULT_COMPACTION_POLICY,
    CompactionPolicy,
    DeltaBuffer,
    delta_search_steps,
    merge_newest_wins,
    read_amplification,
)
from repro.serve.recovery import (
    COMPACTION_STRATEGY_BY_INDEX,
    price_compaction,
)
from repro.serve.shard import range_shard


def whole_shard(relation, index_cls):
    """One shard over the whole relation."""
    return range_shard(relation, 1, index_cls).shards[0]


def keys_of(*values):
    return np.asarray(values, dtype=np.uint64)


def vals_of(*values):
    return np.asarray(values, dtype=np.int64)


class TestDeltaBuffer:
    def test_apply_keeps_sorted_newest_wins(self):
        delta = DeltaBuffer()
        delta.apply(keys_of(7, 3), vals_of(10, 11))
        delta.apply(keys_of(3, 9), vals_of(12, 13))
        keys, values = delta.snapshot()
        np.testing.assert_array_equal(keys, keys_of(3, 7, 9))
        np.testing.assert_array_equal(values, vals_of(12, 10, 13))

    def test_lookup_into_overrides_only_buffered_keys(self):
        delta = DeltaBuffer()
        delta.apply(keys_of(5), vals_of(99))
        positions = vals_of(0, 1, -1)
        hits = delta.lookup_into(keys_of(2, 5, 8), positions)
        assert hits == 1
        np.testing.assert_array_equal(positions, vals_of(0, 99, -1))

    def test_duplicate_keys_in_one_batch_take_the_last(self):
        delta = DeltaBuffer()
        delta.apply(keys_of(4, 4, 4), vals_of(1, 2, 3))
        positions = vals_of(-1)
        delta.lookup_into(keys_of(4), positions)
        assert positions[0] == 3

    def test_drain_resets_the_buffer(self):
        delta = DeltaBuffer()
        delta.apply(keys_of(1, 2), vals_of(8, 9))
        keys, values = delta.drain()
        assert len(keys) == 2 and len(values) == 2
        assert delta.num_tuples == 0
        assert delta.read_counters(128) is None

    def test_read_counters_scale_with_depth_and_window(self):
        delta = DeltaBuffer()
        delta.apply(keys_of(1, 2, 3, 4), vals_of(0, 1, 2, 3))
        counters = delta.read_counters(64)
        assert counters is not None
        steps = delta_search_steps(4)
        assert counters.memory_accesses == 64 * steps
        assert counters.simt_instructions == 64 * steps

    def test_rejects_mismatched_batch(self):
        with pytest.raises(ConfigurationError):
            DeltaBuffer().apply(keys_of(1, 2), vals_of(1))

    def test_applies_queue_until_one_read_folds_them(self, monkeypatch):
        """A buffer nobody reads never merges; the first read folds every
        queued batch with one merge, and later reads merge nothing."""
        merged_batches = []

        def counting_merge(base_keys, base_values, keys, values):
            merged_batches.append(len(keys))
            return merge_newest_wins(base_keys, base_values, keys, values)

        monkeypatch.setattr(delta_module, "merge_newest_wins", counting_merge)
        delta = DeltaBuffer()
        for step in range(4):
            delta.apply(keys_of(step, 9), vals_of(step, 10 + step))
        assert merged_batches == []
        assert delta.num_tuples == 5
        assert merged_batches == [8]
        positions = vals_of(-1)
        delta.lookup_into(keys_of(9), positions)
        assert positions[0] == 13
        assert delta.read_counters(16) is not None
        assert merged_batches == [8]


class TestMergeNewestWins:
    def test_delta_overrides_base(self):
        merged_keys, merged_values = merge_newest_wins(
            keys_of(1, 3, 5), vals_of(0, 1, 2), keys_of(3, 4), vals_of(9, 8)
        )
        np.testing.assert_array_equal(merged_keys, keys_of(1, 3, 4, 5))
        np.testing.assert_array_equal(merged_values, vals_of(0, 9, 8, 2))

    def test_empty_delta_is_identity(self):
        merged_keys, merged_values = merge_newest_wins(
            keys_of(1, 2), vals_of(0, 1), keys_of(), vals_of()
        )
        np.testing.assert_array_equal(merged_keys, keys_of(1, 2))
        np.testing.assert_array_equal(merged_values, vals_of(0, 1))


class TestSearchStepsAndAmplification:
    def test_steps_are_ceil_log2_plus_one(self):
        assert delta_search_steps(0) == 0
        assert delta_search_steps(1) == 1
        assert delta_search_steps(2) == 2
        assert delta_search_steps(1024) == 11

    def test_read_amplification_relative_to_index_height(self):
        assert read_amplification(0, 4) == 0.0
        assert read_amplification(1024, 4) == pytest.approx(11 / 4)
        # A height-0 structure still yields a finite ratio.
        assert read_amplification(8, 0) == pytest.approx(4.0)


class TestCompactionPolicy:
    def test_size_cap_triggers(self):
        policy = CompactionPolicy(max_delta_tuples=8)
        assert policy.should_compact(8, 0.0, 0.0, 1.0)
        assert not policy.should_compact(7, 0.0, 0.0, 1.0)

    def test_read_amplification_cap_triggers(self):
        policy = CompactionPolicy(max_read_amplification=2.0)
        assert policy.should_compact(1, 2.5, 0.0, 1.0)
        assert not policy.should_compact(1, 1.5, 0.0, 1.0)

    def test_rent_to_own_triggers_on_accrued_read_seconds(self):
        policy = CompactionPolicy(cost_ratio=1.0)
        assert policy.should_compact(1, 0.0, 2.0, 1.5)
        assert not policy.should_compact(1, 0.0, 1.0, 1.5)

    def test_rejects_degenerate_thresholds(self):
        with pytest.raises(ConfigurationError):
            CompactionPolicy(max_delta_tuples=0)
        with pytest.raises(ConfigurationError):
            CompactionPolicy(max_read_amplification=0.0)
        with pytest.raises(ConfigurationError):
            CompactionPolicy(cost_ratio=-1.0)

    def test_default_policy_is_usable(self):
        assert DEFAULT_COMPACTION_POLICY.max_delta_tuples > 0


class TestPriceCompaction:
    @pytest.mark.parametrize(
        "index_cls,strategy",
        [
            (BPlusTreeIndex, "absorb"),
            (HarmoniaIndex, "absorb"),
            (RadixSplineIndex, "retrain"),
            (BinarySearchIndex, "rebuild"),
        ],
    )
    def test_strategy_follows_index_type(self, index_cls, strategy):
        assert COMPACTION_STRATEGY_BY_INDEX[index_cls.name] == strategy
        shard = whole_shard(
            Relation("R", VirtualSortedColumn(2**12)), index_cls
        )
        cost = price_compaction(shard, delta_tuples=256)
        assert cost.strategy == strategy
        assert cost.seconds > 0
        assert cost.describe().startswith(strategy)

    def test_absorb_is_cheaper_than_retrain_at_small_delta(self):
        """The delta-proportional strategies must beat the full-scan
        ones for small deltas over a large base -- the asymmetry the
        paper's Section 6 update guidance rests on."""
        relation = Relation("R", VirtualSortedColumn(2**12))
        absorb = price_compaction(
            whole_shard(relation, BPlusTreeIndex), delta_tuples=16
        )
        retrain = price_compaction(
            whole_shard(relation, RadixSplineIndex), delta_tuples=16
        )
        assert absorb.seconds < retrain.seconds

    def test_price_scales_with_delta(self):
        shard = whole_shard(
            Relation("R", VirtualSortedColumn(2**12)), BPlusTreeIndex
        )
        small = price_compaction(shard, delta_tuples=16)
        large = price_compaction(shard, delta_tuples=4096)
        assert large.seconds > small.seconds

    def test_rejects_empty_delta(self):
        shard = whole_shard(
            Relation("R", VirtualSortedColumn(2**10)), BPlusTreeIndex
        )
        with pytest.raises(ConfigurationError):
            price_compaction(shard, delta_tuples=0)
