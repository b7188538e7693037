"""Range sharding: routing, probe correctness, boundary behavior."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.column import MaterializedColumn
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.indexes import ALL_INDEX_TYPES, BinarySearchIndex, BPlusTreeIndex
from repro.serve.shard import range_shard


def relation_of(keys):
    return Relation(
        name="R", column=MaterializedColumn(np.asarray(keys, dtype=np.uint64))
    )


def oracle(keys, probes):
    keys = np.asarray(keys, dtype=np.uint64)
    probes = np.asarray(probes, dtype=np.uint64)
    positions = np.searchsorted(keys, probes)
    hit = (positions < len(keys)) & (keys[np.minimum(positions, len(keys) - 1)] == probes)
    return np.where(hit, positions, -1).astype(np.int64)


class TestRangeShard:
    def test_shards_cover_relation_without_overlap(self):
        relation = relation_of(np.arange(0, 400, 4))
        plan = range_shard(relation, 4, BinarySearchIndex)
        assert plan.num_shards == 4
        assert sum(s.num_tuples for s in plan.shards) == 100
        bases = [s.base_position for s in plan.shards]
        assert bases == [0, 25, 50, 75]
        for left, right in zip(plan.shards, plan.shards[1:]):
            assert left.upper_key == right.lower_key

    def test_routing_sends_members_to_owning_shard(self):
        keys = np.arange(0, 1000, 3, dtype=np.uint64)
        plan = range_shard(relation_of(keys), 3, BinarySearchIndex)
        ids = plan.route(keys)
        for shard in plan.shards:
            routed = keys[ids == shard.shard_id]
            assert routed.min() >= shard.lower_key
            assert routed.max() < shard.upper_key

    def test_out_of_domain_keys_route_to_edge_shards(self):
        keys = np.arange(100, 200, 2, dtype=np.uint64)
        plan = range_shard(relation_of(keys), 2, BinarySearchIndex)
        ids = plan.route(np.asarray([0, 99, 999], dtype=np.uint64))
        assert ids[0] == 0 and ids[1] == 0
        assert ids[2] == plan.num_shards - 1

    @pytest.mark.parametrize("index_cls", ALL_INDEX_TYPES)
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_sharded_probe_matches_oracle(self, index_cls, num_shards):
        rng = np.random.default_rng(7)
        keys = np.unique(rng.integers(0, 2**40, 3000).astype(np.uint64))
        relation = relation_of(keys)
        plan = range_shard(relation, num_shards, index_cls)
        probes = np.concatenate(
            [
                rng.choice(keys, 500),
                rng.choice(keys, 200) + np.uint64(1),
                np.asarray([keys[0], keys[-1]], dtype=np.uint64),
            ]
        )
        expected = oracle(keys, probes)
        got = np.full(len(probes), -1, dtype=np.int64)
        for shard_id, part_keys, part_indices in plan.split(
            probes, np.arange(len(probes), dtype=np.int64)
        ):
            got[part_indices] = plan.shards[shard_id].probe(part_keys)
        np.testing.assert_array_equal(got, expected)

    def test_duplicate_probe_keys_at_shard_boundary(self):
        """Named regression guard: boundary keys, duplicated, still hit.

        A key equal to a shard's lower bound is the easiest routing
        off-by-one: ``side='left'`` routing, or an exclusive lower
        bound, sends it to the previous shard where it misses.  Probe
        every boundary key many times over (duplicates within one
        window) and demand the exact global positions.
        """
        keys = np.arange(0, 10_000, 5, dtype=np.uint64)
        plan = range_shard(relation_of(keys), 4, BinarySearchIndex)
        boundaries = np.asarray(
            [shard.lower_key for shard in plan.shards], dtype=np.uint64
        )
        probes = np.repeat(boundaries, 17)
        expected = oracle(keys, probes)
        assert (expected >= 0).all()  # boundaries are members
        got = np.full(len(probes), -1, dtype=np.int64)
        for shard_id, part_keys, part_indices in plan.split(
            probes, np.arange(len(probes), dtype=np.int64)
        ):
            # Every duplicate of a boundary key lands on its own shard.
            assert (part_keys >= plan.shards[shard_id].lower_key).all()
            got[part_indices] = plan.shards[shard_id].probe(part_keys)
        np.testing.assert_array_equal(got, expected)

    def test_more_shards_than_tuples_clamps(self):
        plan = range_shard(relation_of([10, 20, 30]), 8, BinarySearchIndex)
        assert plan.num_shards == 3
        assert all(s.num_tuples == 1 for s in plan.shards)
        np.testing.assert_array_equal(
            plan.route(np.asarray([10, 20, 30], dtype=np.uint64)), [0, 1, 2]
        )

    def test_refuses_to_materialize_huge_relations(self):
        relation = relation_of(np.arange(100, dtype=np.uint64))
        with pytest.raises(ConfigurationError):
            range_shard(relation, 2, BinarySearchIndex, max_tuples=10)

    def test_split_preserves_intra_shard_order(self):
        keys = np.arange(0, 100, 2, dtype=np.uint64)
        plan = range_shard(relation_of(keys), 2, BinarySearchIndex)
        probes = np.asarray([90, 2, 88, 4, 86, 6], dtype=np.uint64)
        parts = dict(
            (sid, idx)
            for sid, _, idx in plan.split(
                probes, np.arange(6, dtype=np.int64)
            )
        )
        np.testing.assert_array_equal(parts[0], [1, 3, 5])
        np.testing.assert_array_equal(parts[1], [0, 2, 4])

    def test_fallback_spans_whole_relation(self):
        keys = np.arange(0, 1000, 7, dtype=np.uint64)
        plan = range_shard(
            relation_of(keys), 3, [BinarySearchIndex, BPlusTreeIndex]
        )
        shard = plan.fallback
        assert shard.shard_id == -1
        assert shard.relation.name == "R.fallback"
        assert [s.relation.name for s in plan.shards] == [
            "R.shard0", "R.shard1", "R.shard2"
        ]
        # Built with replica 0's index class.
        assert isinstance(shard.index, BinarySearchIndex)
        assert (shard.base_position, shard.num_tuples) == (0, len(keys))
        probes = np.asarray([0, 7, 994, 995], dtype=np.uint64)
        np.testing.assert_array_equal(
            shard.probe(probes), oracle(keys, probes)
        )

    def test_calibration_counters_are_cached_and_positive(self):
        relation = relation_of(np.arange(0, 4096, 2, dtype=np.uint64))
        plan = range_shard(relation, 2, BinarySearchIndex)
        shard = plan.shards[0]
        first = shard.calibrate()
        assert first is shard.calibrate()
        assert first.per_lookup.memory_accesses > 0
        window = shard.window_counters(512)
        assert window.lookups == pytest.approx(512)
        assert window.translation_requests >= 0
