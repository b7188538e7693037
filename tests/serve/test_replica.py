"""Replicated plans: aligned range cuts, divergent index types, routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.indexes import (
    BinarySearchIndex,
    BPlusTreeIndex,
    RadixSplineIndex,
)
from repro.serve.shard import range_shard


@pytest.fixture
def divergent_plan(small_relation):
    return range_shard(
        small_relation, 2, [BinarySearchIndex, BPlusTreeIndex]
    )


class TestReplicate:
    def test_shape_and_index_types(self, divergent_plan):
        assert divergent_plan.num_shards == 2
        assert divergent_plan.replicas_per_shard == 2
        for shard_id in range(2):
            copies = divergent_plan.replicas[shard_id]
            assert [shard.shard_id for shard in copies] == [shard_id] * 2
            assert copies[0].index.name == "binary search"
            assert copies[1].index.name == "B+tree"

    def test_replicas_cover_identical_key_slices(self, divergent_plan):
        # Range cuts depend only on (tuple count, shard count), so every
        # replica level slices R identically -- the alignment failover
        # relies on.
        for shard_id in range(divergent_plan.num_shards):
            slices = {
                (
                    shard.base_position,
                    shard.lower_key,
                    shard.upper_key,
                    shard.num_tuples,
                )
                for shard in divergent_plan.replicas[shard_id]
            }
            assert len(slices) == 1

    def test_divergent_replicas_answer_identically(
        self, divergent_plan, small_probes
    ):
        keys = small_probes.keys[:512]
        for shard_id, shard_keys, _ in divergent_plan.split(
            keys, np.arange(len(keys))
        ):
            answers = [
                shard.probe(shard_keys)
                for shard in divergent_plan.replicas[shard_id]
            ]
            assert np.array_equal(answers[0], answers[1])

    def test_homogeneous_fleet(self, small_relation):
        plan = range_shard(small_relation, 2, [RadixSplineIndex] * 3)
        assert plan.replicas_per_shard == 3
        names = {shard.index.name for shard in plan.replicas[0]}
        assert names == {"RadixSpline"}

    def test_empty_index_classes_rejected(self, small_relation):
        with pytest.raises(ConfigurationError):
            range_shard(small_relation, 2, [])

    def test_copies_are_independent_in_replica_order(self, small_relation):
        plan = range_shard(small_relation, 1, [BinarySearchIndex] * 3)
        copies = plan.replicas[0]
        assert len(copies) == 3
        assert plan.shards == [copies[0]]
        # Each copy is its own relation and index: placing or compacting
        # one never touches another.
        assert len({id(shard.relation) for shard in copies}) == 3
        assert len({id(shard.index) for shard in copies}) == 3

    def test_routing_matches_the_unreplicated_plan(
        self, divergent_plan, small_relation, small_probes
    ):
        single = range_shard(small_relation, 2, BinarySearchIndex)
        keys = small_probes.keys[:256]
        assert np.array_equal(
            divergent_plan.route(keys), single.route(keys)
        )
        ours = divergent_plan.split(keys, np.arange(len(keys)))
        theirs = single.split(keys, np.arange(len(keys)))
        assert [shard_id for shard_id, _, _ in ours] == [
            shard_id for shard_id, _, _ in theirs
        ]
        assert divergent_plan.num_shards == single.num_shards
        assert single.replicas_per_shard == 1
