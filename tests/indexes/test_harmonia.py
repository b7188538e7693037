"""Harmonia specifics."""

import numpy as np
import pytest

from repro.config import DEFAULT_HARMONIA_NODE_KEYS
from repro.data.column import VirtualSortedColumn
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.hardware.memory import MemorySpace, SystemMemory
from repro.hardware.spec import V100_NVLINK2
from repro.indexes.harmonia import HarmoniaIndex


class TestGeometry:
    def test_paper_node_width(self, small_relation):
        index = HarmoniaIndex(small_relation)
        assert index.node_keys == DEFAULT_HARMONIA_NODE_KEYS == 32

    def test_fanout_equals_node_keys(self, small_relation):
        index = HarmoniaIndex(small_relation)
        assert index.fanout == index.node_keys

    def test_levels_cover_all_keys(self):
        relation = Relation("R", VirtualSortedColumn(2**20))
        index = HarmoniaIndex(relation)
        leaves = index.level_sizes[-1]
        assert leaves * index.node_keys >= 2**20
        assert index.level_sizes[0] == 1

    def test_taller_than_btree(self):
        """32-way fanout vs 256-way: Harmonia is taller at equal size."""
        from repro.indexes.btree import BPlusTreeIndex

        relation = Relation("R", VirtualSortedColumn(2**26))
        assert (
            HarmoniaIndex(relation).height
            > BPlusTreeIndex(relation).height
        )

    def test_footprint_close_to_data(self):
        # Key region ~ |R| * 32/31 plus a 4-byte-per-node child array.
        relation = Relation("R", VirtualSortedColumn(2**24))
        footprint = HarmoniaIndex(relation).footprint_bytes
        assert relation.nbytes < footprint < 1.15 * relation.nbytes

    def test_rejects_bad_node_keys(self, small_relation):
        with pytest.raises(ConfigurationError):
            HarmoniaIndex(small_relation, node_keys=1)

    def test_rejects_bad_subwarp(self, small_relation):
        with pytest.raises(ConfigurationError):
            HarmoniaIndex(small_relation, subwarp_size=7)


class TestTraversal:
    def test_node_accesses_are_two_lines_plus_child(self, small_relation):
        memory = SystemMemory(V100_NVLINK2)
        small_relation.place(memory, MemorySpace.HOST)
        index = HarmoniaIndex(small_relation)
        index.place(memory)
        keys = small_relation.column.key_at(np.arange(64))
        result = index.trace_lookups(keys)
        # 32 keys * 8 B = 2 cachelines per node, + 1 child-array access,
        # per level.
        assert result.trace.num_steps == index.height * 3

    def test_key_region_addresses_in_allocation(self, small_relation):
        memory = SystemMemory(V100_NVLINK2)
        small_relation.place(memory, MemorySpace.HOST)
        index = HarmoniaIndex(small_relation)
        index.place(memory)
        keys = small_relation.column.key_at(np.arange(32))
        result = index.trace_lookups(keys)
        addresses = result.trace.step_addresses
        active = addresses[addresses >= 0]
        key_region = index._key_region
        child_array = index._child_array
        inside = ((active >= key_region.base) & (active < key_region.end)) | (
            (active >= child_array.base) & (active < child_array.end)
        )
        assert inside.all()

    def test_ragged_last_leaf(self):
        n = 32 * 5 + 3
        relation = Relation("R", VirtualSortedColumn(n))
        index = HarmoniaIndex(relation)
        keys = relation.column.key_at(np.arange(n))
        assert np.array_equal(index.lookup(keys), np.arange(n))

    def test_subwarp_size_affects_simt_not_results(self, small_relation):
        keys = small_relation.column.key_at(np.arange(128))
        narrow = HarmoniaIndex(small_relation, subwarp_size=4)
        wide = HarmoniaIndex(small_relation, subwarp_size=16)
        assert np.array_equal(narrow.lookup(keys), wide.lookup(keys))


class TestInserts:
    def test_supports_updates_flag(self):
        # Section 6: "Harmonia is a good alternative if the index must
        # support inserts and updates."
        assert HarmoniaIndex.supports_updates is True
