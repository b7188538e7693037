"""B+tree specifics."""

import numpy as np
import pytest

from repro.config import DEFAULT_BTREE_NODE_BYTES
from repro.data.column import MaterializedColumn, VirtualSortedColumn
from repro.data.relation import Relation
from repro.errors import CapacityError, ConfigurationError, SimulationError
from repro.hardware.memory import MemorySpace, SystemMemory
from repro.hardware.spec import V100_NVLINK2
from repro.indexes.btree import BPlusTreeIndex
from repro.units import GIB


class TestGeometry:
    def test_paper_node_size(self, small_relation):
        index = BPlusTreeIndex(small_relation)
        assert index.node_bytes == DEFAULT_BTREE_NODE_BYTES == 4096

    def test_fanout_256(self, small_relation):
        # 4 KiB node: 255 8-byte separators + 256 8-byte pointers.
        assert BPlusTreeIndex(small_relation).fanout == 256

    def test_leaf_entries_key_only(self, small_relation):
        assert BPlusTreeIndex(small_relation).leaf_entries == 512

    def test_leaf_entries_with_payload(self, small_relation):
        index = BPlusTreeIndex(small_relation, leaf_payload_bytes=8)
        assert index.leaf_entries == 256

    def test_levels_cover_all_keys(self):
        relation = Relation("R", VirtualSortedColumn(2**22))
        index = BPlusTreeIndex(relation)
        leaves = index.level_sizes[-1]
        assert leaves * index.leaf_entries >= 2**22
        assert index.level_sizes[0] == 1  # single root

    def test_height_grows_with_size(self):
        small = BPlusTreeIndex(Relation("R", VirtualSortedColumn(2**10)))
        large = BPlusTreeIndex(Relation("R", VirtualSortedColumn(2**30)))
        assert large.height > small.height

    def test_smaller_nodes_make_taller_trees(self):
        """Section 3.1: smaller nodes -> fewer keys per node -> taller."""
        relation = Relation("R", VirtualSortedColumn(2**24))
        big_nodes = BPlusTreeIndex(relation, node_bytes=4096)
        small_nodes = BPlusTreeIndex(relation, node_bytes=256)
        assert small_nodes.height > big_nodes.height

    def test_footprint_tracks_relation(self):
        relation = Relation("R", VirtualSortedColumn(2**24))
        index = BPlusTreeIndex(relation)
        # Key-only leaves: footprint slightly above the data size.
        assert index.footprint_bytes >= relation.nbytes
        assert index.footprint_bytes < 1.1 * relation.nbytes

    def test_payload_doubles_footprint(self):
        relation = Relation("R", VirtualSortedColumn(2**24))
        lean = BPlusTreeIndex(relation).footprint_bytes
        fat = BPlusTreeIndex(relation, leaf_payload_bytes=8).footprint_bytes
        assert fat > 1.9 * lean

    def test_rejects_bad_node_size(self, small_relation):
        with pytest.raises(ConfigurationError):
            BPlusTreeIndex(small_relation, node_bytes=100)
        with pytest.raises(ConfigurationError):
            BPlusTreeIndex(small_relation, node_bytes=32)

    def test_rejects_negative_payload(self, small_relation):
        with pytest.raises(ConfigurationError):
            BPlusTreeIndex(small_relation, leaf_payload_bytes=-8)


class TestCapacity:
    def test_payload_tree_exceeds_memory_at_paper_scale(self):
        """A payload-bearing B+tree over ~111 GiB cannot fit in 256 GiB
        together with R -- the capacity wall of Section 3.2."""
        memory = SystemMemory(V100_NVLINK2)
        relation = Relation("R", VirtualSortedColumn(int(111 * GIB // 8)))
        relation.place(memory, MemorySpace.HOST)
        index = BPlusTreeIndex(relation, leaf_payload_bytes=8)
        with pytest.raises(CapacityError):
            index.place(memory)

    def test_key_only_tree_fits_at_paper_scale(self):
        """The paper measures the B+tree at 111 GiB, which requires the
        clustered (key-only) leaf layout."""
        memory = SystemMemory(V100_NVLINK2)
        relation = Relation("R", VirtualSortedColumn(int(111 * GIB // 8)))
        relation.place(memory, MemorySpace.HOST)
        BPlusTreeIndex(relation).place(memory)

    def test_place_requires_relation(self, small_relation):
        with pytest.raises(SimulationError):
            BPlusTreeIndex(small_relation).place(SystemMemory(V100_NVLINK2))


class TestInserts:
    def test_supports_updates_flag(self):
        assert BPlusTreeIndex.supports_updates is True


class TestTraversalEdgeCases:
    def test_exactly_one_full_leaf(self):
        n = 512
        relation = Relation("R", VirtualSortedColumn(n))
        index = BPlusTreeIndex(relation)
        assert index.height == 1
        keys = relation.column.key_at(np.arange(n))
        assert np.array_equal(index.lookup(keys), np.arange(n))

    def test_leaf_boundary_keys(self):
        n = 512 * 3 + 7  # several leaves plus a ragged tail
        relation = Relation("R", VirtualSortedColumn(n))
        index = BPlusTreeIndex(relation)
        boundary_positions = np.array([511, 512, 1023, 1024, n - 1])
        keys = relation.column.key_at(boundary_positions)
        assert np.array_equal(index.lookup(keys), boundary_positions)

    def test_rightmost_path_clamped(self):
        # Keys beyond the last leaf must not index past the level arrays.
        n = 512 * 256 + 3  # forces a second internal level, ragged
        relation = Relation("R", VirtualSortedColumn(n))
        index = BPlusTreeIndex(relation)
        beyond = np.array([relation.column.max_key + 10], dtype=np.uint64)
        assert index.lookup(beyond).tolist() == [-1]


class TestLeafPaddingRegression:
    def test_regression_max_key_probe_does_not_match_leaf_padding(self):
        """Named regression test for the differential-suite finding.

        Leaf slots past the end of the column hold the MAX-key sentinel.
        A probe key of 2^64 - 1 compared equal to that padding and came
        back with an out-of-bounds "position" (e.g. position 1 in a
        1-tuple relation).  A hit now also requires the slot to be a
        real data slot.
        """
        max_key = np.uint64(np.iinfo(np.uint64).max)
        for n in (1, 7, 512, 512 + 13):  # ragged and exact-leaf shapes
            keys = np.arange(3, 3 + 4 * n, 4, dtype=np.uint64)
            relation = Relation("R", MaterializedColumn(keys))
            index = BPlusTreeIndex(relation)
            probes = np.asarray([max_key, keys[-1], keys[-1] + 2], dtype=np.uint64)
            assert index.lookup(probes).tolist() == [-1, n - 1, -1]

    def test_regression_max_key_as_real_data_still_matches(self):
        """The guard must not break a relation that legitimately ends
        at the maximum representable key."""
        max_key = np.uint64(np.iinfo(np.uint64).max)
        keys = np.asarray([5, 100, max_key], dtype=np.uint64)
        relation = Relation("R", MaterializedColumn(keys))
        index = BPlusTreeIndex(relation)
        assert index.lookup(np.asarray([max_key], dtype=np.uint64)).tolist() == [2]
