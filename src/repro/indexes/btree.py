"""A textbook B+tree with 4 KiB nodes (paper Section 3.2).

The tree is *implicit*: because R's key column is sorted and static, node
contents are fully determined by the column, so no separator key is copied
into a materialized array -- or even read: a search derives every slot it
visits from the probe's column ranks (see :mod:`repro.indexes.base`).
Addresses, node/level geometry, and therefore the memory access pattern
are identical to a materialized dense-packed B+tree; the footprint is
charged to simulated host memory at placement time, which reproduces the paper's
capacity limits ("size limit of R is reduced for the B+tree and Harmonia
due to memory capacity constraints").

Layout per 4 KiB node:

* internal node: 255 separator keys (8 B each) + 256 child pointers;
  separator ``s`` is the first key of child ``s+1``;
* leaf node: 512 keys of 8 B.  The index is clustered on the sorted
  relation, so a leaf entry's row position is implicit
  (``leaf * entries + slot``) and no payload is stored -- which is what
  lets the paper measure the B+tree at 111 GiB within 256 GiB of CPU
  memory.  ``leaf_payload_bytes=8`` switches to payload-bearing 16-byte
  entries (halving leaf capacity and doubling the footprint); the
  capacity ablation uses it to show where such a tree stops fitting.

For a materialized column the same class also supports appends/inserts at
laptop scale (``insert_keys``), reflecting the paper's Section 6 remark
that tree indexes remain the choice when updates are required.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..config import DEFAULT_BTREE_NODE_BYTES
from ..data.column import KEY_DTYPE, MaterializedColumn
from ..data.relation import Relation
from ..errors import ConfigurationError, SimulationError
from ..hardware.memory import MemorySpace, SystemMemory
from ..perf.analytic import level_sweep_pages
from ..units import KEY_BYTES
from .base import (
    Index,
    TraceRecorder,
    padded_upper,
    replay_bisection,
    slots_below,
)


class BPlusTreeIndex(Index):
    """Implicit dense-packed B+tree over a sorted column."""

    name = "B+tree"
    supports_updates = True
    # Divergent binary search within nodes: same replay behaviour as the
    # plain binary search.
    tlb_replay_factor = 8.0
    reports_node_visits = True

    def __init__(
        self,
        relation: Relation,
        node_bytes: int = DEFAULT_BTREE_NODE_BYTES,
        leaf_payload_bytes: int = 0,
    ):
        super().__init__(relation)
        if node_bytes < 64 or node_bytes % 16 != 0:
            raise ConfigurationError(
                f"node size must be >= 64 and a multiple of 16, got {node_bytes}"
            )
        if leaf_payload_bytes < 0:
            raise ConfigurationError(
                f"leaf payload must be non-negative, got {leaf_payload_bytes}"
            )
        self.node_bytes = node_bytes
        self.leaf_payload_bytes = leaf_payload_bytes
        #: entries per leaf (keys only by default; see module docstring).
        self.leaf_entries = node_bytes // (KEY_BYTES + leaf_payload_bytes)
        if self.leaf_entries < 1:
            raise ConfigurationError(
                f"leaf payload of {leaf_payload_bytes} B leaves no room for "
                f"entries in a {node_bytes} B node"
            )
        #: children per internal node: F pointers + (F-1) keys of 8 B each.
        self.fanout = (node_bytes + KEY_BYTES) // (2 * KEY_BYTES)
        self._build_geometry()
        self._allocation = None
        self._placed = False

    # ------------------------------------------------------------------
    # Geometry.
    # ------------------------------------------------------------------

    def _build_geometry(self) -> None:
        n = len(self.column)
        num_leaves = -(-n // self.leaf_entries)
        sizes: List[int] = [num_leaves]
        while sizes[0] > 1:
            sizes.insert(0, -(-sizes[0] // self.fanout))
        #: nodes per level, root (index 0) to leaves (index -1).
        self.level_sizes = sizes
        #: leaves covered by one node of each level.
        coverage = [1] * len(sizes)
        for level in range(len(sizes) - 2, -1, -1):  # repro: noqa[PERF001] -- build-time geometry, O(height) iterations
            coverage[level] = coverage[level + 1] * self.fanout
        self.level_coverage = coverage
        #: node-offset of each level in the flat node array.
        offsets = []
        total = 0
        for size in sizes:  # repro: noqa[PERF001] -- build-time geometry, O(height) iterations
            offsets.append(total)
            total += size
        self.level_offsets = offsets
        self.total_nodes = total

    @property
    def footprint_bytes(self) -> int:
        return self.total_nodes * self.node_bytes

    @property
    def height(self) -> int:
        return len(self.level_sizes)

    @property
    def num_leaves(self) -> int:
        return self.level_sizes[-1]

    def place(self, memory: SystemMemory) -> None:
        if self.relation.allocation is None:
            raise SimulationError(
                "place the relation before placing its B+tree"
            )
        self._allocation = memory.allocate(
            self.footprint_bytes, MemorySpace.HOST, label="B+tree"
        )
        self._placed = True

    def _node_address(self, level: int, nodes: np.ndarray) -> np.ndarray:
        return (
            self._allocation.base
            + (self.level_offsets[level] + nodes) * self.node_bytes
        )

    # ------------------------------------------------------------------
    # Traversal.
    # ------------------------------------------------------------------

    def _record_descent(
        self,
        keys: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        recorder: TraceRecorder,
    ) -> None:
        """Record each probe's root-to-leaf path.

        Each internal node's search is an upper bound over its separators:
        separator ``s`` is the first key of child ``s+1``, i.e. the column
        key at ``(node*F + s + 1) * child_coverage * leaf_entries`` (MAX
        when that child starts beyond the data), so it compares ``<=``
        the probe exactly when it sits below the probe's upper rank.  The
        leaf search is a lower bound: entry ``s`` holds the key at ``leaf
        * leaf_entries + s`` (MAX past the data, which no probe exceeds),
        so it compares below the probe exactly when it sits below the
        probe's lower rank.  The path ends with a read of the entry found.
        """
        reach = padded_upper(keys, upper)
        nodes = np.zeros(len(keys), dtype=np.int64)
        separators = self.fanout - 1
        for level in range(len(self.level_sizes) - 1):  # repro: noqa[PERF001] -- O(height) per-level descent over whole key arrays
            child = slots_below(
                reach,
                nodes * self.fanout + 1,
                separators,
                self.level_coverage[level + 1] * self.leaf_entries,
            )
            replay_bisection(
                0, separators, child, recorder,
                self._node_address(level, nodes),
            )
            # Dense packing can address children past the level's end for
            # the right-most path; clamp to the last node of the next level.
            nodes = np.minimum(
                nodes * self.fanout + child, self.level_sizes[level + 1] - 1
            )
        slot = slots_below(lower, nodes * self.leaf_entries, self.leaf_entries)
        in_leaf = slot < self.leaf_entries
        base = self._node_address(len(self.level_sizes) - 1, nodes)
        entry_bytes = KEY_BYTES + self.leaf_payload_bytes
        replay_bisection(0, self.leaf_entries, slot, recorder, base, entry_bytes)
        recorder.record(
            base + np.where(in_leaf, slot, 0) * entry_bytes, active=in_leaf
        )

    def _traverse(
        self, keys: np.ndarray, recorder: Optional[TraceRecorder]
    ) -> np.ndarray:
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        lower, upper = self._ranks(keys)
        if recorder is not None:
            self._record_descent(keys, lower, upper, recorder)
        # The descent ends on the leaf entry at the lower rank, and that
        # entry holds the probe exactly when the probe is a member.
        return np.where(upper > lower, lower, np.int64(-1))

    # ------------------------------------------------------------------
    # Updates (materialized columns only).
    # ------------------------------------------------------------------

    def insert_keys(self, new_keys: np.ndarray) -> "BPlusTreeIndex":
        """Insert keys, returning a new index over the merged column.

        The implicit representation makes inserts a merge-and-rebuild:
        adequate for validating update semantics at laptop scale (the
        shape of bulk-loaded B+trees after batch inserts), not a
        node-splitting engine.  Only materialized columns support it.
        """
        if not isinstance(self.column, MaterializedColumn):
            raise SimulationError(
                "inserts require a materialized column; virtual columns are "
                "immutable by construction"
            )
        new_keys = np.asarray(new_keys, dtype=KEY_DTYPE)
        merged = np.union1d(self.column.keys, new_keys)
        if len(merged) != len(self.column) + len(np.unique(new_keys)):
            raise ConfigurationError(
                "duplicate keys are not allowed: R holds unique keys "
                "(paper Section 3.2)"
            )
        relation = Relation(
            name=self.relation.name, column=MaterializedColumn(merged)
        )
        return BPlusTreeIndex(
            relation,
            node_bytes=self.node_bytes,
            leaf_payload_bytes=self.leaf_payload_bytes,
        )

    # ------------------------------------------------------------------
    # Analytic locality.
    # ------------------------------------------------------------------

    def expected_sweep_pages(
        self,
        window_lookups: float,
        page_bytes: int,
        l2_bytes: int,
        cacheline_bytes: int,
    ) -> float:
        total = 0.0
        cumulative = 0
        for level, size in enumerate(self.level_sizes):  # repro: noqa[PERF001] -- O(height) analytic locality sum, not per-key
            level_bytes = size * self.node_bytes
            if cumulative + level_bytes <= l2_bytes:
                cumulative += level_bytes
                continue  # resident in L2; never reaches the TLB
            cumulative += level_bytes
            total += level_sweep_pages(
                window_lookups=window_lookups,
                span_bytes=level_bytes,
                page_bytes=page_bytes,
            )
        return total
