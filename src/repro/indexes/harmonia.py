"""Harmonia: a GPU-optimized B+tree (Yan et al., PPoPP 2019).

Harmonia's three structural ideas, all modelled here:

* the tree's keys live in one breadth-first *key region* array -- no
  intra-node pointers, so a node is a dense run of ``node_keys`` keys
  (32 in the paper's configuration, i.e. 256 B = two cachelines);
* children are located through a *prefix-sum child array* instead of
  pointers (one 4-byte entry per node);
* traversal is *cooperative*: a warp is partitioned into sub-warps, and a
  sub-warp searches one node for one lookup by comparing all node keys in
  parallel, then moves on to the next lookup of its lane group
  (Section 3.3.1 of the reproduced paper).

The key region is implicit over the sorted column (same reasoning as
:mod:`repro.indexes.btree`): node ``j`` at a level covering ``c`` column
positions per child stores key ``s`` = first key of child ``s``.  The
access pattern per node visit is two cacheline reads (the node) plus one
child-array read, matching the cooperative search.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..config import DEFAULT_HARMONIA_NODE_KEYS
from ..data.column import KEY_DTYPE
from ..data.relation import Relation
from ..errors import ConfigurationError, SimulationError
from ..gpu.simt import SimtCost, subwarp_lookup_cost
from ..hardware.memory import MemorySpace, SystemMemory
from ..perf.analytic import level_sweep_pages
from ..units import KEY_BYTES
from .base import Index, TraceRecorder, padded_upper, slots_below

#: Bytes per prefix-sum child-array entry.
_CHILD_ENTRY_BYTES = 4


class HarmoniaIndex(Index):
    """Harmonia B+tree with key region + prefix-sum child array."""

    name = "Harmonia"
    supports_updates = True
    # Calibrated to the paper's Fig. 4: ~11.3 translation requests per key
    # at 111 GiB over ~0.8 last-level misses per lookup (the cooperative
    # traversal touches one new huge page per lookup -- the leaf).
    tlb_replay_factor = 14.0
    reports_node_visits = True

    def __init__(
        self,
        relation: Relation,
        node_keys: int = DEFAULT_HARMONIA_NODE_KEYS,
        subwarp_size: int = 8,
        warp_size: int = 32,
    ):
        super().__init__(relation)
        if node_keys < 2:
            raise ConfigurationError(f"node_keys must be >= 2, got {node_keys}")
        if warp_size % subwarp_size != 0:
            raise ConfigurationError(
                f"sub-warp size {subwarp_size} must divide warp size {warp_size}"
            )
        self.node_keys = node_keys
        self.subwarp_size = subwarp_size
        self.warp_size = warp_size
        self._build_geometry()
        self._key_region = None
        self._child_array = None
        self._placed = False

    # ------------------------------------------------------------------
    # Geometry.
    # ------------------------------------------------------------------

    def _build_geometry(self) -> None:
        n = len(self.column)
        fanout = self.node_keys  # one key per child: key s = min of child s
        num_leaves = -(-n // self.node_keys)
        sizes: List[int] = [num_leaves]
        while sizes[0] > 1:
            sizes.insert(0, -(-sizes[0] // fanout))
        self.level_sizes = sizes
        #: column positions covered by one node of each level.
        coverage = [self.node_keys] * len(sizes)
        for level in range(len(sizes) - 2, -1, -1):  # repro: noqa[PERF001] -- build-time geometry, O(height) iterations
            coverage[level] = coverage[level + 1] * fanout
        self.level_coverage = coverage
        offsets = []
        total = 0
        for size in sizes:  # repro: noqa[PERF001] -- build-time geometry, O(height) iterations
            offsets.append(total)
            total += size
        #: node-offset of each level in the breadth-first key region.
        self.level_offsets = offsets
        self.total_nodes = total

    @property
    def fanout(self) -> int:
        return self.node_keys

    @property
    def footprint_bytes(self) -> int:
        key_region = self.total_nodes * self.node_keys * KEY_BYTES
        child_array = self.total_nodes * _CHILD_ENTRY_BYTES
        return key_region + child_array

    @property
    def height(self) -> int:
        return len(self.level_sizes)

    def place(self, memory: SystemMemory) -> None:
        if self.relation.allocation is None:
            raise SimulationError(
                "place the relation before placing its Harmonia index"
            )
        self._key_region = memory.allocate(
            self.total_nodes * self.node_keys * KEY_BYTES,
            MemorySpace.HOST,
            label="Harmonia key region",
        )
        self._child_array = memory.allocate(
            self.total_nodes * _CHILD_ENTRY_BYTES,
            MemorySpace.HOST,
            label="Harmonia child array",
        )
        self._placed = True

    # ------------------------------------------------------------------
    # Traversal.
    # ------------------------------------------------------------------

    def _record_descent(
        self, reach: np.ndarray, recorder: TraceRecorder
    ) -> None:
        """Record every level's node visit on each probe's path.

        Key ``s`` of an internal node is the first column key covered by
        its child ``s``; MAX past the data.  Against the upper rank of
        :func:`padded_upper`, :func:`slots_below` counts the node keys
        ``<=`` the probe, and the path takes the child one below that
        count.
        """
        nodes = np.zeros(len(reach), dtype=np.int64)
        lines_per_node = max(
            1, (self.node_keys * KEY_BYTES + 127) // 128
        )
        leaf_level = len(self.level_sizes) - 1
        for level in range(leaf_level + 1):  # repro: noqa[PERF001] -- O(height) per-level descent over whole key arrays
            node_base = (
                self._key_region.base
                + (self.level_offsets[level] + nodes)
                * self.node_keys
                * KEY_BYTES
            )
            # Cooperative search reads the whole node: one access per
            # cacheline it spans.
            for line in range(lines_per_node):  # repro: noqa[PERF001] -- O(node cachelines) trace recording, traced path only
                recorder.record(node_base + line * 128)
            # Child location via the prefix-sum array (tiny, hot).
            child_base = self._child_array.base + (
                (self.level_offsets[level] + nodes) * _CHILD_ENTRY_BYTES
            )
            recorder.record(child_base)
            if level < leaf_level:
                # child = (number of node keys <= probe) - 1; key 0 is the
                # subtree minimum, so the count is >= 1 for in-range probes.
                counts = slots_below(
                    reach,
                    nodes * self.node_keys,
                    self.node_keys,
                    self.level_coverage[level + 1],
                )
                nodes = np.minimum(
                    nodes * self.fanout + np.maximum(counts - 1, 0),
                    self.level_sizes[level + 1] - 1,
                )

    def _traverse(
        self, keys: np.ndarray, recorder: Optional[TraceRecorder]
    ) -> np.ndarray:
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        lower, upper = self._ranks(keys)
        if recorder is not None:
            self._record_descent(padded_upper(keys, upper), recorder)
        # The descent ends on the leaf holding the lower rank, and its
        # key there is the probe exactly when the probe is a member.
        return np.where(upper > lower, lower, np.int64(-1))

    # ------------------------------------------------------------------
    # SIMT: cooperative sub-warp execution.
    # ------------------------------------------------------------------

    def _simt_cost(self, steps_per_lookup: np.ndarray) -> SimtCost:
        # Each node visit costs node_keys / subwarp_size cooperative
        # comparison rounds for the owning sub-warp.
        rounds_per_visit = max(1, self.node_keys // self.subwarp_size)
        visits = np.asarray(steps_per_lookup, dtype=np.float64) / (
            max(1, (self.node_keys * KEY_BYTES + 127) // 128) + 1
        )
        return subwarp_lookup_cost(
            visits * rounds_per_visit,
            warp_size=self.warp_size,
            subwarp_size=self.subwarp_size,
        )

    # ------------------------------------------------------------------
    # Updates.
    # ------------------------------------------------------------------

    def insert_keys(self, new_keys: np.ndarray) -> "HarmoniaIndex":
        """Merge-and-rebuild insert, as for the B+tree (laptop scale)."""
        from ..data.column import MaterializedColumn

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
        return HarmoniaIndex(
            relation,
            node_keys=self.node_keys,
            subwarp_size=self.subwarp_size,
            warp_size=self.warp_size,
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
        for size in self.level_sizes:  # repro: noqa[PERF001] -- O(height) analytic locality sum, not per-key
            level_bytes = size * self.node_keys * KEY_BYTES
            if cumulative + level_bytes <= l2_bytes:
                cumulative += level_bytes
                continue
            cumulative += level_bytes
            total += level_sweep_pages(
                window_lookups=window_lookups,
                span_bytes=level_bytes,
                page_bytes=page_bytes,
            )
        return total
