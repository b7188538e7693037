"""Traced-lookup counters stay per lane when keys repeat.

``Index.trace_lookups`` traverses each run of equal adjacent keys once,
but every counter it feeds describes the lanes: a batch of 4,096 lanes
over 64 distinct keys visits as many nodes, and issues as many accesses,
as 4,096 separate lookups, and so does a batch whose runs have uneven
lengths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.data.column import VirtualSortedColumn
from repro.data.relation import Relation
from repro.hardware.memory import MemorySpace, SystemMemory
from repro.hardware.spec import V100_NVLINK2
from repro.indexes import (
    ALL_INDEX_TYPES,
    BPlusTreeIndex,
    HarmoniaIndex,
)
from repro.indexes.base import TraceRecorder

#: The indexes that report ``index.node_visits``, one node per level.
TREE_TYPES = (BPlusTreeIndex, HarmoniaIndex)

#: Large enough for a three-level B+tree.
COLUMN_KEYS = 2**18


def placed(index_cls):
    relation = Relation("R", VirtualSortedColumn(COLUMN_KEYS, stride=4, seed=3))
    memory = SystemMemory(V100_NVLINK2)
    relation.place(memory, MemorySpace.HOST)
    index = index_cls(relation)
    index.place(memory)
    return index


def repeated_keys(index):
    """4,096 sorted lanes: 64 distinct keys, 64 lanes each."""
    distinct = index.column.key_at(np.arange(64) * 4000)
    return np.repeat(distinct, 64)


def uneven_keys(index):
    """Sorted lanes over 64 distinct keys in runs of 1 to 200 lanes."""
    distinct = index.column.key_at(np.arange(64) * 4000)
    lengths = np.random.default_rng(5).integers(1, 201, size=64)
    return np.repeat(distinct, lengths)


def index_counters(index):
    return {
        name: obs.counter(f"index.{name}", index=index.name)
        for name in ("node_visits", "traced_lookups", "trace_accesses", "trace_steps")
    }


def test_btree_node_visits_count_every_lane(traced):
    index = placed(BPlusTreeIndex)
    assert len(index.level_sizes) == 3
    index.trace_lookups(repeated_keys(index))
    assert obs.counter("index.node_visits", index=index.name) == 12_288


@pytest.mark.parametrize(
    "index_cls", ALL_INDEX_TYPES, ids=[cls.__name__ for cls in ALL_INDEX_TYPES]
)
@pytest.mark.parametrize("make_keys", [repeated_keys, uneven_keys])
def test_counters_equal_a_per_lane_trace(index_cls, make_keys, traced):
    index = placed(index_cls)
    keys = make_keys(index)
    trace = index.trace_lookups(keys).trace
    assert trace.step_addresses.shape[1] == 64
    run_length = index_counters(index)
    assert run_length["traced_lookups"] == len(keys)
    assert run_length["node_visits"] == (
        len(keys) * index.height if index_cls in TREE_TYPES else 0
    )
    obs.reset()
    recorder = TraceRecorder(len(keys))
    index._traverse(keys, recorder=recorder)
    lane_trace = recorder.build()
    assert run_length["trace_accesses"] == lane_trace.total_accesses
    assert run_length["trace_steps"] == lane_trace.num_steps


@pytest.mark.parametrize(
    "index_cls", ALL_INDEX_TYPES, ids=[cls.__name__ for cls in ALL_INDEX_TYPES]
)
def test_node_visits_agree_across_entry_points(index_cls, traced):
    index = placed(index_cls)
    keys = uneven_keys(index)
    index.trace_lookups(keys)
    traced_visits = obs.counter("index.node_visits", index=index.name)
    obs.reset()
    index.lookup(keys)
    assert obs.counter("index.node_visits", index=index.name) == traced_visits
    obs.reset()
    index.probe_batch(keys, np.empty(len(keys), dtype=np.int64))
    assert obs.counter("index.node_visits", index=index.name) == traced_visits
