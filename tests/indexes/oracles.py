"""Key-reading bisection traversals: the oracle for rank-first descent.

Each paper index used to find its slots by bisecting: one column key read
per search step, in one numpy round per step.  The library now derives
every slot from the probe's column ranks by integer arithmetic and replays
the bisection mids only when a recorder is attached.  These functions are
the bisecting ``_traverse`` and ``_lower_bound`` of the four indexes, kept
verbatim over the same index geometry, so
``test_traverse_differential.py`` can require identical positions, lower
bounds, recorded step matrices and ``index.*`` round counters.
RadixSpline's radix table and spline-point search bisected spline keys;
their bisecting versions (:func:`radix_spline_radix_table`,
:func:`radix_spline_predict`) are held to the rank-derived ones by
``test_radix_spline.py``.

:data:`TRAVERSE` and :data:`LOWER_BOUND` map each index class to its
oracle.  ``traverse(index, keys, recorder)`` returns positions and records
into ``recorder`` when it is not None, exactly as ``index._traverse`` does.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import obs
from repro.data.column import KEY_DTYPE
from repro.indexes import (
    BinarySearchIndex,
    BPlusTreeIndex,
    HarmoniaIndex,
    RadixSplineIndex,
    TraceRecorder,
)
from repro.indexes.domain import clamped_int64
from repro.indexes.radix_spline import _SPLINE_POINT_BYTES
from repro.units import KEY_BYTES

_MAX_KEY = np.uint64(np.iinfo(np.uint64).max)

#: Bytes per Harmonia prefix-sum child-array entry.
_CHILD_ENTRY_BYTES = 4


# ----------------------------------------------------------------------
# Binary search.
# ----------------------------------------------------------------------


def binary_search_traverse(
    index: BinarySearchIndex,
    keys: np.ndarray,
    recorder: Optional[TraceRecorder],
) -> np.ndarray:
    keys = np.asarray(keys, dtype=KEY_DTYPE)
    n = len(index.column)
    count = len(keys)
    lo = np.zeros(count, dtype=np.int64)
    hi = np.full(count, n, dtype=np.int64)
    base = (
        index.relation.allocation.base
        if recorder is not None and index.relation.allocation is not None
        else 0
    )
    active = lo < hi
    rounds = 0
    while active.any():
        rounds += 1
        mid = (lo + hi) >> 1
        if recorder is not None:
            recorder.record(base + mid * KEY_BYTES, active=active)
        safe_mid = np.where(active, mid, 0)
        mid_keys = index.column.key_at(safe_mid)
        go_right = active & (mid_keys < keys)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
        active = lo < hi
    if obs.enabled():
        obs.add("index.search_rounds", float(rounds), index=index.name)
    in_range = lo < n
    if recorder is not None:
        recorder.record(base + np.where(in_range, lo, 0) * KEY_BYTES,
                        active=in_range)
    found = np.zeros(count, dtype=bool)
    if in_range.any():
        candidate = np.where(in_range, lo, 0)
        found_keys = index.column.key_at(candidate)
        found = in_range & (found_keys == keys)
    return np.where(found, lo, np.int64(-1))


def binary_search_lower_bound(
    index: BinarySearchIndex, keys: np.ndarray
) -> np.ndarray:
    keys = np.asarray(keys, dtype=KEY_DTYPE)
    n = len(index.column)
    count = len(keys)
    lo = np.zeros(count, dtype=np.int64)
    hi = np.full(count, n, dtype=np.int64)
    active = lo < hi
    while active.any():
        mid = (lo + hi) >> 1
        mid_keys = index.column.key_at(np.where(active, mid, 0))
        go_right = active & (mid_keys < keys)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
        active = lo < hi
    return lo


# ----------------------------------------------------------------------
# B+tree.
# ----------------------------------------------------------------------


def _btree_separator_keys(
    index: BPlusTreeIndex, level: int, nodes: np.ndarray, slots: np.ndarray
) -> np.ndarray:
    """Separator s = first key of child s+1; MAX past the data."""
    child_coverage = index.level_coverage[level + 1]
    first_position = (
        (nodes * index.fanout + slots + 1) * child_coverage * index.leaf_entries
    )
    n = len(index.column)
    exists = first_position < n
    safe = np.where(exists, first_position, 0)
    keys = index.column.key_at(safe)
    return np.where(exists, keys, _MAX_KEY)


def _btree_leaf_keys(
    index: BPlusTreeIndex, leaves: np.ndarray, slots: np.ndarray
) -> np.ndarray:
    """Entry keys inside leaves; MAX past the end of the data."""
    positions = leaves * index.leaf_entries + slots
    n = len(index.column)
    exists = positions < n
    safe = np.where(exists, positions, 0)
    keys = index.column.key_at(safe)
    return np.where(exists, keys, _MAX_KEY)


def _btree_search_internal(
    index: BPlusTreeIndex,
    level: int,
    nodes: np.ndarray,
    keys: np.ndarray,
    recorder: Optional[TraceRecorder],
) -> np.ndarray:
    """Child slot chosen in each internal node: upper_bound(separators)."""
    count = len(keys)
    num_separators = index.fanout - 1
    slot_lo = np.zeros(count, dtype=np.int64)
    slot_hi = np.full(count, num_separators, dtype=np.int64)
    base = index._node_address(level, nodes) if recorder is not None else None
    active = slot_lo < slot_hi
    while active.any():
        mid = (slot_lo + slot_hi) >> 1
        if recorder is not None:
            recorder.record(base + mid * KEY_BYTES, active=active)
        separators = _btree_separator_keys(
            index, level, nodes, np.where(active, mid, 0)
        )
        go_right = active & (separators <= keys)
        slot_lo = np.where(go_right, mid + 1, slot_lo)
        slot_hi = np.where(active & ~go_right, mid, slot_hi)
        active = slot_lo < slot_hi
    return slot_lo


def _btree_search_leaf(
    index: BPlusTreeIndex,
    leaves: np.ndarray,
    keys: np.ndarray,
    recorder: Optional[TraceRecorder],
) -> np.ndarray:
    """Lower-bound position of each key inside its leaf; -1 if absent."""
    count = len(keys)
    slot_lo = np.zeros(count, dtype=np.int64)
    slot_hi = np.full(count, index.leaf_entries, dtype=np.int64)
    if recorder is not None:
        base = index._node_address(len(index.level_sizes) - 1, leaves)
    active = slot_lo < slot_hi
    entry_bytes = KEY_BYTES + index.leaf_payload_bytes
    while active.any():
        mid = (slot_lo + slot_hi) >> 1
        if recorder is not None:
            recorder.record(base + mid * entry_bytes, active=active)
        entry_keys = _btree_leaf_keys(index, leaves, np.where(active, mid, 0))
        go_right = active & (entry_keys < keys)
        slot_lo = np.where(go_right, mid + 1, slot_lo)
        slot_hi = np.where(active & ~go_right, mid, slot_hi)
        active = slot_lo < slot_hi
    in_leaf = slot_lo < index.leaf_entries
    if recorder is not None:
        recorder.record(
            base + np.where(in_leaf, slot_lo, 0) * entry_bytes,
            active=in_leaf,
        )
    found_keys = _btree_leaf_keys(index, leaves, np.where(in_leaf, slot_lo, 0))
    positions = leaves * index.leaf_entries + slot_lo
    found = in_leaf & (positions < len(index.column)) & (found_keys == keys)
    return np.where(found, positions, np.int64(-1))


def btree_traverse(
    index: BPlusTreeIndex,
    keys: np.ndarray,
    recorder: Optional[TraceRecorder],
) -> np.ndarray:
    keys = np.asarray(keys, dtype=KEY_DTYPE)
    nodes = np.zeros(len(keys), dtype=np.int64)
    for level in range(len(index.level_sizes) - 1):
        child = _btree_search_internal(index, level, nodes, keys, recorder)
        nodes = nodes * index.fanout + child
        nodes = np.minimum(nodes, index.level_sizes[level + 1] - 1)
    return _btree_search_leaf(index, nodes, keys, recorder)


def btree_lower_bound(index: BPlusTreeIndex, keys: np.ndarray) -> np.ndarray:
    keys = np.asarray(keys, dtype=KEY_DTYPE)
    nodes = np.zeros(len(keys), dtype=np.int64)
    for level in range(len(index.level_sizes) - 1):
        child = _btree_search_internal(index, level, nodes, keys, None)
        nodes = np.minimum(
            nodes * index.fanout + child, index.level_sizes[level + 1] - 1
        )
    count = len(keys)
    slot_lo = np.zeros(count, dtype=np.int64)
    slot_hi = np.full(count, index.leaf_entries, dtype=np.int64)
    active = slot_lo < slot_hi
    while active.any():
        mid = (slot_lo + slot_hi) >> 1
        entry_keys = _btree_leaf_keys(index, nodes, np.where(active, mid, 0))
        go_right = active & (entry_keys < keys)
        slot_lo = np.where(go_right, mid + 1, slot_lo)
        slot_hi = np.where(active & ~go_right, mid, slot_hi)
        active = slot_lo < slot_hi
    return np.minimum(nodes * index.leaf_entries + slot_lo, len(index.column))


# ----------------------------------------------------------------------
# Harmonia.
# ----------------------------------------------------------------------


def _harmonia_child_counts(
    index: HarmoniaIndex,
    level: int,
    nodes: np.ndarray,
    keys: np.ndarray,
    strict: bool = False,
    padded: bool = True,
) -> np.ndarray:
    """Per lane: how many of its node's keys are <= (strict: <) the probe.

    Slots past the data hold MAX; ``padded=False`` counts data slots only.
    """
    child_coverage = (
        index.level_coverage[level + 1]
        if level + 1 < len(index.level_sizes)
        else 1
    )
    n = len(index.column)
    node_first = nodes * index.node_keys
    lo = np.zeros(len(nodes), dtype=np.int64)
    hi = np.full(len(nodes), index.node_keys, dtype=np.int64)
    active = lo < hi
    while active.any():
        mid = (lo + hi) >> 1
        positions = (node_first + mid) * child_coverage
        exists = active & (positions < n)
        slot_keys = index.column.key_at(np.where(exists, positions, 0))
        mid_keys = np.where(exists, slot_keys, _MAX_KEY)
        if strict:
            go_right = active & (mid_keys < keys)
        else:
            go_right = active & (mid_keys <= keys)
        if not padded:
            go_right &= exists
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
        active = lo < hi
    return lo


def harmonia_traverse(
    index: HarmoniaIndex,
    keys: np.ndarray,
    recorder: Optional[TraceRecorder],
) -> np.ndarray:
    keys = np.asarray(keys, dtype=KEY_DTYPE)
    count = len(keys)
    nodes = np.zeros(count, dtype=np.int64)
    lines_per_node = max(1, (index.node_keys * KEY_BYTES + 127) // 128)
    for level in range(len(index.level_sizes)):
        if recorder is not None:
            node_base = (
                index._key_region.base
                + (index.level_offsets[level] + nodes)
                * index.node_keys
                * KEY_BYTES
            )
            for line in range(lines_per_node):
                recorder.record(node_base + line * 128)
            child_base = index._child_array.base + (
                (index.level_offsets[level] + nodes) * _CHILD_ENTRY_BYTES
            )
            recorder.record(child_base)
        # A leaf's MAX padding is not data: a MAX member stops at its slot.
        leaf = level + 1 == len(index.level_sizes)
        counts = _harmonia_child_counts(index, level, nodes, keys, padded=not leaf)
        child = np.maximum(counts - 1, 0).astype(np.int64)
        if not leaf:
            nodes = nodes * index.fanout + child
            nodes = np.minimum(nodes, index.level_sizes[level + 1] - 1)
        else:
            positions = nodes * index.node_keys + child
            n = len(index.column)
            in_range = positions < n
            safe = np.where(in_range, positions, 0)
            found = in_range & (index.column.key_at(safe) == keys)
            return np.where(found, positions, np.int64(-1))
    raise AssertionError("traversal fell off the tree")


def harmonia_lower_bound(index: HarmoniaIndex, keys: np.ndarray) -> np.ndarray:
    keys = np.asarray(keys, dtype=KEY_DTYPE)
    nodes = np.zeros(len(keys), dtype=np.int64)
    height = len(index.level_sizes)
    for level in range(height - 1):
        counts = _harmonia_child_counts(index, level, nodes, keys)
        child = np.maximum(counts - 1, 0).astype(np.int64)
        nodes = np.minimum(
            nodes * index.fanout + child, index.level_sizes[level + 1] - 1
        )
    counts_lt = _harmonia_child_counts(index, height - 1, nodes, keys, strict=True)
    return np.minimum(nodes * index.node_keys + counts_lt, len(index.column))


# ----------------------------------------------------------------------
# RadixSpline: the radix table built by bisecting spline keys, and the
# lookup with its spline-point search and data search both bisecting.
# ----------------------------------------------------------------------


def radix_spline_radix_table(index: RadixSplineIndex) -> np.ndarray:
    """The radix table as the bisecting build fills it.

    ``table[p]`` is the first spline point whose key prefix is ``>= p``:
    one ``searchsorted`` over a materialized spline's prefixes; on an
    implicit spline, a coarse prefix sample narrows every slot to a
    small window and a vectorized bisection over on-demand spline keys
    finishes it.
    """
    num_points = index.num_spline_points
    min_key = index._min_key
    shift = index._shift
    num_slots = ((index._max_spline_key - min_key) >> shift) + 2
    slots = np.arange(num_slots, dtype=np.int64)
    if index._uniform_interval is None:
        prefixes = (
            (index.spline_keys - np.uint64(min_key)) >> np.uint64(shift)
        ).astype(np.int64)
        return np.searchsorted(prefixes, slots, side="left").astype(np.int64)
    coarse = 64
    coarse_prefixes = (
        (
            index._spline_key_at(np.arange(0, num_points, coarse, dtype=np.int64))
            - np.uint64(min_key)
        )
        >> np.uint64(shift)
    ).astype(np.int64)
    block = np.searchsorted(coarse_prefixes, slots, side="left")
    hi = np.minimum(block * coarse, num_points)
    lo = np.maximum((block - 1) * coarse + 1, 0)
    active = lo < hi
    while active.any():
        mid = (lo + hi) >> 1
        prefix = (
            (index._spline_key_at(np.where(active, mid, 0)) - np.uint64(min_key))
            >> np.uint64(shift)
        ).astype(np.int64)
        go_left = active & (prefix >= slots)
        hi = np.where(go_left, mid, hi)
        lo = np.where(active & ~go_left, mid + 1, lo)
        active = lo < hi
    return lo.astype(np.int64)


def radix_spline_predict(
    index: RadixSplineIndex,
    keys: np.ndarray,
    recorder: Optional[TraceRecorder],
) -> np.ndarray:
    """``index._predict`` with the spline-point search bisecting spline
    keys, one on-demand key read per step, over ``index.radix_table``."""
    n = len(index.column)
    min_key = np.uint64(index._min_key)
    span = np.uint64(index._max_spline_key - index._min_key)
    clipped = np.where(keys > min_key, keys - min_key, np.uint64(0))
    clipped = np.minimum(clipped, span)
    prefixes = (clipped >> np.uint64(index._shift)).astype(np.int64)
    if recorder is not None:
        recorder.record(index._radix_allocation.base + prefixes * KEY_BYTES)
    seg_lo = index.radix_table[prefixes]
    seg_hi = index.radix_table[
        np.minimum(prefixes + 1, len(index.radix_table) - 1)
    ]
    seg_hi = np.minimum(
        np.maximum(seg_hi + 1, seg_lo + 1), index.num_spline_points
    )
    lo = seg_lo.astype(np.int64)
    hi = seg_hi.astype(np.int64)
    active = lo < hi
    spline_rounds = 0
    while active.any():
        spline_rounds += 1
        mid = (lo + hi) >> 1
        if recorder is not None:
            recorder.record(
                index._spline_allocation.base + mid * _SPLINE_POINT_BYTES,
                active=active,
            )
        mid_keys = index._spline_key_at(np.where(active, mid, 0))
        go_right = active & (mid_keys < keys)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
        active = lo < hi
    upper = np.clip(lo, 1, index.num_spline_points - 1)
    lower = upper - 1
    if recorder is not None:
        recorder.record(
            index._spline_allocation.base + lower * _SPLINE_POINT_BYTES
        )
    key_low = index._spline_key_at(lower)
    key_high = index._spline_key_at(upper)
    pos_low = index._spline_position_at(lower).astype(np.float64)
    pos_high = index._spline_position_at(upper).astype(np.float64)
    span = np.maximum((key_high - key_low).astype(np.float64), 1.0)
    delta = np.where(
        keys > key_low, keys - key_low, np.uint64(0)
    ).astype(np.float64)
    predicted = pos_low + delta / span * (pos_high - pos_low)
    if obs.enabled():
        obs.add(
            "index.spline_search_rounds", float(spline_rounds), index=index.name
        )
    return clamped_int64(predicted, 0.0, float(n - 1))


def radix_spline_traverse(
    index: RadixSplineIndex,
    keys: np.ndarray,
    recorder: Optional[TraceRecorder],
) -> np.ndarray:
    keys = np.asarray(keys, dtype=KEY_DTYPE)
    count = len(keys)
    n = len(index.column)
    estimate = radix_spline_predict(index, keys, recorder)
    search_lo = np.maximum(estimate - index.error_bound, 0)
    search_hi = np.minimum(estimate + index.error_bound + 1, n)
    base = (
        index.relation.allocation.base
        if recorder is not None and index.relation.allocation is not None
        else 0
    )
    active = search_lo < search_hi
    data_rounds = 0
    while active.any():
        data_rounds += 1
        mid = (search_lo + search_hi) >> 1
        if recorder is not None:
            recorder.record(base + mid * KEY_BYTES, active=active)
        mid_keys = index.column.key_at(np.where(active, mid, 0))
        go_right = active & (mid_keys < keys)
        search_lo = np.where(go_right, mid + 1, search_lo)
        search_hi = np.where(active & ~go_right, mid, search_hi)
        active = search_lo < search_hi
    if obs.enabled():
        obs.add(
            "index.data_search_rounds", float(data_rounds), index=index.name
        )
    in_range = search_lo < n
    if recorder is not None:
        recorder.record(
            base + np.where(in_range, search_lo, 0) * KEY_BYTES,
            active=in_range,
        )
    found = np.zeros(count, dtype=bool)
    if in_range.any():
        candidate = np.where(in_range, search_lo, 0)
        found = in_range & (index.column.key_at(candidate) == keys)
    return np.where(found, search_lo, np.int64(-1))


def radix_spline_lower_bound(
    index: RadixSplineIndex, keys: np.ndarray
) -> np.ndarray:
    keys = np.asarray(keys, dtype=KEY_DTYPE)
    n = len(index.column)
    estimate = radix_spline_predict(index, keys, None)
    margin = index.error_bound + 2
    search_lo = np.maximum(estimate - margin, 0)
    search_hi = np.minimum(estimate + margin + 1, n)
    active = search_lo < search_hi
    while active.any():
        mid = (search_lo + search_hi) >> 1
        mid_keys = index.column.key_at(np.where(active, mid, 0))
        go_right = active & (mid_keys < keys)
        search_lo = np.where(go_right, mid + 1, search_lo)
        search_hi = np.where(active & ~go_right, mid, search_hi)
        active = search_lo < search_hi
    return search_lo


TRAVERSE = {
    BinarySearchIndex: binary_search_traverse,
    BPlusTreeIndex: btree_traverse,
    HarmoniaIndex: harmonia_traverse,
    RadixSplineIndex: radix_spline_traverse,
}

LOWER_BOUND = {
    BinarySearchIndex: binary_search_lower_bound,
    BPlusTreeIndex: btree_lower_bound,
    HarmoniaIndex: harmonia_lower_bound,
    RadixSplineIndex: radix_spline_lower_bound,
}
