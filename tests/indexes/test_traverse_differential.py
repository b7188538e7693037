"""Rank-first descent against the key-reading bisection it replaced.

Every paper index derives its search slots from the probe's column ranks
and replays the bisection mids only when recording.  ``oracles.py`` keeps
the bisecting traversals that read one column key per search step; this
suite requires, for every index configuration and any probe batch:

* identical positions from ``_traverse`` without a recorder (the
  ``lookup`` / ``probe_batch`` path, which replays nothing: the binary
  search, the B+tree and Harmonia answer it from the ranks alone);
* identical positions, recorded step matrix (shape and every address)
  and ``index.*`` round counters from ``_traverse`` with a recorder --
  the step matrix is where the tree descents, which run only to
  record, must agree;
* identical ``_lower_bound`` results.

Columns are materialized shards of 2^14-2^16 keys in the numeric danger
zones (near 2^53, at and above 2^63, ending at the MAX key) and virtual
columns up to 100 GiB.  Probes mix members, members at node boundaries,
near misses, 0, MAX, keys past the end and keys at or above 2^63.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro import obs  # noqa: E402
from repro.data.column import (  # noqa: E402
    KEY_DTYPE,
    MaterializedColumn,
    VirtualSortedColumn,
)
from repro.data.relation import Relation  # noqa: E402
from repro.hardware.memory import MemorySpace, SystemMemory  # noqa: E402
from repro.hardware.spec import V100_NVLINK2  # noqa: E402
from repro.indexes import (  # noqa: E402
    BinarySearchIndex,
    BPlusTreeIndex,
    HarmoniaIndex,
    RadixSplineIndex,
    TraceRecorder,
)
from repro.units import GIB, KEY_BYTES  # noqa: E402

from . import oracles  # noqa: E402

MAX_KEY = 2**64 - 1

#: A host large enough to place any index next to a 100 GiB relation;
#: placement only fixes addresses here.
ROOMY = dataclasses.replace(
    V100_NVLINK2,
    cpu=dataclasses.replace(V100_NVLINK2.cpu, memory_capacity_bytes=2**50),
)

#: (class, constructor arguments) of every configuration under test.
CONFIGS = (
    (BinarySearchIndex, {}),
    (BPlusTreeIndex, {"node_bytes": 64, "leaf_payload_bytes": 0}),
    (BPlusTreeIndex, {"node_bytes": 64, "leaf_payload_bytes": 8}),
    (BPlusTreeIndex, {"node_bytes": 4096, "leaf_payload_bytes": 0}),
    (BPlusTreeIndex, {"node_bytes": 4096, "leaf_payload_bytes": 8}),
    (HarmoniaIndex, {"node_keys": 2}),
    (HarmoniaIndex, {"node_keys": 32}),
    (RadixSplineIndex, {"max_error": 1}),
    (RadixSplineIndex, {"max_error": 32}),
)
CONFIG_IDS = [
    cls.__name__ + "".join(f"-{k}={v}" for k, v in kwargs.items())
    for cls, kwargs in CONFIGS
]

#: Materialized shard sizes: powers of two and one that fills no node.
SHARD_SIZES = (2**14, 3 * 2**13 + 5, 2**16)

#: (first key, largest gap) of the materialized regimes.  ``None`` parks
#: the shard at the top of the key space, so MAX is its last key.
KEY_REGIMES = (
    (0, 3),
    (2**32, 2**20),
    (2**53 - 2**10, 3),
    (2**62, 3),
    (2**63 + 17, 2**10),
    (None, 2**10),
)

#: Virtual column lengths, from one node past 2^14 keys to 100 GiB.
VIRTUAL_SIZES = (2**14 + 1, 2**20, 2**31, 100 * GIB // KEY_BYTES)

#: A virtual column's spline at max_error 1 has a point every two keys; its radix
#: table build samples 1/64 of them, so it stays below this size.
SMALL_SPLINE_KEYS = 2**20

ROUND_COUNTERS = (
    "index.search_rounds",
    "index.spline_search_rounds",
    "index.data_search_rounds",
)


@functools.lru_cache(maxsize=32)
def shard_column(size: int, regime: int, seed: int) -> MaterializedColumn:
    base, max_gap = KEY_REGIMES[regime]
    rng = np.random.default_rng(seed)
    gaps = rng.integers(1, max_gap + 1, size=size, dtype=np.uint64)
    if base is None:
        # Offsets from the last key down, so the last key is exactly MAX.
        below = np.cumsum(gaps[::-1])[::-1] - gaps[-1]
        keys = np.uint64(MAX_KEY) - below
    else:
        keys = np.uint64(base) + np.cumsum(gaps)
    return MaterializedColumn(keys)


@functools.lru_cache(maxsize=64)
def placed_index(column, config: int):
    cls, kwargs = CONFIGS[config]
    relation = Relation(name="R", column=column)
    memory = SystemMemory(ROOMY)
    relation.place(memory, MemorySpace.HOST)
    index = cls(relation, **kwargs)
    index.place(memory)
    return index


@st.composite
def shard_indexes(draw, config: int):
    column = shard_column(
        draw(st.sampled_from(SHARD_SIZES)),
        draw(st.integers(0, len(KEY_REGIMES) - 1)),
        draw(st.integers(0, 3)),
    )
    return placed_index(column, config)


@st.composite
def virtual_indexes(draw, config: int):
    cls, kwargs = CONFIGS[config]
    sizes = VIRTUAL_SIZES
    if cls is RadixSplineIndex and kwargs["max_error"] == 1:
        sizes = tuple(size for size in sizes if size <= SMALL_SPLINE_KEYS)
    column = VirtualSortedColumn(
        draw(st.sampled_from(sizes)),
        stride=draw(st.sampled_from((1, 2, 4, 9))),
        offset=draw(st.sampled_from((0, 12_345, 2**40))),
        seed=draw(st.integers(0, 3)),
    )
    return placed_index(column, config)


@st.composite
def probe_batches(draw, column) -> np.ndarray:
    """Members, node-boundary members, near misses and extremes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 256))
    n = len(column)
    positions = rng.integers(0, n, size=count)
    # Multiples of a power of two land on node and leaf boundaries.
    step = 2 ** int(rng.integers(0, 13))
    boundaries = (rng.integers(0, max(1, n // step), size=count) * step) % n
    members = column.key_at(np.concatenate([positions, boundaries]))
    with np.errstate(over="ignore"):
        near = np.concatenate(
            [members[: count // 2] + np.uint64(1), members[count // 2 :] - np.uint64(1)]
        )
    last = int(column.max_key)
    extremes = np.asarray(
        [0, MAX_KEY, int(column.min_key), last, min(last + 1, MAX_KEY),
         2**63 - 1, 2**63, 2**63 + 1],
        dtype=KEY_DTYPE,
    )
    wide = rng.integers(0, 2**64 - 1, size=count // 4 + 1, dtype=np.uint64,
                        endpoint=True)
    probes = np.concatenate([members, near, extremes, wide])
    if draw(st.booleans()):
        return np.sort(probes)
    return probes[rng.permutation(len(probes))]


def traced(index, traverse, keys):
    """Positions, step matrix and round counters of one recorded traversal."""
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    try:
        recorder = TraceRecorder(len(keys))
        positions = traverse(keys, recorder)
        rounds = {
            name: obs.counter(name, index=index.name) for name in ROUND_COUNTERS
        }
    finally:
        obs.enable(was_enabled)
        obs.reset()
    return positions, recorder.build().step_addresses, rounds


def assert_matches_oracle(index, keys):
    cls = type(index)
    traverse_oracle = oracles.TRAVERSE[cls]
    expected, expected_steps, expected_rounds = traced(
        index, lambda k, r: traverse_oracle(index, k, r), keys
    )
    positions, steps, rounds = traced(index, index._traverse, keys)
    np.testing.assert_array_equal(positions, expected)
    assert steps.shape == expected_steps.shape
    np.testing.assert_array_equal(steps, expected_steps)
    assert rounds == expected_rounds
    # The untraced path (lookup, probe_batch) replays nothing.
    assert not obs.enabled()
    np.testing.assert_array_equal(index._traverse(keys, None), expected)
    np.testing.assert_array_equal(
        index._lower_bound(keys), oracles.LOWER_BOUND[cls](index, keys)
    )


@pytest.mark.parametrize("config", range(len(CONFIGS)), ids=CONFIG_IDS)
@given(data=st.data())
def test_shards_match_the_bisection_oracle(config, data):
    index = data.draw(shard_indexes(config))
    assert_matches_oracle(index, data.draw(probe_batches(index.column)))


@pytest.mark.parametrize("config", range(len(CONFIGS)), ids=CONFIG_IDS)
@given(data=st.data())
def test_virtual_columns_match_the_bisection_oracle(config, data):
    index = data.draw(virtual_indexes(config))
    assert_matches_oracle(index, data.draw(probe_batches(index.column)))


@pytest.mark.parametrize("config", range(len(CONFIGS)), ids=CONFIG_IDS)
def test_max_member_in_a_partial_last_node(config):
    """MAX is the last key and the last leaf is not full: every descent
    must treat the MAX-padded slots exactly as the bisection did."""
    keys = np.arange(2**14 + 3, dtype=np.uint64) * np.uint64(5)
    keys[-1] = np.uint64(MAX_KEY)
    index = placed_index(MaterializedColumn(keys), config)
    probes = np.asarray(
        [MAX_KEY, MAX_KEY - 1, 0, int(keys[-2]), int(keys[-2]) + 1],
        dtype=KEY_DTYPE,
    )
    assert_matches_oracle(index, probes)


def test_radix_spline_search_stays_in_its_window():
    """With the error bound understated, many lower ranks fall outside the
    data-search window: the search must still end at the window's edge,
    where the bisection stops, and read only inside it."""
    column = shard_column(2**14, 1, 0)
    index = RadixSplineIndex(
        Relation(name="R", column=column), max_error=1
    )
    memory = SystemMemory(ROOMY)
    index.relation.place(memory, MemorySpace.HOST)
    index.place(memory)
    index.error_bound = 0
    keys = column.key_at(np.arange(0, 2**14, 7))
    with np.errstate(over="ignore"):
        probes = np.concatenate([keys, keys + np.uint64(1), keys - np.uint64(1)])
    assert_matches_oracle(index, probes)
