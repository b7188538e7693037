"""Run-length traces against per-lane traces, differentially.

``Index.trace_lookups`` traverses each run of equal adjacent keys once and
returns a run-length :class:`LookupTrace`; ``MachineModel.coalesced_lines``
coalesces that form directly, per (warp, run) pair when a wave's warps
cover few runs and by a per-warp lane sort otherwise.  Every output must
equal the per-lane references:

* a per-lane trace, recorded by running the index's ``_traverse`` over
  every key (positions, SIMT cost, steps per lookup, the lane-expanded
  address matrix);
* ``oracles.coalesced_lines``, the fixed-width per-warp sort over the
  lane-expanded matrix (the transaction stream and ``issued``).

Hypothesis draws sorted, Zipf-skewed and random batches through all five
index classes, and synthetic run-length traces with inactive lanes,
ragged final warps and out-of-order runs, each replayed at several
interleave widths.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import SimulationConfig
from repro.data.column import VirtualSortedColumn
from repro.data.relation import Relation
from repro.data.zipf import scatter_ranks, zipf_sample
from repro.gpu.executor import LookupTrace, MachineModel
from repro.hardware.memory import MemorySpace, SystemMemory
from repro.hardware.spec import V100_NVLINK2
from repro.indexes import ALL_INDEX_TYPES
from repro.indexes.base import TraceRecorder

from ..hardware import oracles

INDEX_IDS = [cls.__name__ for cls in ALL_INDEX_TYPES]

#: The default (one wave for every batch here), a 2^14-lane wave, a width
#: that splits warps across waves, and one lane per wave.
WIDTHS = (2**20, 2**14, 1000, 1)

COLUMN_KEYS = 2**16


@functools.lru_cache(maxsize=None)
def machine(width):
    return MachineModel(
        V100_NVLINK2, SimulationConfig(interleave_width=width)
    )


@pytest.fixture(scope="module")
def indexes():
    column = VirtualSortedColumn(COLUMN_KEYS, stride=4, seed=3)
    relation = Relation("R", column)
    memory = SystemMemory(V100_NVLINK2)
    relation.place(memory, MemorySpace.HOST)
    placed = {}
    for cls in ALL_INDEX_TYPES:
        index = cls(relation)
        index.place(memory)
        placed[cls] = index
    return placed


def per_lane(index, keys):
    """Positions and trace of ``keys`` traced one lane per column."""
    recorder = TraceRecorder(len(keys))
    positions = index._traverse(keys, recorder=recorder)
    return positions, recorder.build()


def assert_stream_matches(trace, lane_trace, widths=WIDTHS):
    for width in widths:
        model = machine(width)
        lines, issued = model.coalesced_lines(trace)
        want_lines, want_issued = oracles.coalesced_lines(model, lane_trace)
        assert issued == want_issued
        np.testing.assert_array_equal(lines, want_lines)


def assert_lookup_matches(index, keys, widths=WIDTHS):
    result = index.trace_lookups(keys)
    positions, lane_trace = per_lane(index, keys)
    trace = result.trace
    np.testing.assert_array_equal(result.positions, positions)
    assert result.simt == index._simt_cost(lane_trace.steps_per_lookup)
    np.testing.assert_array_equal(
        trace.steps_per_lookup, lane_trace.steps_per_lookup
    )
    np.testing.assert_array_equal(
        oracles.lane_matrix(trace), lane_trace.step_addresses
    )
    assert trace.num_lookups == len(keys)
    assert trace.total_accesses == lane_trace.total_accesses
    assert_stream_matches(trace, lane_trace, widths)
    return trace


@st.composite
def batches(draw):
    """Keys of one batch: uniform or Zipf, sorted or random, some misses."""
    seed = draw(st.integers(min_value=0, max_value=2**31))
    size = draw(st.integers(min_value=1, max_value=1500))
    theta = draw(st.sampled_from((0.0, 0.5, 1.0, 1.5)))
    span = draw(st.sampled_from((64, 4096, COLUMN_KEYS)))
    order = draw(st.sampled_from(("sorted", "random")))
    miss_share = draw(st.sampled_from((0.0, 0.3)))
    rng = np.random.default_rng(seed)
    positions = scatter_ranks(zipf_sample(rng, span, theta, size), span, seed)
    keys = VirtualSortedColumn(COLUMN_KEYS, stride=4, seed=3).key_at(positions)
    keys[rng.random(size) < miss_share] += np.uint64(1)
    if order == "sorted":
        keys.sort()
    return keys


@pytest.mark.parametrize("index_cls", ALL_INDEX_TYPES, ids=INDEX_IDS)
@given(keys=batches())
def test_traced_batches_match_per_lane(indexes, index_cls, keys):
    assert_lookup_matches(indexes[index_cls], keys)


@pytest.mark.parametrize("index_cls", ALL_INDEX_TYPES, ids=INDEX_IDS)
def test_skewed_window_sample_matches_per_lane(indexes, index_cls):
    """A Fig. 8-style sample: 4 x 2^14 sorted Zipf-1.25 lanes over a few
    hundred keys, so the pair layout runs, at 2^14 in several waves."""
    rng = np.random.default_rng(8)
    positions = np.sort(zipf_sample(rng, 4096, 1.25, 4 * 2**14))
    keys = VirtualSortedColumn(COLUMN_KEYS, stride=4, seed=3).key_at(positions)
    trace = assert_lookup_matches(
        indexes[index_cls], keys, widths=(2**20, 2**14, 1000)
    )
    assert trace.step_addresses.shape[1] < trace.num_lookups // 8


@st.composite
def run_length_traces(draw):
    """A synthetic run-length trace and its lane-expanded twin."""
    seed = draw(st.integers(min_value=0, max_value=2**31))
    steps = draw(st.integers(min_value=0, max_value=6))
    runs = draw(st.integers(min_value=1, max_value=80))
    longest = draw(st.sampled_from((1, 2, 40, 100)))
    lines = draw(st.sampled_from((4, 64, 2**20)))
    inactive = draw(st.sampled_from((0.0, 0.2, 0.7)))
    ordered = draw(st.booleans())
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, lines * 128, size=(steps, runs), dtype=np.int64)
    if ordered:
        matrix.sort(axis=1)
    matrix[rng.random((steps, runs)) < inactive] = -1
    run_lengths = rng.integers(1, longest + 1, size=runs)
    per_run = (matrix >= 0).sum(axis=0)
    steps_per_lookup = np.repeat(per_run, run_lengths)
    trace = LookupTrace(matrix, steps_per_lookup, run_lengths)
    lane_trace = LookupTrace(oracles.lane_matrix(trace), steps_per_lookup)
    return trace, lane_trace


@given(case=run_length_traces())
def test_run_length_traces_match_lane_expansion(case):
    trace, lane_trace = case
    assert trace.total_accesses == lane_trace.total_accesses
    assert_stream_matches(trace, lane_trace)


@pytest.mark.parametrize("width", WIDTHS)
def test_zero_step_trace_is_an_empty_stream(width):
    model = machine(width)
    run_lengths = np.array([3, 1, 40], dtype=np.int64)
    trace = LookupTrace(
        np.empty((0, 3), dtype=np.int64),
        np.zeros(44, dtype=np.int64),
        run_lengths,
    )
    lines, issued = model.coalesced_lines(trace)
    assert issued == 0 and len(lines) == 0
    assert oracles.coalesced_lines(model, trace)[1] == 0


def test_pair_layout_covers_ragged_and_straddling_runs():
    """Runs straddling warp and wave boundaries, a ragged last warp, and
    out-of-order lines inside one warp."""
    matrix = np.array(
        [
            [9 * 128, 2 * 128, 2 * 128, -1, 5 * 128],
            [-1, 7 * 128, 1 * 128, 3 * 128, 3 * 128],
        ],
        dtype=np.int64,
    )
    run_lengths = np.array([50, 3, 30, 1, 17])
    steps_per_lookup = np.repeat((matrix >= 0).sum(axis=0), run_lengths)
    trace = LookupTrace(matrix, steps_per_lookup, run_lengths)
    lane_trace = LookupTrace(oracles.lane_matrix(trace), steps_per_lookup)
    assert_stream_matches(trace, lane_trace, widths=(2**20, 64, 40, 1))
