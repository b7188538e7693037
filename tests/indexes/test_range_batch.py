"""Bit-identity suite for the fused range probe (the non-equi primitive).

The same layers as tests/indexes/test_probe_batch.py, applied to
``probe_range_batch``:

* the vectorized ``_range_bounds`` vs a ``searchsorted`` oracle --
  per-key [start, end) spans over the sorted base, on materialized and
  virtual columns alike, with nothing written outside the window.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.data.column import MaterializedColumn, VirtualSortedColumn  # noqa: E402
from repro.data.relation import Relation  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.indexes import ALL_INDEX_TYPES  # noqa: E402
from repro.indexes.domain import saturating_band  # noqa: E402

from .test_differential import workloads  # noqa: E402

EPSILONS = st.one_of(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=2**30, max_value=2**34),
    st.just(2**63),
)


def build_index(index_cls, keys: np.ndarray):
    return index_cls(Relation(name="R", column=MaterializedColumn(keys)))


def oracle_range(keys, lo, hi):
    """Reference spans: searchsorted over the raw sorted key array."""
    starts = np.searchsorted(keys, lo, side="left").astype(np.int64)
    ends = np.searchsorted(keys, hi, side="right").astype(np.int64)
    return starts, np.maximum(starts, ends)


def band_bounds(probes, epsilon):
    lo, hi = saturating_band(probes, np.uint64(epsilon))
    return lo.astype(np.uint64), hi.astype(np.uint64)


@pytest.mark.parametrize("index_cls", ALL_INDEX_TYPES)
class TestRangeBatchNumpy:
    @given(workload=workloads(), epsilon=EPSILONS)
    def test_spans_match_searchsorted_oracle(
        self, index_cls, workload, epsilon
    ):
        keys, probes = workload
        index = build_index(index_cls, keys)
        lo, hi = band_bounds(probes, epsilon)
        starts = np.empty(len(probes), dtype=np.int64)
        ends = np.empty(len(probes), dtype=np.int64)
        index.probe_range_batch(lo, hi, starts, ends)
        want_start, want_end = oracle_range(keys, lo, hi)
        np.testing.assert_array_equal(
            starts, want_start,
            err_msg=f"{index_cls.name} span starts diverge from the oracle",
        )
        np.testing.assert_array_equal(
            ends, want_end,
            err_msg=f"{index_cls.name} span ends diverge from the oracle",
        )

    @given(workload=workloads())
    @settings(max_examples=20)
    def test_lower_bound_matches_searchsorted(self, index_cls, workload):
        keys, probes = workload
        index = build_index(index_cls, keys)
        np.testing.assert_array_equal(
            index._lower_bound(probes.astype(np.uint64)),
            np.searchsorted(keys, probes, side="left").astype(np.int64),
            err_msg=f"{index_cls.name} lower bound diverges",
        )

    @given(workload=workloads())
    @settings(max_examples=20)
    def test_offset_window(self, index_cls, workload):
        keys, probes = workload
        index = build_index(index_cls, keys)
        lo, hi = band_bounds(probes, 3)
        starts = np.full(len(probes) + 7, -7, dtype=np.int64)
        ends = np.full(len(probes) + 7, -7, dtype=np.int64)
        index.probe_range_batch(lo, hi, starts, ends, offset=4)
        want_start, want_end = oracle_range(keys, lo, hi)
        np.testing.assert_array_equal(
            starts[4 : 4 + len(probes)], want_start
        )
        np.testing.assert_array_equal(ends[4 : 4 + len(probes)], want_end)
        # The windows' surroundings are untouched.
        for buffer in (starts, ends):
            assert (buffer[:4] == -7).all()
            assert (buffer[4 + len(probes) :] == -7).all()

    def test_inverted_bounds_give_empty_spans(self, index_cls):
        keys = np.arange(10, 90, dtype=np.uint64)
        index = build_index(index_cls, keys)
        lo = np.asarray([50, 80], dtype=np.uint64)
        hi = np.asarray([40, 20], dtype=np.uint64)
        starts = np.empty(2, dtype=np.int64)
        ends = np.empty(2, dtype=np.int64)
        index.probe_range_batch(lo, hi, starts, ends)
        assert (ends == starts).all()

    def test_buffer_validation(self, index_cls):
        index = build_index(index_cls, np.arange(1, 9, dtype=np.uint64))
        lo = np.asarray([1, 2, 3], dtype=np.uint64)
        hi = lo + np.uint64(1)
        good = np.empty(3, dtype=np.int64)
        with pytest.raises(SimulationError):
            index.probe_range_batch(lo, hi[:2], good, good.copy())
        with pytest.raises(SimulationError):
            index.probe_range_batch(lo, hi, np.empty(3, np.float64), good)
        with pytest.raises(SimulationError):
            index.probe_range_batch(lo, hi, good, np.empty((3, 1), np.int64))
        with pytest.raises(SimulationError):
            index.probe_range_batch(lo, hi, np.empty(2, np.int64), good)
        with pytest.raises(SimulationError):
            index.probe_range_batch(lo, hi, good, good.copy(), offset=1)
        with pytest.raises(SimulationError):
            index.probe_range_batch(lo, hi, good, good.copy(), offset=-1)

    def test_empty_batch_touches_nothing(self, index_cls):
        index = build_index(index_cls, np.arange(1, 9, dtype=np.uint64))
        starts = np.full(4, -7, dtype=np.int64)
        ends = np.full(4, -7, dtype=np.int64)
        empty = np.empty(0, dtype=np.uint64)
        index.probe_range_batch(empty, empty, starts, ends)
        assert (starts == -7).all()
        assert (ends == -7).all()


def test_probe_range_batch_on_virtual_columns():
    """Virtual columns gather keys on demand; spans still match."""
    relation = Relation(name="R", column=VirtualSortedColumn(num_keys=64))
    keys = relation.column.key_at(np.arange(64))
    probes = keys[np.asarray([0, 7, 31, 63])]
    lo, hi = band_bounds(probes, 2)
    for index_cls in ALL_INDEX_TYPES:
        index = index_cls(relation)
        starts = np.empty(4, dtype=np.int64)
        ends = np.empty(4, dtype=np.int64)
        index.probe_range_batch(lo, hi, starts, ends)
        want_start, want_end = oracle_range(keys, lo, hi)
        np.testing.assert_array_equal(starts, want_start)
        np.testing.assert_array_equal(ends, want_end)
