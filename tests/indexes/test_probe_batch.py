"""Bit-identity suite for the fused batch probe.

Property-driven through the same adversarial regimes as the
differential suite (:mod:`tests.indexes.test_differential`):

* ``probe_batch`` vs. ``lookup`` -- the fused API writes the same
  positions into a caller-owned buffer, on materialized and virtual
  columns alike, and touches nothing outside its window.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402

from repro.data.column import MaterializedColumn, VirtualSortedColumn  # noqa: E402
from repro.data.relation import Relation  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.indexes import ALL_INDEX_TYPES  # noqa: E402

from .test_differential import oracle_lookup, workloads  # noqa: E402


def build_index(index_cls, keys: np.ndarray):
    return index_cls(Relation(name="R", column=MaterializedColumn(keys)))


@pytest.mark.parametrize("index_cls", ALL_INDEX_TYPES)
class TestProbeBatchNumpy:
    @given(workload=workloads())
    def test_probe_batch_matches_lookup(self, index_cls, workload):
        keys, probes = workload
        index = build_index(index_cls, keys)
        out = np.empty(len(probes), dtype=np.int64)
        index.probe_batch(probes, out)
        np.testing.assert_array_equal(
            out,
            oracle_lookup(keys, probes),
            err_msg=f"{index_cls.name} probe_batch diverges from the oracle",
        )

    @given(workload=workloads())
    @settings(max_examples=20)
    def test_probe_batch_offset_window(self, index_cls, workload):
        keys, probes = workload
        index = build_index(index_cls, keys)
        out = np.full(len(probes) + 7, -7, dtype=np.int64)
        index.probe_batch(probes, out, offset=4)
        np.testing.assert_array_equal(
            out[4 : 4 + len(probes)], oracle_lookup(keys, probes)
        )
        # The window's surroundings are untouched.
        assert (out[:4] == -7).all()
        assert (out[4 + len(probes) :] == -7).all()

    def test_output_buffer_validation(self, index_cls):
        index = build_index(index_cls, np.arange(1, 9, dtype=np.uint64))
        probes = np.asarray([1, 2, 3], dtype=np.uint64)
        with pytest.raises(SimulationError):
            index.probe_batch(probes, np.empty(3, dtype=np.float64))
        with pytest.raises(SimulationError):
            index.probe_batch(probes, np.empty((3, 1), dtype=np.int64))
        with pytest.raises(SimulationError):
            index.probe_batch(probes, np.empty(2, dtype=np.int64))
        with pytest.raises(SimulationError):
            index.probe_batch(probes, np.empty(3, dtype=np.int64), offset=1)
        with pytest.raises(SimulationError):
            index.probe_batch(probes, np.empty(3, dtype=np.int64), offset=-1)

    def test_empty_batch_touches_nothing(self, index_cls):
        index = build_index(index_cls, np.arange(1, 9, dtype=np.uint64))
        out = np.full(4, -7, dtype=np.int64)
        index.probe_batch(np.empty(0, dtype=np.uint64), out)
        assert (out == -7).all()


def test_probe_batch_on_virtual_columns():
    """Virtual columns gather keys on demand; probe_batch still matches."""
    relation = Relation(name="R", column=VirtualSortedColumn(num_keys=64))
    for index_cls in ALL_INDEX_TYPES:
        index = index_cls(relation)
        out = np.empty(4, dtype=np.int64)
        probes = relation.column.key_at(np.asarray([0, 1, 2, 63]))
        index.probe_batch(probes, out)
        expected = oracle_lookup(
            relation.column.key_at(np.arange(64)), probes
        )
        np.testing.assert_array_equal(out, expected)
