"""Properties every index must satisfy, tested uniformly.

The single most important invariant of the reproduction: an index's
*simulated* traversal is the same code as its functional lookup, so traced
and untraced results must agree bit-for-bit, and both must agree with the
ground-truth rank computation.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.column import MaterializedColumn, VirtualSortedColumn
from repro.data.relation import Relation
from repro.errors import SimulationError
from repro.hardware.memory import MemorySpace, SystemMemory
from repro.hardware.spec import V100_NVLINK2
from repro.indexes import ALL_INDEX_TYPES

INDEX_IDS = [cls.__name__ for cls in ALL_INDEX_TYPES]


@pytest.fixture(params=ALL_INDEX_TYPES, ids=INDEX_IDS)
def index_cls(request):
    return request.param


def placed_index(index_cls, relation):
    memory = SystemMemory(V100_NVLINK2)
    relation.place(memory, MemorySpace.HOST)
    index = index_cls(relation)
    index.place(memory)
    return index


class TestLookupCorrectness:
    def test_members_found(self, index_cls, small_relation, small_probes):
        index = index_cls(small_relation)
        positions = index.lookup(small_probes.keys)
        assert np.array_equal(positions, small_probes.expected_positions)

    def test_first_and_last_key(self, index_cls, small_relation):
        index = index_cls(small_relation)
        n = small_relation.num_tuples
        keys = small_relation.column.key_at(np.array([0, n - 1]))
        assert index.lookup(keys).tolist() == [0, n - 1]

    def test_below_and_above_domain(self, index_cls, small_relation):
        index = index_cls(small_relation)
        low = small_relation.column.min_key - 1
        high = small_relation.column.max_key + 1
        keys = np.array([low, high], dtype=np.uint64)
        assert index.lookup(keys).tolist() == [-1, -1]

    def test_gap_keys_not_found(self, index_cls, small_relation):
        index = index_cls(small_relation)
        member = small_relation.column.key_at(np.array([5]))[0]
        assert index.lookup(np.array([member + 1])).tolist() == [-1]

    def test_empty_batch(self, index_cls, small_relation):
        index = index_cls(small_relation)
        assert len(index.lookup(np.empty(0, dtype=np.uint64))) == 0

    def test_single_key_column(self, index_cls):
        relation = Relation(
            "R", MaterializedColumn(np.array([42], dtype=np.uint64))
        )
        index = index_cls(relation)
        assert index.lookup(np.array([42], dtype=np.uint64)).tolist() == [0]
        assert index.lookup(np.array([41], dtype=np.uint64)).tolist() == [-1]

    def test_two_key_column(self, index_cls):
        relation = Relation(
            "R", MaterializedColumn(np.array([10, 20], dtype=np.uint64))
        )
        index = index_cls(relation)
        probes = np.array([10, 15, 20, 25], dtype=np.uint64)
        assert index.lookup(probes).tolist() == [0, -1, 1, -1]

    def test_virtual_column_agrees_with_materialized(self, index_cls):
        n = 2**12
        virtual = VirtualSortedColumn(n, stride=4, seed=9)
        materialized = MaterializedColumn(virtual.key_at(np.arange(n)))
        keys = virtual.key_at(np.arange(0, n, 7))
        via_virtual = index_cls(Relation("R", virtual)).lookup(keys)
        via_materialized = index_cls(Relation("R", materialized)).lookup(keys)
        assert np.array_equal(via_virtual, via_materialized)


class TestTracing:
    def test_traced_positions_match_untraced(
        self, index_cls, small_relation, small_probes
    ):
        index = placed_index(index_cls, small_relation)
        result = index.trace_lookups(small_probes.keys)
        assert np.array_equal(result.positions, index.lookup(small_probes.keys))

    def test_trace_shape(self, index_cls, small_relation, small_probes):
        index = placed_index(index_cls, small_relation)
        result = index.trace_lookups(small_probes.keys)
        assert result.trace.num_lookups == len(small_probes.keys)
        assert result.trace.num_steps >= 1
        assert np.all(result.trace.steps_per_lookup >= 1)

    def test_trace_addresses_are_mapped(
        self, index_cls, small_relation, small_probes
    ):
        """Every recorded address must fall inside a live allocation."""
        memory = SystemMemory(V100_NVLINK2)
        small_relation.place(memory, MemorySpace.HOST)
        index = index_cls(small_relation)
        index.place(memory)
        result = index.trace_lookups(small_probes.keys[:64])
        addresses = result.trace.step_addresses
        for address in np.unique(addresses[addresses >= 0])[:200]:
            memory.find(int(address))  # raises if unmapped

    def test_trace_requires_placement(
        self, index_cls, small_relation, small_probes
    ):
        index = index_cls(small_relation)
        with pytest.raises(SimulationError):
            index.trace_lookups(small_probes.keys)

    def test_trace_rejects_empty(self, index_cls, small_relation):
        index = placed_index(index_cls, small_relation)
        with pytest.raises(SimulationError):
            index.trace_lookups(np.empty(0, dtype=np.uint64))

    def test_simt_cost_positive(self, index_cls, small_relation, small_probes):
        index = placed_index(index_cls, small_relation)
        result = index.trace_lookups(small_probes.keys)
        assert result.simt.warp_instructions > 0


@pytest.mark.parametrize(
    "index_cls",
    ALL_INDEX_TYPES,
    ids=[cls.__name__ for cls in ALL_INDEX_TYPES],
)
@pytest.mark.parametrize("shape", [(), (8, 8), (2, 1, 3)], ids=str)
def test_trace_rejects_non_1d_batches(
    index_cls, shape, small_relation, monkeypatch
):
    """A batch that is not one-dimensional fails, naming its shape, before
    any traversal (run detection would compare whole rows)."""
    index = placed_index(index_cls, small_relation)
    monkeypatch.setattr(
        index, "_traverse", lambda *args, **kwargs: pytest.fail("traversed")
    )
    keys = np.full(shape, small_relation.column.min_key, dtype=np.uint64)
    with pytest.raises(SimulationError, match=re.escape(str(shape))):
        index.trace_lookups(keys)


class TestStructure:
    def test_footprint_non_negative(self, index_cls, small_relation):
        assert index_cls(small_relation).footprint_bytes >= 0

    def test_height_positive(self, index_cls, small_relation):
        assert index_cls(small_relation).height >= 1

    def test_sweep_pages_positive(self, index_cls, virtual_relation):
        index = index_cls(virtual_relation)
        pages = index.expected_sweep_pages(
            window_lookups=2**22,
            page_bytes=2**21,
            l2_bytes=6 * 2**20,
            cacheline_bytes=128,
        )
        assert pages > 0

    def test_sweep_pages_monotone_in_window(self, index_cls, virtual_relation):
        index = index_cls(virtual_relation)

        def pages(window):
            return index.expected_sweep_pages(
                window_lookups=window,
                page_bytes=2**21,
                l2_bytes=6 * 2**20,
                cacheline_bytes=128,
            )

        assert pages(2**24) >= pages(2**18) - 1e-9

    def test_replay_factor_positive(self, index_cls):
        assert index_cls.tlb_replay_factor > 0


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**31),
    probes=st.integers(min_value=1, max_value=200),
)
@pytest.mark.parametrize("index_cls", ALL_INDEX_TYPES, ids=INDEX_IDS)
def test_lookup_equals_rank(index_cls, n, seed, probes):
    """Any index == column.rank_of, for arbitrary sizes and probe mixes."""
    column = VirtualSortedColumn(n, stride=4, seed=seed)
    relation = Relation("R", column)
    index = index_cls(relation)
    rng = np.random.default_rng(seed)
    positions = rng.integers(0, n, size=probes)
    keys = column.key_at(positions)
    # Mix in misses (key+1 is never a member for stride 4).
    keys[::3] = keys[::3] + np.uint64(1)
    assert np.array_equal(index.lookup(keys), column.rank_of(keys))
