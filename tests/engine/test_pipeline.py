"""Streaming operator pipeline."""

import numpy as np
import pytest

from repro.data.generator import WorkloadConfig, make_workload
from repro.engine.pipeline import (
    FilterOperator,
    IndexProbeOperator,
    MaterializeOperator,
    Pipeline,
    ScanOperator,
    TupleBatch,
    WindowOperator,
    windowed_inlj_pipeline,
)
from repro.errors import ConfigurationError, WorkloadError
from repro.indexes import ALL_INDEX_TYPES, RadixSplineIndex
from repro.join.base import reference_join
from repro.partition.bits import choose_partition_bits
from repro.partition.radix import RadixPartitioner

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - property tests skip themselves
    HAVE_HYPOTHESIS = False


def drain(operator, upstream):
    return list(operator.process(iter(upstream)))


def batch_of(keys, start=0):
    keys = np.asarray(keys, dtype=np.uint64)
    return TupleBatch(
        keys=keys, indices=np.arange(start, start + len(keys), dtype=np.int64)
    )


class TestTupleBatch:
    def test_length_checked(self):
        with pytest.raises(WorkloadError):
            TupleBatch(
                keys=np.zeros(2, dtype=np.uint64),
                indices=np.zeros(3, dtype=np.int64),
            )

    def test_positions_checked(self):
        with pytest.raises(WorkloadError):
            TupleBatch(
                keys=np.zeros(2, dtype=np.uint64),
                indices=np.zeros(2, dtype=np.int64),
                positions=np.zeros(1, dtype=np.int64),
            )


class TestScanOperator:
    def test_batches_cover_stream(self):
        keys = np.arange(100, dtype=np.uint64)
        batches = drain(ScanOperator(keys, batch_tuples=32), [])
        assert [len(b) for b in batches] == [32, 32, 32, 4]
        assert np.concatenate([b.keys for b in batches]).tolist() == list(
            range(100)
        )

    def test_indices_are_stream_positions(self):
        keys = np.arange(10, dtype=np.uint64) * 5
        batches = drain(ScanOperator(keys, batch_tuples=4), [])
        assert batches[1].indices.tolist() == [4, 5, 6, 7]

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ConfigurationError):
            ScanOperator(np.zeros(1, dtype=np.uint64), batch_tuples=0)


class TestFilterOperator:
    def test_filters_rows(self):
        operator = FilterOperator(lambda keys: keys % 2 == 0)
        batches = drain(operator, [batch_of([1, 2, 3, 4])])
        assert batches[0].keys.tolist() == [2, 4]
        assert batches[0].indices.tolist() == [1, 3]

    def test_drops_empty_batches(self):
        operator = FilterOperator(lambda keys: keys > 100)
        assert drain(operator, [batch_of([1, 2])]) == []

    def test_bad_predicate_shape(self):
        operator = FilterOperator(lambda keys: np.array([True]))
        with pytest.raises(WorkloadError):
            drain(operator, [batch_of([1, 2])])


class TestWindowOperator:
    def test_regroups_to_window_size(self):
        operator = WindowOperator(window_bytes=4 * 8)
        batches = drain(
            operator, [batch_of([1, 2, 3]), batch_of([4, 5, 6, 7], start=3)]
        )
        assert [len(b) for b in batches] == [4, 3]
        assert batches[0].keys.tolist() == [1, 2, 3, 4]

    def test_exact_fit_no_empty_tail(self):
        operator = WindowOperator(window_bytes=2 * 8)
        batches = drain(operator, [batch_of([1, 2, 3, 4])])
        assert [len(b) for b in batches] == [2, 2]

    def test_large_input_batch_split(self):
        operator = WindowOperator(window_bytes=3 * 8)
        batches = drain(operator, [batch_of(list(range(10)))])
        assert [len(b) for b in batches] == [3, 3, 3, 1]

    def test_indices_preserved(self):
        operator = WindowOperator(window_bytes=2 * 8)
        batches = drain(operator, [batch_of([9, 8, 7], start=5)])
        assert batches[0].indices.tolist() == [5, 6]
        assert batches[1].indices.tolist() == [7]

    def test_window_equal_to_batch_size_passes_through(self):
        # Upstream batches already have exactly the window size: each
        # must come out unchanged (and uncopied), with no empty tail.
        operator = WindowOperator(window_bytes=4 * 8)
        upstream = [batch_of([1, 2, 3, 4]), batch_of([5, 6, 7, 8], start=4)]
        batches = drain(operator, upstream)
        assert [len(b) for b in batches] == [4, 4]
        assert batches[0].keys.tolist() == [1, 2, 3, 4]
        assert batches[1].keys.tolist() == [5, 6, 7, 8]
        assert batches[1].indices.tolist() == [4, 5, 6, 7]
        # The contiguous fast path slices, never concatenates.
        assert batches[0].keys.base is upstream[0].keys

    def test_final_partial_window_of_one_tuple(self):
        operator = WindowOperator(window_bytes=4 * 8)
        batches = drain(operator, [batch_of(list(range(9)))])
        assert [len(b) for b in batches] == [4, 4, 1]
        assert batches[-1].keys.tolist() == [8]
        assert batches[-1].indices.tolist() == [8]

    def test_partial_tail_spanning_input_batches(self):
        # The 1-tuple tail accumulates across two upstream batches.
        operator = WindowOperator(window_bytes=4 * 8)
        batches = drain(operator, [batch_of([1, 2, 3]), batch_of([4, 5], start=3)])
        assert [len(b) for b in batches] == [4, 1]
        assert batches[-1].keys.tolist() == [5]

    def test_zero_batch_upstream_yields_nothing(self):
        operator = WindowOperator(window_bytes=4 * 8)
        assert drain(operator, []) == []

    def test_open_window_persists_between_pushes(self):
        operator = WindowOperator(window_bytes=4 * 8)
        assert operator.push(batch_of([1, 2, 3])) == []
        assert len(operator) == 3
        closed = operator.push(batch_of([4, 5], start=3))
        assert [b.keys.tolist() for b in closed] == [[1, 2, 3, 4]]
        assert len(operator) == 1
        tail = operator.flush()
        assert [b.indices.tolist() for b in tail] == [[4]]
        assert len(operator) == 0
        assert operator.flush() == []


if HAVE_HYPOTHESIS:

    @given(
        size=st.integers(min_value=0, max_value=40),
        window_tuples=st.integers(min_value=1, max_value=10),
        cuts=st.lists(st.integers(min_value=0, max_value=40), max_size=8),
    )
    def test_push_and_flush_over_any_split_equal_process(
        size, window_tuples, cuts
    ):
        """Pushing any split of a stream (empty batches included), then
        flushing, yields exactly the windows ``process()`` yields over
        the whole stream or over the same split."""
        keys = np.arange(size, dtype=np.uint64) * 5
        bounds = [0] + sorted(min(cut, size) for cut in cuts) + [size]
        split = [
            batch_of(keys[lo:hi], start=lo)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        window_bytes = window_tuples * 8
        operator = WindowOperator(window_bytes)
        pushed = [w for batch in split for w in operator.push(batch)]
        pushed += operator.flush()
        assert len(operator) == 0
        for upstream in ([batch_of(keys)], split):
            processed = drain(WindowOperator(window_bytes), upstream)
            assert [w.keys.tolist() for w in pushed] == [
                w.keys.tolist() for w in processed
            ]
            assert [w.indices.tolist() for w in pushed] == [
                w.indices.tolist() for w in processed
            ]


class TestProbeAndMaterialize:
    def test_probe_sets_positions(self, small_relation, small_probes):
        index = RadixSplineIndex(small_relation)
        operator = IndexProbeOperator(index)
        batches = drain(operator, [batch_of(small_probes.keys[:16])])
        assert batches[0].positions is not None

    def test_materialize_requires_probed_batches(self):
        sink = MaterializeOperator()
        with pytest.raises(WorkloadError):
            drain(sink, [batch_of([1])])


class TestPipeline:
    @pytest.mark.parametrize(
        "index_cls", ALL_INDEX_TYPES, ids=[c.__name__ for c in ALL_INDEX_TYPES]
    )
    def test_full_pipeline_matches_reference(self, index_cls):
        config = WorkloadConfig(
            r_tuples=2**14, s_tuples=2**11, match_rate=0.8, seed=2
        )
        relation, probes = make_workload(config)
        partitioner = RadixPartitioner(
            choose_partition_bits(relation.column, 64, ignored_lsb=4)
        )
        pipeline = windowed_inlj_pipeline(
            probes.keys,
            index_cls(relation),
            partitioner,
            window_bytes=4096,
            batch_tuples=300,
        )
        result = pipeline.run()
        assert result.equals(reference_join(relation.column, probes.keys))

    def test_pipeline_with_filter(self, small_relation, small_probes):
        partitioner = RadixPartitioner(
            choose_partition_bits(small_relation.column, 64, ignored_lsb=4)
        )
        threshold = small_relation.column.key_at(
            np.array([small_relation.num_tuples // 2])
        )[0]
        pipeline = windowed_inlj_pipeline(
            small_probes.keys,
            RadixSplineIndex(small_relation),
            partitioner,
            window_bytes=2048,
            predicate=lambda keys: keys < threshold,
        )
        result = pipeline.run()
        kept = small_probes.keys < threshold
        reference = reference_join(
            small_relation.column,
            np.where(kept, small_probes.keys, np.uint64(2**63)),
        )
        assert result.equals(reference)

    def test_explain(self, small_relation, small_probes):
        partitioner = RadixPartitioner(
            choose_partition_bits(small_relation.column, 64, ignored_lsb=4)
        )
        pipeline = windowed_inlj_pipeline(
            small_probes.keys,
            RadixSplineIndex(small_relation),
            partitioner,
            window_bytes=2048,
        )
        text = pipeline.explain()
        assert "ScanOperator" in text and "MaterializeOperator" in text

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ConfigurationError):
            Pipeline([])

    def test_sink_must_be_materialize(self, small_probes):
        pipeline = Pipeline([ScanOperator(small_probes.keys)])
        with pytest.raises(ConfigurationError):
            pipeline.run()

    def test_sink_validated_before_pulling_the_stream(self, small_probes):
        # A misconfigured pipeline must fail fast: no batch may be
        # pulled (and no work done) before the sink check raises.
        pulled = []

        def spy(keys):
            pulled.append(len(keys))
            return np.ones(len(keys), dtype=bool)

        pipeline = Pipeline(
            [ScanOperator(small_probes.keys), FilterOperator(spy)]
        )
        with pytest.raises(ConfigurationError):
            pipeline.run()
        assert pulled == []

    def test_empty_stream(self, small_relation):
        partitioner = RadixPartitioner(
            choose_partition_bits(small_relation.column, 64, ignored_lsb=4)
        )
        pipeline = windowed_inlj_pipeline(
            np.empty(0, dtype=np.uint64),
            RadixSplineIndex(small_relation),
            partitioner,
            window_bytes=2048,
        )
        assert len(pipeline.run()) == 0
