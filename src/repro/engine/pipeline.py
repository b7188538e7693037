"""Pull-based streaming operators over tuple batches.

The paper's windowed partitioning "restores the pipeline" (Section 5):
probe tuples stream through window -> partition -> INLJ without either
input being materialized.  This module makes that pipeline explicit as
composable operators, so examples and tests can assemble exactly the
dataflow of the paper's Fig. 1 right-hand side -- and verify that a
pipelined plan computes the same join as a monolithic one.

Operators exchange :class:`TupleBatch` objects (keys plus their original
stream indices) and follow the classic open/next iterator contract,
implemented as Python generators.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional

import numpy as np

from .. import obs
from ..data.column import KEY_DTYPE
from ..errors import ConfigurationError, WorkloadError
from ..indexes.base import Index
from ..join.base import JoinResult
from ..partition.radix import RadixPartitioner
from ..resilience import faults
from ..units import KEY_BYTES


@dataclass
class TupleBatch:
    """A batch of probe tuples flowing through the pipeline.

    Attributes:
        keys: probe keys.
        indices: each tuple's position in the original stream (the
            payload join results refer to).
        positions: match positions in the indexed relation; filled by the
            probe operator, -1 before that / for misses.
    """

    keys: np.ndarray
    indices: np.ndarray
    positions: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if len(self.keys) != len(self.indices):
            raise WorkloadError(
                "keys and indices must have equal length: "
                f"{len(self.keys)} != {len(self.indices)}"
            )
        if self.positions is not None and len(self.positions) != len(self.keys):
            raise WorkloadError("positions length mismatch")

    def __len__(self) -> int:
        return len(self.keys)


class Operator(abc.ABC):
    """One pipeline stage: transforms a stream of batches."""

    @abc.abstractmethod
    def process(self, upstream: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
        """Consume upstream batches, yield downstream batches."""


class ScanOperator(Operator):
    """Stream source: emits probe keys in fixed-size batches.

    Models the outer scan that "ends the input stream" (Section 5.1).
    As a source it ignores its (empty) upstream.
    """

    def __init__(self, keys: np.ndarray, batch_tuples: int = 2**16):
        if batch_tuples <= 0:
            raise ConfigurationError(
                f"batch size must be positive, got {batch_tuples}"
            )
        self.keys = np.asarray(keys, dtype=KEY_DTYPE)
        self.batch_tuples = batch_tuples

    def process(self, upstream: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
        for start in range(0, len(self.keys), self.batch_tuples):
            stop = min(start + self.batch_tuples, len(self.keys))
            yield TupleBatch(
                keys=self.keys[start:stop],
                indices=np.arange(start, stop, dtype=np.int64),
            )


class FilterOperator(Operator):
    """Row filter on probe keys (a WHERE predicate ahead of the join)."""

    def __init__(self, predicate: Callable[[np.ndarray], np.ndarray]):
        self.predicate = predicate

    def process(self, upstream: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
        for batch in upstream:
            mask = np.asarray(self.predicate(batch.keys), dtype=bool)
            if mask.shape != batch.keys.shape:
                raise WorkloadError(
                    "predicate must return one boolean per key"
                )
            if mask.any():
                yield TupleBatch(
                    keys=batch.keys[mask], indices=batch.indices[mask]
                )


class WindowOperator(Operator):
    """Tumbling windows: regroup the stream into fixed-size batches.

    "We divide the stream on-the-fly into disjoint, fixed-size batches,
    i.e., tumbling windows.  Closing the window occurs either when the
    window reaches its capacity, or no more tuples are available"
    (Section 5.1).

    The open window lives on the operator between calls, so a push
    stream (the serving layer's per-shard batcher) and a pull pipeline
    drive the same rule: :meth:`push` returns the windows a batch
    closes, :meth:`flush` closes the partial tail, and :meth:`process`
    is one push per upstream batch followed by a flush.  ``len()`` is
    the open window's tuple count.
    """

    def __init__(self, window_bytes: int):
        if window_bytes < KEY_BYTES:
            raise ConfigurationError(
                f"window must hold at least one tuple, got {window_bytes}"
            )
        self.window_tuples = max(1, window_bytes // KEY_BYTES)
        self._keys: List[np.ndarray] = []
        self._indices: List[np.ndarray] = []
        self._pending = 0

    def __len__(self) -> int:
        return self._pending

    def push(self, batch: TupleBatch) -> List[TupleBatch]:
        """Append ``batch`` to the open window; return the windows that
        reach capacity, in stream order."""
        closed: List[TupleBatch] = []
        keys, indices = batch.keys, batch.indices
        while self._pending + len(keys) >= self.window_tuples:
            take = self.window_tuples - self._pending
            self._keys.append(keys[:take])
            self._indices.append(indices[:take])
            closed.append(self._close())
            keys, indices = keys[take:], indices[take:]
        if len(keys):
            self._keys.append(keys)
            self._indices.append(indices)
            self._pending += len(keys)
        return closed

    def flush(self) -> List[TupleBatch]:
        """Close the open window early: no more tuples are available."""
        return [self._close()] if self._pending else []

    def _close(self) -> TupleBatch:
        keys, indices = self._keys, self._indices
        self._keys, self._indices, self._pending = [], [], 0
        if len(keys) == 1:
            # The window is one contiguous slice: no copy.
            return TupleBatch(keys=keys[0], indices=indices[0])
        return TupleBatch(
            keys=np.concatenate(keys), indices=np.concatenate(indices)
        )

    def process(self, upstream: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
        for batch in upstream:
            yield from self.push(batch)
        yield from self.flush()


class PartitionOperator(Operator):
    """Radix-partition each batch in place (within-window partitioning)."""

    def __init__(self, partitioner: RadixPartitioner):
        self.partitioner = partitioner

    def process(self, upstream: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
        for batch in upstream:
            output = self.partitioner.partition(
                batch.keys, source_indices=batch.indices
            )
            yield TupleBatch(keys=output.keys, indices=output.source_indices)


class IndexProbeOperator(Operator):
    """INLJ probe: look every batch key up in the index."""

    def __init__(self, index: Index):
        self.index = index

    def process(self, upstream: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
        for batch in upstream:
            positions = self.index.lookup(batch.keys)
            yield TupleBatch(
                keys=batch.keys, indices=batch.indices, positions=positions
            )


class MaterializeOperator(Operator):
    """Sink: collect matched pairs into a :class:`JoinResult`."""

    def __init__(self):
        self.result: Optional[JoinResult] = None

    def process(self, upstream: Iterator[TupleBatch]) -> Iterator[TupleBatch]:
        probe_parts: List[np.ndarray] = []
        build_parts: List[np.ndarray] = []
        for batch in upstream:
            if batch.positions is None:
                raise WorkloadError(
                    "materialize needs probed batches; add an "
                    "IndexProbeOperator upstream"
                )
            matched = batch.positions >= 0
            probe_parts.append(batch.indices[matched])
            build_parts.append(batch.positions[matched])
            yield batch
        if probe_parts:
            self.result = JoinResult(
                probe_indices=np.concatenate(probe_parts),
                build_positions=np.concatenate(build_parts),
            )
        else:
            self.result = JoinResult(
                probe_indices=np.empty(0, dtype=np.int64),
                build_positions=np.empty(0, dtype=np.int64),
            )


def _counted(
    stream: Iterator[TupleBatch], operator_name: str
) -> Iterator[TupleBatch]:
    """Wrap one operator's output stream with per-operator obs counters.

    Only installed while tracing is on (:meth:`Pipeline.run`), so the
    traced-off pull loop runs the bare generators.
    """
    for batch in stream:
        if obs.enabled():
            obs.add("pipeline.batches", operator=operator_name)
            obs.add(
                "pipeline.tuples", float(len(batch)), operator=operator_name
            )
        yield batch


class Pipeline:
    """A chain of operators executed by pulling the sink."""

    def __init__(self, operators: Iterable[Operator]):
        self.operators = list(operators)
        if not self.operators:
            raise ConfigurationError("a pipeline needs at least one operator")

    def run(self) -> JoinResult:
        """Pull every batch through; returns the sink's join result.

        The sink is validated *before* any batch is pulled: a pipeline
        missing its :class:`MaterializeOperator` fails immediately
        instead of streaming the whole input and then raising.

        While tracing is on, every operator's output stream is wrapped
        with a counting generator (``pipeline.batches`` /
        ``pipeline.tuples`` per operator) and the pull loop runs inside
        a ``pipeline.run`` span.
        """
        sink = self.operators[-1]
        if not isinstance(sink, MaterializeOperator):
            raise ConfigurationError(
                "the last operator must be a MaterializeOperator"
            )
        traced = obs.enabled()
        stream: Iterator[TupleBatch] = iter(())
        for operator in self.operators:
            stream = operator.process(stream)
            if traced:
                stream = _counted(stream, type(operator).__name__)
        with obs.span("pipeline.run", stages=len(self.operators)):
            for __ in stream:
                # Fault-injection site: a ``*@batch`` plan can raise or
                # stall mid-stream, exercising pipeline-level recovery in
                # tests.
                faults.check("batch", type(sink).__name__)
        if sink.result is None:
            raise ConfigurationError(
                "the materialize sink produced no result; was the "
                "pipeline's stream exhausted before reaching it?"
            )
        return sink.result

    def explain(self) -> str:
        """One line per stage, scan to sink."""
        return " -> ".join(type(op).__name__ for op in self.operators)


def windowed_inlj_pipeline(
    probe_keys: np.ndarray,
    index: Index,
    partitioner: RadixPartitioner,
    window_bytes: int,
    batch_tuples: int = 2**14,
    predicate: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Pipeline:
    """The paper's Section 5 dataflow as an explicit pipeline:

    scan -> [filter] -> tumbling window -> radix partition -> INLJ probe
    -> materialize.
    """
    operators: List[Operator] = [ScanOperator(probe_keys, batch_tuples)]
    if predicate is not None:
        operators.append(FilterOperator(predicate))
    operators.extend(
        [
            WindowOperator(window_bytes),
            PartitionOperator(partitioner),
            IndexProbeOperator(index),
            MaterializeOperator(),
        ]
    )
    return Pipeline(operators)
