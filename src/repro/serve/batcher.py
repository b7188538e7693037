"""Tumbling-window batching of per-shard probe streams.

The batcher is the serving-layer counterpart of the paper's Section 5
windowed partitioning: each shard's probe stream is cut into disjoint
fixed-size tumbling windows, closed when they reach capacity or when the
stream ends.  Each shard's stream is one :class:`WindowOperator`
holding that shard's open window; the batcher adds a window kind, and
an early close when the kind changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

import numpy as np

from ..errors import ConfigurationError, WorkloadError
from ..units import KEY_BYTES


@dataclass
class TupleBatch:
    """A batch of probe tuples: keys plus each one's stream position.

    Attributes:
        keys: probe keys.
        indices: each tuple's position in the original stream (the
            payload join results refer to).
    """

    keys: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        if len(self.keys) != len(self.indices):
            raise WorkloadError(
                "keys and indices must have equal length: "
                f"{len(self.keys)} != {len(self.indices)}"
            )

    def __len__(self) -> int:
        return len(self.keys)


class WindowOperator:
    """Tumbling windows: regroup a stream into fixed-size batches.

    "We divide the stream on-the-fly into disjoint, fixed-size batches,
    i.e., tumbling windows.  Closing the window occurs either when the
    window reaches its capacity, or no more tuples are available"
    (Section 5.1).

    The open window lives on the operator between calls: :meth:`push`
    returns the windows a batch closes, :meth:`flush` closes the partial
    tail, and :meth:`process` is one push per upstream batch followed by
    a flush.  ``len()`` is the open window's tuple count.
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

    def process(self, upstream: Iterable[TupleBatch]) -> Iterator[TupleBatch]:
        for batch in upstream:
            yield from self.push(batch)
        yield from self.flush()


@dataclass
class Window:
    """One closed tumbling window of a shard's probe stream.

    Attributes:
        shard_id: the shard whose stream this window belongs to.
        keys: probe keys in arrival order.
        indices: global stream position of each key.
        full: False only for the final, flush-closed partial window.
        deferrals: times the replicated executor parked this window to
            wait for a rebuild (capped; see ``MAX_WINDOW_DEFERRALS``).
        kind: ``"probe"`` or ``"update"`` -- windows are homogeneous
            (the batcher cuts on kind changes), so the executor never
            mixes reads and writes inside one kernel window.
        values: for update windows, the global row id each key writes;
            ``None`` for probe windows.
    """

    shard_id: int
    keys: np.ndarray
    indices: np.ndarray
    full: bool
    deferrals: int = 0
    kind: str = "probe"
    values: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.keys)


class ShardBatcher:
    """Per-shard tumbling windows over pushed probe batches."""

    def __init__(self, num_shards: int, window_bytes: int):
        if num_shards < 1:
            raise ConfigurationError(
                f"batcher needs at least one shard, got {num_shards}"
            )
        self.num_shards = num_shards
        self._operators = [
            WindowOperator(window_bytes) for _ in range(num_shards)
        ]
        #: Kind of each shard's open window.
        self._kinds = ["probe"] * num_shards

    def pending_tuples(self, shard_id: int) -> int:
        """Tuples buffered for ``shard_id`` in its open window."""
        return len(self._operators[shard_id])

    def push(
        self,
        shard_id: int,
        keys: np.ndarray,
        indices: np.ndarray,
        kind: str = "probe",
    ) -> List[Window]:
        """Append a batch to a shard's stream; return any closed windows.

        Windows stay homogeneous in ``kind``: a batch of a different
        kind first flushes the shard's open window (as an early-cut
        partial), preserving per-shard FIFO order between reads and
        writes -- the ordering the sorted-array oracle replays.
        """
        if not 0 <= shard_id < self.num_shards:
            raise ConfigurationError(
                f"shard id {shard_id} outside [0, {self.num_shards})"
            )
        if kind not in ("probe", "update"):
            raise ConfigurationError(
                f"unknown window kind {kind!r} (want 'probe' or 'update')"
            )
        if len(keys) == 0:
            return []
        windows: List[Window] = []
        if self._kinds[shard_id] != kind:
            windows.extend(self.flush(shard_id))
            self._kinds[shard_id] = kind
        batch = TupleBatch(
            keys=keys, indices=np.asarray(indices, dtype=np.int64)
        )
        windows.extend(
            self._windows(shard_id, self._operators[shard_id].push(batch))
        )
        return windows

    def flush(self, shard_id: int) -> List[Window]:
        """Close the shard's open window early ("no more tuples are
        available on the probe-side", Section 5.1)."""
        return self._windows(shard_id, self._operators[shard_id].flush())

    def flush_all(self) -> List[Window]:
        """End-of-stream flush of every shard, in shard order."""
        windows: List[Window] = []
        for shard_id in range(self.num_shards):
            windows.extend(self.flush(shard_id))
        return windows

    def _windows(
        self, shard_id: int, batches: List[TupleBatch]
    ) -> List[Window]:
        window_tuples = self._operators[shard_id].window_tuples
        return [
            Window(
                shard_id=shard_id,
                keys=batch.keys,
                indices=batch.indices,
                full=len(batch) >= window_tuples,
                kind=self._kinds[shard_id],
            )
            for batch in batches
        ]
