"""Tumbling-window batching of per-shard probe streams.

The batcher is the serving-layer counterpart of the paper's Section 5
windowed partitioning: each shard's probe stream is cut into disjoint
fixed-size tumbling windows, closed when they reach capacity or when the
stream ends.  Window boundaries are not re-implemented -- each shard's
stream is one engine :class:`~repro.engine.pipeline.WindowOperator`
holding that shard's open window, so serving windows and pipeline
windows can never drift apart.  The batcher adds only what a pipeline
stream lacks: a window kind, and an early close when the kind changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..engine.pipeline import TupleBatch, WindowOperator
from ..errors import ConfigurationError


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
