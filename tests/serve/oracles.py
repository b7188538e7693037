"""Reference implementations the serve-layer tests check against.

:func:`merge_newest_wins` is the merge the delta tier was first written
with: concatenate the run and the batch, stable-argsort the whole lot and
keep the last entry of each key.  It sorts the whole run on every call
and needs no precondition on either input.  The library's merge sorts
only the batch and lands it in the strictly increasing run with one
``searchsorted``; the tests require identical keys and values.

:class:`ShardBatcher` is the batcher as first written: it keeps each
shard's pending batches itself and, on every cut, runs a fresh pull-only
window pass (:func:`tumbling_windows`, the engine's original loop) over
them, putting the open tail back.  The library's batcher keeps one
stateful window operator per shard; the tests require the same windows
and the same pending counts after every call.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.data.column import KEY_DTYPE
from repro.engine.pipeline import TupleBatch
from repro.serve.batcher import Window
from repro.units import KEY_BYTES


def merge_newest_wins(
    base_keys: np.ndarray,
    base_values: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two key/value runs; later entries override earlier ones."""
    all_keys = np.concatenate(
        [np.asarray(base_keys, dtype=KEY_DTYPE),
         np.asarray(keys, dtype=KEY_DTYPE)]
    )
    all_values = np.concatenate(
        [np.asarray(base_values, dtype=np.int64),
         np.asarray(values, dtype=np.int64)]
    )
    # Stable sort keeps arrival order within equal keys, so keep-last
    # per key group implements newest-wins.
    order = np.argsort(all_keys, kind="stable")
    sorted_keys = all_keys[order]
    sorted_values = all_values[order]
    keep = np.empty(len(sorted_keys), dtype=bool)
    if len(sorted_keys):
        keep[:-1] = sorted_keys[1:] != sorted_keys[:-1]
        keep[-1] = True
    return sorted_keys[keep], sorted_values[keep]



def tumbling_windows(
    upstream: Iterable[TupleBatch], window_tuples: int
) -> List[TupleBatch]:
    """Regroup a finite stream into windows, the last one partial."""
    windows: List[TupleBatch] = []
    pending_keys: List[np.ndarray] = []
    pending_indices: List[np.ndarray] = []
    pending = 0
    for batch in upstream:
        keys, indices = batch.keys, batch.indices
        while pending + len(keys) >= window_tuples:
            take = window_tuples - pending
            if pending_keys:
                pending_keys.append(keys[:take])
                pending_indices.append(indices[:take])
                windows.append(
                    TupleBatch(
                        keys=np.concatenate(pending_keys),
                        indices=np.concatenate(pending_indices),
                    )
                )
                pending_keys, pending_indices, pending = [], [], 0
            else:
                windows.append(
                    TupleBatch(keys=keys[:take], indices=indices[:take])
                )
            keys, indices = keys[take:], indices[take:]
        if len(keys):
            pending_keys.append(keys)
            pending_indices.append(indices)
            pending += len(keys)
    if len(pending_keys) == 1:
        windows.append(
            TupleBatch(keys=pending_keys[0], indices=pending_indices[0])
        )
    elif pending:
        windows.append(
            TupleBatch(
                keys=np.concatenate(pending_keys),
                indices=np.concatenate(pending_indices),
            )
        )
    return windows


class ShardBatcher:
    """Per-shard tumbling windows, re-cut from pending batches."""

    def __init__(self, num_shards: int, window_bytes: int):
        self.num_shards = num_shards
        self.window_tuples = max(1, window_bytes // KEY_BYTES)
        self._pending: Dict[int, List[TupleBatch]] = {
            shard: [] for shard in range(num_shards)
        }
        self._pending_tuples = np.zeros(num_shards, dtype=np.int64)
        self._pending_kind: Dict[int, str] = {
            shard: "probe" for shard in range(num_shards)
        }

    def pending_tuples(self, shard_id: int) -> int:
        return int(self._pending_tuples[shard_id])

    def push(
        self,
        shard_id: int,
        keys: np.ndarray,
        indices: np.ndarray,
        kind: str = "probe",
    ) -> List[Window]:
        if len(keys) == 0:
            return []
        windows: List[Window] = []
        if self._pending[shard_id] and self._pending_kind[shard_id] != kind:
            windows.extend(self._cut(shard_id, ended=True))
        self._pending_kind[shard_id] = kind
        self._pending[shard_id].append(
            TupleBatch(keys=keys, indices=np.asarray(indices, dtype=np.int64))
        )
        self._pending_tuples[shard_id] += len(keys)
        if self._pending_tuples[shard_id] >= self.window_tuples:
            windows.extend(self._cut(shard_id, ended=False))
        return windows

    def flush(self, shard_id: int) -> List[Window]:
        return self._cut(shard_id, ended=True)

    def flush_all(self) -> List[Window]:
        windows: List[Window] = []
        for shard_id in range(self.num_shards):
            windows.extend(self.flush(shard_id))
        return windows

    def _cut(self, shard_id: int, ended: bool) -> List[Window]:
        pending = self._pending[shard_id]
        if not pending:
            return []
        cut = tumbling_windows(pending, self.window_tuples)
        self._pending[shard_id] = []
        self._pending_tuples[shard_id] = 0
        windows: List[Window] = []
        for batch in cut:
            if len(batch) < self.window_tuples and not ended:
                # The open tail: put it back for the next push.
                self._pending[shard_id] = [batch]
                self._pending_tuples[shard_id] = len(batch)
                break
            windows.append(
                Window(
                    shard_id=shard_id,
                    keys=batch.keys,
                    indices=batch.indices,
                    full=len(batch) >= self.window_tuples,
                    kind=self._pending_kind[shard_id],
                )
            )
        return windows
