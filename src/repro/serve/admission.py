"""Admission control: bounded per-shard backlogs with backpressure.

A serving system that accepts every request merely moves the overload
into its queues; latency then grows without bound while throughput stays
flat.  The admission controller caps the number of probe tuples queued
per shard (buffered in the batcher's open window, waiting in closed
windows, or executing).  A request is admitted *atomically*: if any
shard it touches would exceed its backlog bound, the whole request is
rejected -- partial admission would return partial answers, which the
differential oracle (and any real client) cannot use.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import ConfigurationError


class AdmissionController:
    """Tuple-bounded per-shard backlog accounting."""

    def __init__(self, num_shards: int, max_backlog_tuples: int):
        if num_shards < 1:
            raise ConfigurationError(
                f"admission needs at least one shard, got {num_shards}"
            )
        if max_backlog_tuples < 1:
            raise ConfigurationError(
                "per-shard backlog bound must be positive, got "
                f"{max_backlog_tuples}"
            )
        self.max_backlog_tuples = max_backlog_tuples
        self._backlog = np.zeros(num_shards, dtype=np.int64)
        self.admitted_requests = 0
        self.rejected_requests = 0

    def try_admit(self, parts: List[Tuple[int, np.ndarray, np.ndarray]]) -> bool:
        """Admit a split request whole, or reject it whole.

        ``parts`` is the routing output: (shard_id, keys, indices)
        tuples.  On admission every touched shard's backlog grows by its
        share; on rejection nothing changes (backpressure -- the client
        must retry later).
        """
        for shard_id, keys, _ in parts:
            if self._backlog[shard_id] + len(keys) > self.max_backlog_tuples:
                self.rejected_requests += 1
                return False
        for shard_id, keys, _ in parts:
            self._backlog[shard_id] += len(keys)
        self.admitted_requests += 1
        return True

    def drain(self, shard_id: int, tuples: int) -> None:
        """Release backlog after a window of ``tuples`` completes."""
        if tuples < 0:
            raise ConfigurationError(
                f"cannot drain a negative tuple count: {tuples}"
            )
        if tuples > self._backlog[shard_id]:
            raise ConfigurationError(
                f"drain of {tuples} exceeds shard {shard_id} backlog "
                f"{int(self._backlog[shard_id])}"
            )
        self._backlog[shard_id] -= tuples
