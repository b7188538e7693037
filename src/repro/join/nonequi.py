"""Non-equi joins over the range primitive: the band join.

The band join emits every (s, r) pair with ``|s.key - r.key| <=
epsilon``.  It is built on :meth:`Index.probe_range_batch` -- the
per-key [start, end) span over the sorted base column -- so every index
structure (B+tree, binary search, Harmonia, RadixSpline) supports it
without operator-specific traversal code.  The probe's span is the
column slice covering the closed interval ``[key - epsilon, key +
epsilon]`` (saturating at the uint64 domain edges); ``epsilon == 0``
degenerates to the equi-INLJ span.

The join comes in a naive (stream-order) and a windowed-partitioned
variant.  The windowed variant is a subclass of the tumbling-window
driver :class:`~repro.join.window.WindowedJoin`, as :class:`WindowedINLJ`
is.  Range lookups within a window arrive in partition order, so the
two bound traversals sweep index pages sequentially instead of
thrashing the TLB.  The lo/hi bounds of one probe land within
``epsilon`` of each other and hit the same pages, which is why
windowing transfers to non-equi probes at full strength (the analytic
TLB model sweeps each page once per window, not once per bound).
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..config import DEFAULT_WINDOW_BYTES
from ..data.column import Column, KEY_DTYPE
from ..errors import ConfigurationError
from ..indexes.base import Index
from ..indexes.domain import saturating_band
from ..partition.radix import RadixPartitioner
from ..perf.model import QueryCost
from .base import (
    JoinResult,
    QueryEnvironment,
    RESULT_PAIR_BYTES,
    expand_spans,
    require_1d,
)
from .window import WindowedJoin


def expected_band_matches(column: Column, epsilon: int) -> float:
    """Expected matches per band probe under uniform key density.

    A band of width ``2 * epsilon`` over a column with average key gap
    ``g`` covers about ``2 * epsilon / g + 1`` keys, capped at the
    column size.  Used by the cost estimates to size the result
    materialization volume.
    """
    n = len(column)
    if n <= 1:
        return 1.0
    avg_gap = (column.max_key - column.min_key) / (n - 1)
    return min(float(n), 2.0 * float(epsilon) / max(avg_gap, 1.0) + 1.0)


class BandJoin:
    """Naive (stream-order) band join: ``|r.key - s.key| <= epsilon``."""

    name = "band join"
    variant = "naive"

    def __init__(self, index: Index, epsilon: int):
        if epsilon < 0:
            raise ConfigurationError(
                f"epsilon must be non-negative, got {epsilon}"
            )
        self.index = index
        self.epsilon = int(epsilon)

    # ------------------------------------------------------------------
    # Functional path.
    # ------------------------------------------------------------------

    def join(self, probe_keys: np.ndarray) -> JoinResult:
        """Exact band join via one fused :meth:`probe_range_batch`."""
        probe_keys = require_1d(probe_keys).astype(KEY_DTYPE)
        count = len(probe_keys)
        lo, hi = saturating_band(probe_keys, self.epsilon)
        starts = np.empty(count, dtype=np.int64)
        ends = np.empty(count, dtype=np.int64)
        self.index.probe_range_batch(lo, hi, starts, ends)
        sources = np.arange(count, dtype=np.int64)
        probe, positions = expand_spans(sources, starts, ends)
        if obs.enabled():
            obs.add(
                "join.band.probes",
                float(count),
                index=self.index.name,
                variant=self.variant,
            )
            obs.add(
                "join.band.pairs",
                float(len(probe)),
                index=self.index.name,
                variant=self.variant,
            )
        return JoinResult(probe_indices=probe, build_positions=positions)

    # ------------------------------------------------------------------
    # Simulated path.
    # ------------------------------------------------------------------

    #: Bound traversals per probe (lo and hi).
    probe_scale = 2

    def _result_bytes(self, env: QueryEnvironment) -> float:
        matches = env.workload.s_tuples * expected_band_matches(
            env.column, self.epsilon
        )
        return matches * RESULT_PAIR_BYTES

    def estimate(self, env: QueryEnvironment) -> QueryCost:
        """Cost-model throughput of the naive join.

        Like the stream-order INLJ, but every probe runs *two* scattered
        traversals (the lo and hi bounds), so traversal and TLB counters
        scale by ``2 |S|`` -- random-order bounds thrash the TLB twice.
        """
        env.check_index(self.index)
        s_tuples = env.workload.s_tuples
        counters = env.naive_probe_counters(self.probe_scale * s_tuples)
        counters.add(env.machine.scan_counters(env.s_bytes))
        counters.add(env.machine.result_counters(self._result_bytes(env)))
        counters.validate()
        return env.cost_model.price_stages([("probe", counters)])


class WindowedBandJoin(WindowedJoin):
    """Band join with windowed partitioning of the probe stream."""

    name = "windowed band join"
    variant = "windowed"

    #: Bound traversals per probe (lo and hi).
    probe_scale = 2

    def __init__(
        self,
        index: Index,
        partitioner: RadixPartitioner,
        epsilon: int,
        window_bytes: int = DEFAULT_WINDOW_BYTES,
        overlap: bool = True,
    ):
        if epsilon < 0:
            raise ConfigurationError(
                f"epsilon must be non-negative, got {epsilon}"
            )
        super().__init__(index, partitioner, window_bytes, overlap)
        self.epsilon = int(epsilon)

    def join(self, probe_keys: np.ndarray) -> JoinResult:
        """Exact band join, window by window, range probes in partition order.

        The span buffers are preallocated at ``len(probe_keys)``; each
        window's fused range probe lands at its stream offset, exactly
        like :meth:`WindowedINLJ.join`.
        """
        probe_keys = require_1d(probe_keys).astype(KEY_DTYPE)
        total = len(probe_keys)
        starts = np.empty(total, dtype=np.int64)
        ends = np.empty(total, dtype=np.int64)
        sources = np.empty(total, dtype=np.int64)
        for start, window_keys in self.windows(probe_keys):  # repro: noqa[PERF001] -- O(|S|/W) window driver around the fused kernel
            output = self.partitioner.partition(window_keys)
            lo, hi = saturating_band(output.keys, self.epsilon)
            self.index.probe_range_batch(lo, hi, starts, ends, offset=start)
            sources[start : start + len(window_keys)] = (
                output.source_indices + start
            )
        probe, positions = expand_spans(sources, starts, ends)
        if obs.enabled():
            obs.add(
                "join.band.probes",
                float(total),
                index=self.index.name,
                variant=self.variant,
            )
            obs.add(
                "join.band.pairs",
                float(len(probe)),
                index=self.index.name,
                variant=self.variant,
            )
        return JoinResult(probe_indices=probe, build_positions=positions)

    # Priced like the naive band join: the same result volume.
    _result_bytes = BandJoin._result_bytes
