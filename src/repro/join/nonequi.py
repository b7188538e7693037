"""Non-equi joins over the range primitive: band join and 1-D KNN join.

Both operators are built on :meth:`Index.probe_range_batch` -- the
per-key [start, end) span over the sorted base column -- so every index
structure (B+tree, binary search, Harmonia, RadixSpline) supports
them without operator-specific traversal code:

* **band join**: emit every (s, r) pair with ``|s.key - r.key| <=
  epsilon``.  The probe's span is the column slice covering the closed
  interval ``[key - epsilon, key + epsilon]`` (saturating at the uint64
  domain edges); ``epsilon == 0`` degenerates to the equi-INLJ span.
* **1-D KNN join**: emit each probe's ``k`` nearest keys by absolute
  distance.  The span of the point probe gives the insertion position;
  a two-sided *walk-out* takes the nearer neighbour ``k`` times.  Ties
  at equal distance take the LEFT (smaller-key) candidate -- the
  documented, deterministic tie-break.

Each operator comes in a naive (stream-order) and a windowed-partitioned
variant.  The windowed variants are thin subclasses of the tumbling-window
driver :class:`~repro.join.window.WindowedJoin`, as :class:`WindowedINLJ`
is; only their per-window probe and pricing hooks differ.  Range
lookups within a window arrive in partition order, so the two bound
traversals sweep index pages sequentially instead of thrashing the TLB.
The lo/hi bounds of one probe land within ``epsilon`` of each other and
hit the same pages, which is why windowing transfers to non-equi probes
at full strength (the analytic TLB model sweeps each page once per
window, not once per bound).
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..config import DEFAULT_WINDOW_BYTES
from ..data.column import Column, KEY_DTYPE
from ..errors import ConfigurationError
from ..hardware.counters import PerfCounters
from ..indexes.base import Index
from ..indexes.domain import saturating_band
from ..partition.radix import RadixPartitioner
from ..perf.model import QueryCost
from ..units import KEY_BYTES
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


def _knn_positions(
    column: Column, keys: np.ndarray, starts: np.ndarray, k: int
) -> np.ndarray:
    """The ``k`` nearest column positions of each probe key, by walk-out.

    ``starts`` are the probes' lower-bound insertion positions.  Two
    cursors walk outward -- ``left = starts - 1`` over keys below the
    probe, ``right = starts`` over keys at/above it -- and each of the
    ``k`` steps takes the side with the smaller absolute distance.

    Tie-break (pinned by tests): at equal distance the LEFT candidate
    (the smaller key) is taken.  An exact member key sits on the right
    cursor at distance 0 and is always taken first, since the left
    distance is at least 1 over a strictly increasing column.

    Returns an ``(len(keys), min(k, len(column)))`` position matrix in
    distance order (nearest first).
    """
    n = len(column)
    count = len(keys)
    k_eff = min(k, n)
    left = starts.astype(np.int64) - 1
    right = starts.astype(np.int64).copy()
    out = np.empty((count, k_eff), dtype=np.int64)
    far = np.uint64(np.iinfo(np.uint64).max)
    for step in range(k_eff):  # repro: noqa[PERF001] -- O(k) walk-out over whole key arrays, not per key
        can_left = left >= 0
        can_right = right < n
        left_keys = column.key_at(np.where(can_left, left, 0))
        right_keys = column.key_at(np.where(can_right, right, 0))
        # Distances are exact in uint64: left keys are strictly below the
        # probe and right keys at/above it, so neither difference wraps
        # on an active cursor; inactive lanes compute garbage under the
        # errstate and are masked to "infinitely far".
        with np.errstate(over="ignore"):
            d_left = np.where(can_left, keys - left_keys, far)
            d_right = np.where(can_right, right_keys - keys, far)
        take_left = can_left & (~can_right | (d_left <= d_right))
        out[:, step] = np.where(take_left, left, right)
        left = np.where(take_left, left - 1, left)
        right = np.where(take_left, right, right + 1)
    return out


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

    def _extra_counters(
        self, env: QueryEnvironment, probes: int
    ) -> PerfCounters:
        """Operator-specific additions to the probe stage of ``probes``."""
        return PerfCounters()

    def estimate(self, env: QueryEnvironment) -> QueryCost:
        """Cost-model throughput of the naive join.

        Like the stream-order INLJ, but every probe runs *two* scattered
        traversals (the lo and hi bounds), so traversal and TLB counters
        scale by ``2 |S|`` -- random-order bounds thrash the TLB twice.
        The KNN join adds its walk-out reads through
        :meth:`_extra_counters`.
        """
        env.check_index(self.index)
        s_tuples = env.workload.s_tuples
        counters = env.naive_probe_counters(self.probe_scale * s_tuples)
        counters.add(env.machine.scan_counters(env.s_bytes))
        counters.add(env.machine.result_counters(self._result_bytes(env)))
        counters.add(self._extra_counters(env, s_tuples))
        counters.validate()
        return env.cost_model.price_stages([("probe", counters)])


class KNNJoin(BandJoin):
    """Naive 1-D KNN join: each probe's ``k`` nearest keys."""

    name = "KNN join"
    variant = "naive"

    def __init__(self, index: Index, k: int):
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        super().__init__(index, epsilon=0)
        self.k = int(k)

    def join(self, probe_keys: np.ndarray) -> JoinResult:
        """Exact KNN join: point range probe, then a ``k``-step walk-out."""
        probe_keys = require_1d(probe_keys).astype(KEY_DTYPE)
        count = len(probe_keys)
        starts = np.empty(count, dtype=np.int64)
        ends = np.empty(count, dtype=np.int64)
        # A point probe's span start is the lower-bound insertion
        # position the walk-out starts from.
        self.index.probe_range_batch(probe_keys, probe_keys, starts, ends)
        positions = _knn_positions(
            self.index.column, probe_keys, starts, self.k
        )
        k_eff = positions.shape[1]
        probe = np.repeat(np.arange(count, dtype=np.int64), k_eff)
        if obs.enabled():
            obs.add(
                "join.knn.probes",
                float(count),
                index=self.index.name,
                variant=self.variant,
            )
            obs.add(
                "join.knn.pairs",
                float(count * k_eff),
                index=self.index.name,
                variant=self.variant,
            )
        return JoinResult(
            probe_indices=probe, build_positions=positions.reshape(-1)
        )

    def _result_bytes(self, env: QueryEnvironment) -> float:
        k_eff = min(self.k, len(env.column))
        return env.workload.s_tuples * k_eff * RESULT_PAIR_BYTES

    def _extra_counters(
        self, env: QueryEnvironment, probes: int
    ) -> PerfCounters:
        """The walk-out's neighbour reads for ``probes`` probes."""
        k_eff = min(self.k, len(env.column))
        return env.machine.scan_counters(probes * k_eff * KEY_BYTES)


class _WindowedNonEqui(WindowedJoin):
    """The window-by-window range-probe join loop of both non-equi joins.

    Subclasses provide the per-window range probe (:meth:`_window_probe`)
    and turn the spans into pairs (:meth:`_finish`).
    """

    #: Bound traversals per probe (lo and hi).
    probe_scale = 2

    def _window_probe(
        self,
        window_keys: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        offset: int,
    ) -> None:
        raise NotImplementedError

    def _finish(
        self,
        probe_keys_partitioned: np.ndarray,
        sources: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
    ) -> JoinResult:
        raise NotImplementedError

    def join(self, probe_keys: np.ndarray) -> JoinResult:
        """Exact join, window by window, range probes in partition order.

        All buffers are preallocated at ``len(probe_keys)``; each
        window's fused range probe lands at its stream offset, exactly
        like :meth:`WindowedINLJ.join`.  The partitioned key stream is
        kept aligned with the span buffers so the KNN walk-out can run
        over the whole stream after the loop.
        """
        probe_keys = require_1d(probe_keys).astype(KEY_DTYPE)
        total = len(probe_keys)
        starts = np.empty(total, dtype=np.int64)
        ends = np.empty(total, dtype=np.int64)
        sources = np.empty(total, dtype=np.int64)
        permuted = np.empty(total, dtype=KEY_DTYPE)
        for start, window_keys in self.windows(probe_keys):  # repro: noqa[PERF001] -- O(|S|/W) window driver around the fused kernel
            output = self.partitioner.partition(window_keys)
            self._window_probe(output.keys, starts, ends, start)
            stop = start + len(window_keys)
            sources[start:stop] = output.source_indices + start
            permuted[start:stop] = output.keys
        return self._finish(permuted, sources, starts, ends)


class WindowedBandJoin(_WindowedNonEqui):
    """Band join with windowed partitioning of the probe stream."""

    name = "windowed band join"
    variant = "windowed"

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

    def _window_probe(self, window_keys, starts, ends, offset):
        lo, hi = saturating_band(window_keys, self.epsilon)
        self.index.probe_range_batch(lo, hi, starts, ends, offset=offset)

    def _finish(self, permuted, sources, starts, ends):
        probe, positions = expand_spans(sources, starts, ends)
        if obs.enabled():
            obs.add(
                "join.band.probes",
                float(len(sources)),
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


class WindowedKNNJoin(_WindowedNonEqui):
    """1-D KNN join with windowed partitioning of the probe stream."""

    name = "windowed KNN join"
    variant = "windowed"

    def __init__(
        self,
        index: Index,
        partitioner: RadixPartitioner,
        k: int,
        window_bytes: int = DEFAULT_WINDOW_BYTES,
        overlap: bool = True,
    ):
        if k <= 0:
            raise ConfigurationError(f"k must be positive, got {k}")
        super().__init__(index, partitioner, window_bytes, overlap)
        self.k = int(k)

    def _window_probe(self, window_keys, starts, ends, offset):
        self.index.probe_range_batch(
            window_keys, window_keys, starts, ends, offset=offset
        )

    def _finish(self, permuted, sources, starts, ends):
        positions = _knn_positions(
            self.index.column, permuted, starts, self.k
        )
        k_eff = positions.shape[1]
        probe = np.repeat(sources, k_eff)
        if obs.enabled():
            obs.add(
                "join.knn.probes",
                float(len(sources)),
                index=self.index.name,
                variant=self.variant,
            )
            obs.add(
                "join.knn.pairs",
                float(len(sources) * k_eff),
                index=self.index.name,
                variant=self.variant,
            )
        return JoinResult(
            probe_indices=probe, build_positions=positions.reshape(-1)
        )

    # Priced like the naive KNN join: the same result volume and
    # walk-out reads.
    _result_bytes = KNNJoin._result_bytes
    _extra_counters = KNNJoin._extra_counters
