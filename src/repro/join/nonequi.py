"""Non-equi joins over the range primitive: band join and 1-D KNN join.

Both operators are built on :meth:`Index.probe_range_batch` -- the
per-key [start, end) span over the sorted base column -- so every index
structure (B+tree, binary search, Harmonia, RadixSpline, FAST) supports
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
variant.  The windowed variants reuse :class:`RadixPartitioner` and the
tumbling-window driver exactly as :class:`WindowedINLJ` does: range
lookups within a window arrive in partition order, so the two bound
traversals sweep index pages sequentially instead of thrashing the TLB.
The lo/hi bounds of one probe land within ``epsilon`` of each other and
hit the same pages, which is why windowing transfers to non-equi probes
at full strength (the analytic TLB model sweeps each page once per
window, not once per bound).
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple

import numpy as np

from .. import obs
from ..config import DEFAULT_WINDOW_BYTES
from ..data.column import Column, KEY_DTYPE
from ..data.generator import make_probe_keys
from ..errors import ConfigurationError, WorkloadError
from ..gpu.streams import (
    StageTiming,
    overlapped_pipeline_time,
    serial_pipeline_time,
)
from ..hardware.counters import PerfCounters
from ..hardware.memory import MemorySpace
from ..indexes.base import Index
from ..indexes.domain import saturating_band
from ..partition.radix import RadixPartitioner
from ..perf.model import QueryCost
from ..units import KEY_BYTES
from .base import JoinResult, QueryEnvironment, RESULT_PAIR_BYTES, expand_spans

#: GPU-resident window tuple: 8 B key + 8 B source index.
_WINDOW_TUPLE_BYTES = 16


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


def _require_1d(probe_keys: np.ndarray) -> np.ndarray:
    probe_keys = np.asarray(probe_keys)
    if probe_keys.ndim != 1:
        raise WorkloadError(
            f"probe keys must be one-dimensional, got {probe_keys.ndim}"
        )
    return probe_keys.astype(KEY_DTYPE)


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
        probe_keys = _require_1d(probe_keys)
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

    def _result_bytes(self, env: QueryEnvironment) -> float:
        matches = env.workload.s_tuples * expected_band_matches(
            env.column, self.epsilon
        )
        return matches * RESULT_PAIR_BYTES

    def estimate(self, env: QueryEnvironment) -> QueryCost:
        """Cost-model throughput of the naive band join.

        Like the stream-order INLJ, but every probe runs *two* scattered
        traversals (the lo and hi bounds), so traversal and TLB counters
        scale by ``2 |S|`` -- random-order bounds thrash the TLB twice.
        """
        if env.index is not self.index:
            raise WorkloadError(
                "environment was built for a different index instance"
            )
        s_tuples = float(env.workload.s_tuples)
        env.machine.reset_hierarchy()
        sample = make_probe_keys(
            env.column, env.workload, count=env.sim.probe_sample
        )
        lookup = self.index.trace_lookups(sample.keys)
        raw = env.machine.simulate_lookups(
            lookup.trace, simulate_tlb=True, shuffle=True
        )
        raw.simt_instructions = lookup.simt.warp_instructions
        raw.divergence_replays = lookup.simt.divergence_replays
        counters = env.machine.scale_lookup_counters(
            raw, 2.0 * s_tuples, replay_factor=self.index.tlb_replay_factor
        )
        counters.add(env.machine.scan_counters(env.s_bytes))
        counters.add(env.machine.result_counters(self._result_bytes(env)))
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
        probe_keys = _require_1d(probe_keys)
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

    def estimate(self, env: QueryEnvironment) -> QueryCost:
        """Naive band-join cost plus the walk-out's neighbour reads."""
        cost = super().estimate(env)
        k_eff = min(self.k, len(env.column))
        walkout = env.machine.scan_counters(
            env.workload.s_tuples * k_eff * KEY_BYTES
        )
        counters = cost.counters
        counters.add(walkout)
        counters.validate()
        return env.cost_model.price_stages([("probe", counters)])


class _WindowedNonEqui:
    """Shared tumbling-window driver and cost pipeline (Section 5 model).

    Subclasses provide the per-window probe (:meth:`_window_probe`) and
    the expected result volume (:meth:`_result_bytes`); the window
    schedule, partition stage, and overlap model are exactly
    :class:`WindowedINLJ`'s.  Per-probe traversal counters scale by two
    bounds per probe, but the analytic TLB sweep does *not* double: both
    bounds of a partitioned probe land within ``epsilon`` of each other
    and walk the same index pages, so each page is still swept once per
    window.
    """

    def __init__(
        self,
        index: Index,
        partitioner: RadixPartitioner,
        window_bytes: int = DEFAULT_WINDOW_BYTES,
        overlap: bool = True,
    ):
        if window_bytes < KEY_BYTES:
            raise ConfigurationError(
                f"window must hold at least one tuple, got {window_bytes} bytes"
            )
        self.index = index
        self.partitioner = partitioner
        self.window_bytes = window_bytes
        self.overlap = overlap

    @property
    def window_tuples(self) -> int:
        """Window capacity in probe tuples (8-byte keys)."""
        return max(1, self.window_bytes // KEY_BYTES)

    def windows(
        self, probe_keys: np.ndarray
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Tumbling windows over the probe stream: (start_index, keys)."""
        capacity = self.window_tuples
        for start in range(0, len(probe_keys), capacity):  # repro: noqa[PERF001] -- O(|S|/W) window driver, not a per-key loop
            yield start, probe_keys[start : start + capacity]

    # -- functional ----------------------------------------------------

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
        probe_keys = _require_1d(probe_keys)
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

    # -- simulated -----------------------------------------------------

    #: Bound traversals per probe (lo and hi).
    _probe_scale = 2.0

    def _result_bytes(self, env: QueryEnvironment) -> float:
        raise NotImplementedError

    def _extra_window_counters(
        self, env: QueryEnvironment, window: int
    ) -> PerfCounters:
        """Operator-specific additions to one window's probe stage."""
        return PerfCounters()

    def _window_probe_counters(self, env: QueryEnvironment) -> PerfCounters:
        """Counters of one window's range-probe kernel.

        Ordered sample + event sim for traversal work (scaled by two
        bounds per probe), analytic TLB swept once per page per window
        -- the windowed advantage the sweep measures.
        """
        window = min(self.window_tuples, env.workload.s_tuples)
        sample = env.ordered_sample(window, min(env.sim.probe_sample, window))
        env.machine.reset_hierarchy()
        lookup = self.index.trace_lookups(sample.keys)
        raw = env.machine.simulate_lookups(lookup.trace, simulate_tlb=False)
        raw.simt_instructions = lookup.simt.warp_instructions
        raw.divergence_replays = lookup.simt.divergence_replays
        counters = env.machine.scale_lookup_counters(
            raw,
            self._probe_scale * window,
            replay_factor=self.index.tlb_replay_factor,
        )
        gpu = env.spec.gpu
        sweep_pages = self.index.expected_sweep_pages(
            window_lookups=float(window),
            page_bytes=gpu.tlb_entry_bytes,
            l2_bytes=gpu.l2_bytes,
            cacheline_bytes=gpu.cacheline_bytes,
        )
        counters.add(
            env.machine.analytic_tlb_counters(
                sweep_pages, replay_factor=self.index.tlb_replay_factor
            )
        )
        window_fraction = window / env.workload.s_tuples
        counters.add(
            env.machine.result_counters(
                self._result_bytes(env) * window_fraction
            )
        )
        counters.add(self._extra_window_counters(env, window))
        return counters

    def estimate(self, env: QueryEnvironment) -> QueryCost:
        """Windowed pipeline cost: partition + range probe per window."""
        if env.index is not self.index:
            raise WorkloadError(
                "environment was built for a different index instance"
            )
        window = min(self.window_tuples, env.workload.s_tuples)
        num_windows = math.ceil(env.workload.s_tuples / window)
        # Two in-flight windows (double buffering across streams); range
        # probes carry two span buffers alongside key + source.
        env.machine.memory.allocate(
            2 * 2 * window * _WINDOW_TUPLE_BYTES,
            MemorySpace.DEVICE,
            label="window buffers",
        )
        partition_counters = env.machine.scan_counters(window * KEY_BYTES)
        partition_counters.add(
            self.partitioner.partition_counters(
                window, tuple_bytes=_WINDOW_TUPLE_BYTES
            )
        )
        probe_counters = self._window_probe_counters(env)
        cost_model = env.cost_model
        timing = StageTiming(
            partition=cost_model.probe_stage_time(partition_counters),
            probe=cost_model.probe_stage_time(probe_counters),
            launch_overhead=cost_model.constants.kernel_launch_seconds,
        )
        timings = [timing] * num_windows
        if self.overlap:
            seconds = overlapped_pipeline_time(timings)
        else:
            seconds = serial_pipeline_time(timings)
        totals = PerfCounters()
        per_window = PerfCounters()
        per_window.add(partition_counters)
        per_window.add(probe_counters)
        totals.add(per_window.scaled(num_windows))
        return QueryCost(
            seconds=seconds,
            breakdown={
                "window_partition": timing.partition,
                "window_probe": timing.probe,
                "num_windows": float(num_windows),
            },
            counters=totals,
        )


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

    def _result_bytes(self, env: QueryEnvironment) -> float:
        matches = env.workload.s_tuples * expected_band_matches(
            env.column, self.epsilon
        )
        return matches * RESULT_PAIR_BYTES


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

    def _result_bytes(self, env: QueryEnvironment) -> float:
        k_eff = min(self.k, len(env.column))
        return env.workload.s_tuples * k_eff * RESULT_PAIR_BYTES

    def _extra_window_counters(
        self, env: QueryEnvironment, window: int
    ) -> PerfCounters:
        """The walk-out's neighbour reads for this window's probes."""
        k_eff = min(self.k, len(env.column))
        return env.machine.scan_counters(window * k_eff * KEY_BYTES)
