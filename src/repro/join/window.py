"""Windowed-partitioning INLJ -- the paper's contribution (Section 5).

The probe stream is divided on the fly into disjoint, fixed-size batches
(*tumbling windows*).  When a window closes -- it reaches capacity or the
stream ends -- its tuples are radix-partitioned and handed to the INLJ,
restoring the pipeline while keeping the TLB hit rate of Section 4.

Two GPU optimizations from Section 5.1 are modelled:

* *concurrent kernel execution*: two CUDA streams overlap window ``i``'s
  probe with window ``i+1``'s partition (transfer-compute overlap);
* *window size tuning*: small windows lose overlap efficiency and amortize
  page sweeps over fewer tuples; large windows approach full
  materialization.  The tension produces Fig. 7's optimum.
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple

import numpy as np

from ..config import DEFAULT_WINDOW_BYTES
from ..errors import ConfigurationError
from ..gpu.streams import (
    StageTiming,
    overlapped_pipeline_time,
    serial_pipeline_time,
)
from ..hardware.counters import PerfCounters
from ..hardware.memory import MemorySpace
from ..indexes.base import Index
from ..partition.radix import RadixPartitioner
from ..perf.model import QueryCost
from ..units import KEY_BYTES
from .base import JoinResult, QueryEnvironment, require_1d

#: GPU-resident window tuple: 8 B key + 8 B source index.
_WINDOW_TUPLE_BYTES = 16


class WindowedJoin:
    """Tumbling-window driver and cost pipeline of every windowed join.

    Subclasses provide :meth:`join` and two pricing hooks:
    :attr:`probe_scale` and :meth:`_result_bytes`.  The window
    schedule, partition stage and overlap model are shared.
    """

    #: Index traversals per probe: 1 for a point probe, 2 for a range
    #: probe (its lo and hi bounds).  The analytic TLB sweep does not
    #: scale with it: both bounds walk the same pages.
    probe_scale = 1

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
        """Window capacity in probe tuples (8-byte keys, Section 3.2)."""
        return max(1, self.window_bytes // KEY_BYTES)

    # ------------------------------------------------------------------
    # Functional path.
    # ------------------------------------------------------------------

    def windows(self, probe_keys: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
        """Tumbling windows over the probe stream: (start_index, keys).

        The final window closes early when "no more tuples are available
        on the probe-side of the join" (Section 5.1).
        """
        capacity = self.window_tuples
        for start in range(0, len(probe_keys), capacity):  # repro: noqa[PERF001] -- O(|S|/W) window driver, not a per-key loop
            yield start, probe_keys[start : start + capacity]

    # ------------------------------------------------------------------
    # Simulated path.
    # ------------------------------------------------------------------

    def _result_bytes(self, env: QueryEnvironment) -> float:
        """Result materialization volume of the whole probe side."""
        return env.result_bytes()

    def _window_probe_counters(self, env: QueryEnvironment) -> PerfCounters:
        """Counters of one window's probe kernel (event sim + analytic TLB)."""
        window = min(self.window_tuples, env.workload.s_tuples)
        counters = env.ordered_probe_counters(
            window, self.probe_scale * window
        )
        window_fraction = window / env.workload.s_tuples
        counters.add(
            env.machine.result_counters(
                self._result_bytes(env) * window_fraction
            )
        )
        return counters

    def estimate(self, env: QueryEnvironment) -> QueryCost:
        """Cost-model throughput of the windowed join.

        Prices one representative window's two stages, then schedules
        ``ceil(|S| / W)`` windows on one or two streams.  Neither input is
        materialized: device memory holds only the in-flight window
        buffers.
        """
        env.check_index(self.index)
        window = min(self.window_tuples, env.workload.s_tuples)
        num_windows = math.ceil(env.workload.s_tuples / window)
        # Two in-flight windows (double buffering across streams).
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


class WindowedINLJ(WindowedJoin):
    """INLJ with on-the-fly windowed partitioning of the probe stream."""

    name = "windowed INLJ"

    def join(self, probe_keys: np.ndarray) -> JoinResult:
        """Exact join, window by window, lookups in partition order.

        Both result columns are written into buffers preallocated at
        ``len(probe_keys)``: each window's fused :meth:`probe_batch`
        lands directly at its stream offset, so the loop allocates
        nothing per window and there is no final concatenation.  Result
        rows keep the historical order -- partition order within each
        window, windows in stream order.
        """
        probe_keys = require_1d(probe_keys)
        total = len(probe_keys)
        positions = np.empty(total, dtype=np.int64)
        sources = np.empty(total, dtype=np.int64)
        for start, window_keys in self.windows(probe_keys):  # repro: noqa[PERF001] -- O(|S|/W) window driver around the fused kernel
            output = self.partitioner.partition(window_keys)
            self.index.probe_batch(output.keys, positions, offset=start)
            sources[start : start + len(window_keys)] = (
                output.source_indices + start
            )
        matched = positions >= 0
        return JoinResult(
            probe_indices=sources[matched],
            build_positions=positions[matched],
        )
