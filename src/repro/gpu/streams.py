"""CUDA-stream overlap scheduling.

Windowed partitioning runs a pipeline of kernels per window: read/partition
the window, then probe the index (Section 5.1).  "If kernels were to run
consecutively, the interconnect would be underutilized.  Therefore, we
achieve transfer-compute overlap by permitting the GPU to execute two CUDA
streams simultaneously."

This module computes pipeline makespans for the two policies:

* serial -- one stream, stages run back to back;
* overlapped -- two streams, window ``i+1``'s partition stage runs
  concurrently with window ``i``'s probe stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigurationError


@dataclass(frozen=True)
class StageTiming:
    """Durations of one window's pipeline stages, in seconds.

    Attributes:
        partition: window ingest + radix partition kernel time.
        probe: INLJ probe kernel time (index traversal + result write).
        launch_overhead: fixed per-window kernel launch cost, paid once per
            stage.
    """

    partition: float
    probe: float
    launch_overhead: float = 0.0

    def __post_init__(self) -> None:
        for name in ("partition", "probe", "launch_overhead"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be non-negative: {value}")


def serial_pipeline_time(windows: Sequence[StageTiming]) -> float:
    """Makespan with a single stream: every stage strictly in order."""
    total = 0.0
    for window in windows:
        total += window.partition + window.probe + 2 * window.launch_overhead
    return total


def overlapped_pipeline_time(windows: Sequence[StageTiming]) -> float:
    """Makespan with two streams overlapping partition and probe stages.

    Classic two-stage pipeline: the probe of window ``i`` and the partition
    of window ``i+1`` execute concurrently.  Stage ``probe[i]`` can start
    only when both ``partition[i]`` and ``probe[i-1]`` are done:

        ready_partition[i] = ready_partition[i-1] + partition[i]
        ready_probe[i]     = max(ready_partition[i], ready_probe[i-1]) + probe[i]

    The makespan is the last probe's completion.  Both stages contend for
    the same hardware only through their modeled durations; the cost model
    charges shared-resource conflicts (e.g. interconnect) before this point.
    """
    partition_done = 0.0
    probe_done = 0.0
    for window in windows:
        partition_done = partition_done + window.partition + window.launch_overhead
        probe_done = (
            max(partition_done, probe_done) + window.probe + window.launch_overhead
        )
    return probe_done

