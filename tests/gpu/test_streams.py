"""CUDA-stream overlap scheduling."""

import pytest

from repro.errors import ConfigurationError
from repro.gpu.streams import (
    StageTiming,
    overlapped_pipeline_time,
    serial_pipeline_time,
)


def uniform_windows(num_windows, partition, probe, launch_overhead=0.0):
    """``num_windows`` identical stage timings, as the windowed joins
    schedule them."""
    timing = StageTiming(
        partition=partition, probe=probe, launch_overhead=launch_overhead
    )
    return [timing] * num_windows


class TestSerial:
    def test_empty(self):
        assert serial_pipeline_time([]) == 0.0

    def test_sums_everything(self):
        windows = uniform_windows(3, 1.0, 2.0, launch_overhead=0.5)
        assert serial_pipeline_time(windows) == pytest.approx(3 * (1 + 2 + 1))


class TestOverlapped:
    def test_empty(self):
        assert overlapped_pipeline_time([]) == 0.0

    def test_single_window_cannot_overlap(self):
        windows = uniform_windows(1, 1.0, 2.0)
        assert overlapped_pipeline_time(windows) == pytest.approx(3.0)

    def test_steady_state_hides_faster_stage(self):
        # Probe dominates: makespan = first partition + N probes.
        windows = uniform_windows(10, 1.0, 5.0)
        assert overlapped_pipeline_time(windows) == pytest.approx(1 + 10 * 5)

    def test_partition_bound_pipeline(self):
        # Partition dominates: makespan = N partitions + last probe.
        windows = uniform_windows(10, 5.0, 1.0)
        assert overlapped_pipeline_time(windows) == pytest.approx(10 * 5 + 1)

    def test_never_slower_than_serial(self):
        windows = [
            StageTiming(partition=p, probe=q, launch_overhead=0.1)
            for p, q in ((1, 3), (4, 1), (2, 2), (0.5, 5))
        ]
        assert overlapped_pipeline_time(windows) <= serial_pipeline_time(
            windows
        ) + 1e-12

    def test_never_faster_than_critical_path(self):
        windows = [
            StageTiming(partition=p, probe=q)
            for p, q in ((1, 3), (4, 1), (2, 2))
        ]
        total_probe = sum(w.probe for w in windows)
        total_partition = sum(w.partition for w in windows)
        makespan = overlapped_pipeline_time(windows)
        assert makespan >= max(total_probe, total_partition)

    def test_heterogeneous_hand_computed(self):
        # partition: [2, 1], probe: [1, 4]
        # partition done: 2, 3; probe done: max(2,0)+1=3, max(3,3)+4=7.
        windows = [StageTiming(2, 1), StageTiming(1, 4)]
        assert overlapped_pipeline_time(windows) == pytest.approx(7.0)


class TestValidation:
    def test_negative_stage_rejected(self):
        with pytest.raises(ConfigurationError):
            StageTiming(partition=-1.0, probe=1.0)

    def test_negative_overhead_rejected(self):
        with pytest.raises(ConfigurationError):
            StageTiming(partition=1.0, probe=1.0, launch_overhead=-0.1)
