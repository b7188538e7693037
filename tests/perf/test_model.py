"""Cost model pricing."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.counters import PerfCounters
from repro.hardware.spec import A100_PCIE4, V100_NVLINK2
from repro.perf.model import CalibrationConstants, CostModel, QueryCost
from repro.units import GB, GIB


@pytest.fixture
def model():
    return CostModel(V100_NVLINK2)


def counters_with(**kwargs):
    counters = PerfCounters()
    for key, value in kwargs.items():
        setattr(counters, key, value)
    return counters


class TestResourceTimes:
    def test_scan_capped_by_cpu_bandwidth(self, model):
        # POWER9 memory (110 GB/s) beats NVLink 2.0 (75 GB/s), so the
        # link is the scan bottleneck here.
        seconds = model.scan_time(75 * GB)
        assert seconds == pytest.approx(1.0, rel=0.01)

    def test_scan_cpu_bound_on_fast_links(self):
        from repro.hardware.spec import GH200_C2C

        model = CostModel(GH200_C2C)
        # NVLink C2C (450 GB/s) exceeds Grace memory bandwidth (384 GB/s):
        # the CPU side caps the scan (paper Section 2.1).
        seconds = model.scan_time(384 * GB)
        assert seconds == pytest.approx(1.0, rel=0.01)

    def test_zero_inputs(self, model):
        assert model.scan_time(0) == 0.0
        assert model.remote_random_time(0) == 0.0
        assert model.gpu_memory_time(0) == 0.0
        assert model.compute_time(0) == 0.0
        assert model.translation_stall_time(0) == 0.0

    def test_gpu_random_slower_than_bulk(self, model):
        assert model.gpu_memory_time(GIB, random=True) > model.gpu_memory_time(
            GIB, random=False
        )

    def test_translation_stall_is_three_us_over_concurrency(self, model):
        requests = 1_000_000
        expected = requests * 3e-6 / model.constants.translation_concurrency
        assert model.translation_stall_time(requests) == pytest.approx(expected)


class TestStagePricing:
    def test_roofline_takes_max(self, model):
        interconnect_heavy = counters_with(remote_accesses=1e9)
        combined = counters_with(
            remote_accesses=1e9, gpu_memory_bytes=1.0, simt_instructions=1.0
        )
        assert model.probe_stage_time(combined) == pytest.approx(
            model.probe_stage_time(interconnect_heavy), rel=0.01
        )

    def test_stall_adds_on_top(self, model):
        base = counters_with(remote_accesses=1e9)
        stalled = counters_with(
            remote_accesses=1e9, translation_requests=1e8
        )
        assert model.probe_stage_time(stalled) > model.probe_stage_time(base)

    def test_price_stages_sums(self, model):
        a = counters_with(remote_accesses=1e8)
        b = counters_with(scan_bytes=GIB)
        cost = model.price_stages([("first", a), ("second", b)])
        assert cost.seconds == pytest.approx(
            cost.breakdown["first"] + cost.breakdown["second"]
        )
        assert cost.counters.remote_accesses == 1e8
        assert cost.counters.scan_bytes == GIB

    def test_launch_overhead_per_stage(self, model):
        empty = PerfCounters()
        one = model.price_stages([("a", empty)]).seconds
        two = model.price_stages([("a", empty), ("b", empty)]).seconds
        assert two == pytest.approx(
            one + model.constants.kernel_launch_seconds, rel=0.01
        )


class TestQueryCost:
    def test_throughput(self):
        assert QueryCost(seconds=0.5).queries_per_second == 2.0

    def test_zero_seconds(self):
        assert QueryCost(seconds=0.0).queries_per_second == float("inf")


class TestCrossMachine:
    def test_pcie_random_fetches_cost_more(self):
        v100 = CostModel(V100_NVLINK2)
        a100 = CostModel(A100_PCIE4)
        counters = counters_with(remote_accesses=1e8)
        assert a100.probe_stage_time(counters) > v100.probe_stage_time(counters)

    def test_a100_gpu_memory_faster(self):
        v100 = CostModel(V100_NVLINK2)
        a100 = CostModel(A100_PCIE4)
        counters = counters_with(
            gpu_memory_accesses=1e9, gpu_memory_bytes=32e9
        )
        assert a100.probe_stage_time(counters) < v100.probe_stage_time(counters)


class TestCalibrationConstants:
    def test_defaults_positive(self):
        constants = CalibrationConstants()
        assert constants.translation_concurrency > 0

    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            CalibrationConstants(translation_concurrency=0)
        with pytest.raises(ConfigurationError):
            CalibrationConstants(hash_probe_accesses=-1)
