"""Interconnect transfer-time model."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.interconnect import InterconnectModel
from repro.hardware.spec import NVLINK2, PCIE4
from repro.units import GB


@pytest.fixture
def nvlink():
    return InterconnectModel(NVLINK2)


@pytest.fixture
def pcie():
    return InterconnectModel(PCIE4)


class TestBandwidths:
    def test_sequential_is_peak(self, nvlink):
        assert nvlink.sequential_bandwidth == NVLINK2.bandwidth_bytes

    def test_random_is_derated(self, nvlink):
        assert nvlink.random_bandwidth == pytest.approx(
            NVLINK2.bandwidth_bytes * NVLINK2.random_efficiency
        )

    def test_nvlink_random_beats_pcie(self, nvlink, pcie):
        # The motivation for out-of-core index lookups (Section 5.2.3).
        assert nvlink.random_bandwidth > 2 * pcie.random_bandwidth


class TestRandomTime:
    def test_zero_accesses(self, nvlink):
        assert nvlink.random_time(0) == 0.0

    def test_accounts_cacheline_granularity(self, nvlink):
        # One million random fetches move 128 MB regardless of useful bytes.
        accesses = 1_000_000
        expected = accesses * 128 / nvlink.random_bandwidth
        assert nvlink.random_time(accesses) == pytest.approx(
            expected + NVLINK2.latency_seconds
        )

    def test_random_slower_than_sequential_per_byte(self, nvlink):
        bytes_moved = 10 * GB
        accesses = bytes_moved / 128
        streamed = NVLINK2.latency_seconds + bytes_moved / (
            nvlink.sequential_bandwidth
        )
        assert nvlink.random_time(accesses) > streamed

    def test_rejects_negative(self, nvlink):
        with pytest.raises(ConfigurationError):
            nvlink.random_time(-1)


class TestTranslationTime:
    def test_three_microseconds_each(self, nvlink):
        # One request with no overlap costs the full round trip.
        assert nvlink.translation_time(1, concurrency=1) == pytest.approx(3e-6)

    def test_overlap_divides(self, nvlink):
        assert nvlink.translation_time(600, concurrency=600) == pytest.approx(
            3e-6
        )

    def test_zero_requests(self, nvlink):
        assert nvlink.translation_time(0, concurrency=10) == 0.0

    def test_rejects_bad_concurrency(self, nvlink):
        with pytest.raises(ConfigurationError):
            nvlink.translation_time(1, concurrency=0)

    def test_rejects_negative_requests(self, nvlink):
        with pytest.raises(ConfigurationError):
            nvlink.translation_time(-1, concurrency=1)


def test_rejects_bad_cacheline():
    with pytest.raises(ConfigurationError):
        InterconnectModel(NVLINK2, cacheline_bytes=0)
