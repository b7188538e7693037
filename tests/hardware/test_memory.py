"""Simulated memory spaces and allocator."""

import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.hardware.memory import (
    DEVICE_BASE,
    HOST_BASE,
    MemorySpace,
    SystemMemory,
)
from repro.hardware.spec import V100_NVLINK2
from repro.units import GIB


@pytest.fixture
def memory():
    return SystemMemory(V100_NVLINK2)


class TestAllocation:
    def test_host_base(self, memory):
        allocation = memory.allocate(100, MemorySpace.HOST, "x")
        assert allocation.base == HOST_BASE

    def test_device_base(self, memory):
        allocation = memory.allocate(100, MemorySpace.DEVICE, "y")
        assert allocation.base == DEVICE_BASE

    def test_spaces_are_disjoint(self, memory):
        host = memory.allocate(GIB, MemorySpace.HOST, "h")
        device = memory.allocate(GIB, MemorySpace.DEVICE, "d")
        assert host.end <= device.base or device.end <= host.base

    def test_host_alignment_is_huge_page(self, memory):
        memory.allocate(1, MemorySpace.HOST, "a")
        second = memory.allocate(1, MemorySpace.HOST, "b")
        assert second.base == HOST_BASE + V100_NVLINK2.huge_page_bytes

    def test_host_capacity_accounts_aligned_size(self, memory):
        memory.allocate(1, MemorySpace.HOST, "tiny")
        # A 1-byte allocation pins a whole 1 GiB huge page.
        assert memory.used(MemorySpace.HOST) == V100_NVLINK2.huge_page_bytes

    def test_capacity_error_host(self, memory):
        with pytest.raises(CapacityError):
            memory.allocate(
                V100_NVLINK2.cpu.memory_capacity_bytes + 1,
                MemorySpace.HOST,
                "too big",
            )

    def test_capacity_error_device(self, memory):
        with pytest.raises(CapacityError):
            memory.allocate(
                V100_NVLINK2.gpu.memory_capacity_bytes + 1,
                MemorySpace.DEVICE,
                "too big",
            )

    def test_capacity_error_cumulative(self, memory):
        half = V100_NVLINK2.gpu.memory_capacity_bytes // 2
        memory.allocate(half, MemorySpace.DEVICE, "a")
        memory.allocate(half, MemorySpace.DEVICE, "b")
        with pytest.raises(CapacityError):
            memory.allocate(1, MemorySpace.DEVICE, "c")

    def test_rejects_zero_size(self, memory):
        with pytest.raises(ConfigurationError):
            memory.allocate(0, MemorySpace.HOST, "zero")

    def test_available(self, memory):
        before = memory.available(MemorySpace.DEVICE)
        memory.allocate(GIB, MemorySpace.DEVICE, "g")
        assert memory.available(MemorySpace.DEVICE) < before


class TestAddressing:
    def test_address_of(self, memory):
        allocation = memory.allocate(100, MemorySpace.HOST, "x")
        assert allocation.address_of(10) == allocation.base + 10

    def test_address_of_bounds(self, memory):
        allocation = memory.allocate(100, MemorySpace.HOST, "x")
        with pytest.raises(ConfigurationError):
            allocation.address_of(100)

    def test_contains(self, memory):
        allocation = memory.allocate(100, MemorySpace.HOST, "x")
        assert allocation.contains(allocation.base)
        assert allocation.contains(allocation.end - 1)
        assert not allocation.contains(allocation.end)

    def test_find(self, memory):
        allocation = memory.allocate(100, MemorySpace.HOST, "x")
        assert memory.find(allocation.base + 5) is allocation

    def test_find_unmapped(self, memory):
        with pytest.raises(ConfigurationError):
            memory.find(0xDEAD)
