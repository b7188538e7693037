"""Simulated hardware substrate: GPUs, interconnects, TLBs, caches, memory.

The paper's experiments run on an IBM POWER9 + NVIDIA V100 (NVLink 2.0)
machine and an A100 (PCIe 4.0) machine.  This package models the
architectural features those experiments exercise:

* interconnect bandwidth/latency and cacheline-granularity remote access
  (:mod:`repro.hardware.interconnect`),
* the GPU last-level TLB whose 32 GiB range causes the paper's throughput
  cliff, and the set-associative L2 that absorbs upper index levels, both
  exact LRU models replayed in batches (:mod:`repro.hardware.fastlru`),
* host/device address spaces (:mod:`repro.hardware.memory`), and
* hardware performance counters (:mod:`repro.hardware.counters`)
  standing in for the POWER9 translation-request counters.

Machine presets matching the paper's Table 1 live in
:mod:`repro.hardware.spec`.
"""

from .counters import PerfCounters
from .spec import (
    CpuSpec,
    GpuSpec,
    InterconnectSpec,
    SystemSpec,
    A100_PCIE4,
    GH200_C2C,
    MI250X_IF3,
    PCIE4,
    PCIE5,
    NVLINK2,
    NVLINK_C2C,
    INFINITY_FABRIC3,
    V100_NVLINK2,
    TABLE1_INTERCONNECTS,
)
from .interconnect import InterconnectModel
from .memory import Allocation, MemorySpace, SystemMemory

__all__ = [
    "PerfCounters",
    "CpuSpec",
    "GpuSpec",
    "InterconnectSpec",
    "SystemSpec",
    "A100_PCIE4",
    "GH200_C2C",
    "MI250X_IF3",
    "PCIE4",
    "PCIE5",
    "NVLINK2",
    "NVLINK_C2C",
    "INFINITY_FABRIC3",
    "V100_NVLINK2",
    "TABLE1_INTERCONNECTS",
    "InterconnectModel",
    "Allocation",
    "MemorySpace",
    "SystemMemory",
]
