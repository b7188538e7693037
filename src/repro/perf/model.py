"""Cost model: performance counters -> query time on a machine.

The model is a per-stage roofline.  A kernel's duration is the maximum of
the resources it keeps busy -- interconnect traffic, GPU memory traffic,
and SIMT issue slots -- plus the part of the TLB translation stall the GPU
cannot hide (translation requests cost ~3 us each and only a limited
number are outstanding; Section 3.3.2 / Lutz et al. [30]).

Calibration constants are collected in :class:`CalibrationConstants` with
their provenance.  They tune *absolute* numbers; every *shape* the paper
reports (the 32 GiB cliff, the partitioning recovery, the index ranking,
the crossovers) emerges from counters, not from these constants -- tests
in ``tests/perf`` pin that separation down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import ConfigurationError
from ..hardware.counters import PerfCounters
from ..hardware.interconnect import InterconnectModel
from ..hardware.spec import SystemSpec
from ..units import MICROSECOND


@dataclass(frozen=True)
class CalibrationConstants:
    """Tunable absolute-scale constants of the cost model.

    Attributes:
        instructions_per_step: machine instructions per traversal step
            (compare + address arithmetic + branch) priced against SM
            issue bandwidth.
        translation_concurrency: address-translation requests the GPU MMU
            keeps in flight; the 3 us round-trips overlap up to this
            factor.  Calibrated jointly with the replay factors against
            the paper's worst-case naive-INLJ throughput drop ("up to
            16.7x", Section 6) and the requirement that no naive INLJ
            outperforms the hash join at 111 GiB (Fig. 3).
        kernel_launch_seconds: fixed cost per kernel launch; bounds how
            small a partitioning window can usefully be (Fig. 7).
        gpu_sector_bytes: granularity of a random GPU-memory transaction.
        hash_probe_accesses: expected device-memory accesses per hash-table
            probe at 50% load factor (bucket fetch + value fetch).
        hash_build_accesses: expected device-memory accesses per inserted
            build key.
        partition_passes: device-memory passes of the radix partitioner
            (histogram + scatter; the SWWC partitioner of Stehle &
            Jacobsen [46] is two-pass).
    """

    instructions_per_step: float = 10.0
    translation_concurrency: float = 600.0
    kernel_launch_seconds: float = 10.0 * MICROSECOND
    gpu_sector_bytes: float = 32.0
    hash_probe_accesses: float = 4.0
    hash_build_accesses: float = 2.5
    partition_passes: float = 2.0

    def __post_init__(self) -> None:
        for name in (
            "instructions_per_step",
            "translation_concurrency",
            "kernel_launch_seconds",
            "gpu_sector_bytes",
            "hash_probe_accesses",
            "hash_build_accesses",
            "partition_passes",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )


DEFAULT_CALIBRATION = CalibrationConstants()


@dataclass
class QueryCost:
    """A priced query: total seconds plus a component breakdown."""

    seconds: float
    breakdown: Dict[str, float] = field(default_factory=dict)
    counters: PerfCounters = field(default_factory=PerfCounters)

    @property
    def queries_per_second(self) -> float:
        """The paper's throughput metric (Q/s)."""
        if self.seconds <= 0:
            return float("inf")
        return 1.0 / self.seconds


class CostModel:
    """Prices counters into seconds for one machine."""

    def __init__(
        self,
        spec: SystemSpec,
        constants: CalibrationConstants = DEFAULT_CALIBRATION,
    ):
        self.spec = spec
        self.constants = constants
        self.interconnect = InterconnectModel(
            spec.interconnect, cacheline_bytes=spec.gpu.cacheline_bytes
        )

    # ------------------------------------------------------------------
    # Resource times.
    # ------------------------------------------------------------------

    def scan_time(self, num_bytes: float) -> float:
        """Sequential host->GPU transfer, bounded by CPU memory bandwidth.

        "CPU memory bandwidth becomes the limiting factor" for table scans
        over a fast interconnect (Section 1).
        """
        if num_bytes <= 0:
            return 0.0
        effective = min(
            self.interconnect.sequential_bandwidth,
            self.spec.cpu.memory_bandwidth_bytes,
        )
        return self.spec.interconnect.latency_seconds + num_bytes / effective

    def remote_random_time(self, num_accesses: float) -> float:
        """Data-dependent cacheline fetches from host memory."""
        return self.interconnect.random_time(num_accesses)

    def gpu_memory_time(self, num_bytes: float, random: bool = False) -> float:
        """Device-memory traffic (bulk or random-sector)."""
        if num_bytes <= 0:
            return 0.0
        bandwidth = self.spec.gpu.memory_bandwidth_bytes
        if random:
            bandwidth *= self.spec.gpu.memory_random_efficiency
        return num_bytes / bandwidth

    def compute_time(self, warp_instructions: float) -> float:
        """SIMT issue time: each SM issues one warp instruction per cycle."""
        if warp_instructions <= 0:
            return 0.0
        issue_rate = self.spec.gpu.sm_count * self.spec.gpu.clock_hz
        return (
            warp_instructions
            * self.constants.instructions_per_step
            / issue_rate
        )

    def translation_stall_time(self, num_requests: float) -> float:
        """Unhidden part of address-translation round trips."""
        return self.interconnect.translation_time(
            num_requests, self.constants.translation_concurrency
        )

    # ------------------------------------------------------------------
    # Stage pricing.
    # ------------------------------------------------------------------

    def probe_stage_time(self, counters: PerfCounters) -> float:
        """Duration of an index-probe kernel described by ``counters``.

        Roofline over the interconnect (random fetches + any scan share),
        GPU memory, and SIMT compute; the TLB stall adds on top because a
        translation blocks the very accesses that would otherwise overlap.
        """
        random_accesses = counters.remote_accesses
        scan_bytes = counters.scan_bytes
        interconnect_time = self.remote_random_time(random_accesses)
        if scan_bytes > 0:
            interconnect_time += self.scan_time(scan_bytes)
        gpu_random_bytes = (
            counters.gpu_memory_accesses * self.constants.gpu_sector_bytes
        )
        gpu_bulk_bytes = max(
            0.0, counters.gpu_memory_bytes - gpu_random_bytes
        )
        gpu_time = self.gpu_memory_time(
            gpu_random_bytes, random=True
        ) + self.gpu_memory_time(gpu_bulk_bytes, random=False)
        compute = self.compute_time(counters.simt_instructions)
        stall = self.translation_stall_time(counters.translation_requests)
        return max(interconnect_time, gpu_time, compute) + stall

    def price_stages(self, stages) -> QueryCost:
        """Price serial pipeline stages: ``stages`` is [(label, counters)].

        Each stage is an independent kernel (its own roofline + one launch);
        stage times add up.  Operators that overlap stages across CUDA
        streams (windowed partitioning) compute their own makespan instead.
        """
        total_counters = PerfCounters()
        breakdown: Dict[str, float] = {}
        seconds = 0.0
        for label, counters in stages:
            stage_seconds = (
                self.probe_stage_time(counters)
                + self.constants.kernel_launch_seconds
            )
            breakdown[label] = stage_seconds
            seconds += stage_seconds
            total_counters.add(counters)
        return QueryCost(
            seconds=seconds, breakdown=breakdown, counters=total_counters
        )
