"""Interconnect transfer-time model.

Fast interconnects let the GPU fetch CPU memory at cacheline granularity
(Section 2.1: "the GPU fetches a cacheline across the interconnect"), and
they sustain a large fraction of peak bandwidth even for data-dependent
accesses; PCIe does not (Section 5.2.3).  This module turns byte/access
counts into seconds using the :class:`~repro.hardware.spec.InterconnectSpec`
parameters, distinguishing sequential (table-scan) from random (index
traversal) traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..units import CACHELINE_BYTES
from .spec import InterconnectSpec


@dataclass(frozen=True)
class InterconnectModel:
    """Cost model of one CPU-to-GPU interconnect link.

    Attributes:
        spec: the static link parameters.
        cacheline_bytes: transfer granularity for random accesses.
    """

    spec: InterconnectSpec
    cacheline_bytes: int = CACHELINE_BYTES

    def __post_init__(self) -> None:
        if self.cacheline_bytes <= 0:
            raise ConfigurationError(
                f"cacheline size must be positive, got {self.cacheline_bytes}"
            )

    # ------------------------------------------------------------------
    # Effective bandwidths.
    # ------------------------------------------------------------------

    @property
    def sequential_bandwidth(self) -> float:
        """Bytes/second for bulk sequential transfers (table scans)."""
        return self.spec.bandwidth_bytes

    @property
    def random_bandwidth(self) -> float:
        """Bytes/second for data-dependent cacheline fetches.

        A GPU keeps enough fetches in flight to hide individual latencies,
        so random traffic is bandwidth-bound too -- just at a reduced
        efficiency (near peak on NVLink, far below peak on PCIe).
        """
        return self.spec.bandwidth_bytes * self.spec.random_efficiency

    # ------------------------------------------------------------------
    # Transfer times.
    # ------------------------------------------------------------------

    def random_time(self, num_accesses: float) -> float:
        """Seconds to service ``num_accesses`` random cacheline fetches."""
        if num_accesses < 0:
            raise ConfigurationError(
                f"access count must be non-negative, got {num_accesses}"
            )
        if num_accesses == 0:
            return 0.0
        bytes_moved = num_accesses * self.cacheline_bytes
        return self.spec.latency_seconds + bytes_moved / self.random_bandwidth

    def translation_time(self, num_requests: float, concurrency: float) -> float:
        """Seconds spent on address-translation round trips.

        A translation request costs ~3 us (Section 3.3.2), but the GPU
        overlaps outstanding requests up to the MMU's concurrency limit.
        ``concurrency`` is the effective number of requests in flight
        (:class:`repro.perf.model.CostModel` derives it from the GPU spec).
        """
        if num_requests < 0:
            raise ConfigurationError(
                f"request count must be non-negative, got {num_requests}"
            )
        if concurrency <= 0:
            raise ConfigurationError(
                f"concurrency must be positive, got {concurrency}"
            )
        if num_requests == 0:
            return 0.0
        return num_requests * self.spec.translation_latency_seconds / concurrency
