"""Performance counters collected by the simulator.

The paper measures GPU address-translation requests through POWER9 hardware
counters (Section 3.3.2).  Our simulator counts the same events directly,
plus the cache/interconnect events the cost model needs.  A
:class:`PerfCounters` instance is a plain accumulator: simulation components
add to it; the cost model (:mod:`repro.perf.model`) turns it into seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..errors import SimulationError


@dataclass
class PerfCounters:
    """Event counts accumulated during a simulated query.

    All counts refer to the *full* workload: components that simulate a
    sample multiply by the configured scale factor before accumulating
    (see :meth:`scaled`).

    Attributes:
        lookups: index lookups performed (== probe-side tuples processed).
        memory_accesses: memory instructions issued by index traversals.
        l1_hits / l2_hits: accesses absorbed by the GPU L1 / L2 caches.
        remote_accesses: accesses that reached the interconnect.
        remote_bytes: bytes fetched across the interconnect (cacheline
            granularity), including table-scan traffic.
        scan_bytes: bytes moved by sequential bulk transfers (table scans,
            window reads); a subset of remote_bytes.
        tlb_misses: last-level GPU TLB misses.
        tlb_cold_misses: first-touch subset of tlb_misses (a one-off cost
            of the fixed page universe; sampled simulations must not scale
            it with the lookup count).
        translation_requests: address-translation requests sent to the CPU
            IOMMU (misses x replay factor) -- the paper's Fig. 4/6 metric.
        gpu_memory_accesses: random accesses to GPU device memory (hash
            table probes, partition scatters).
        gpu_memory_bytes: bytes moved within GPU device memory.
        simt_instructions: warp-instructions executed (SIMT model).
        divergence_replays: extra warp-instruction replays caused by
            divergent lanes.
        result_bytes: bytes of join result materialized into GPU memory.
    """

    lookups: float = 0.0
    memory_accesses: float = 0.0
    l1_hits: float = 0.0
    l2_hits: float = 0.0
    remote_accesses: float = 0.0
    remote_bytes: float = 0.0
    scan_bytes: float = 0.0
    tlb_misses: float = 0.0
    tlb_cold_misses: float = 0.0
    translation_requests: float = 0.0
    gpu_memory_accesses: float = 0.0
    gpu_memory_bytes: float = 0.0
    simt_instructions: float = 0.0
    divergence_replays: float = 0.0
    result_bytes: float = 0.0

    def add(self, other: "PerfCounters") -> "PerfCounters":
        """Accumulate ``other`` into ``self`` (in place) and return self."""
        mine, theirs = self.__dict__, other.__dict__
        for name in _FIELD_NAMES:
            mine[name] += theirs[name]
        return self

    def __add__(self, other: "PerfCounters") -> "PerfCounters":
        result = PerfCounters()
        result.add(self)
        result.add(other)
        return result

    def scaled(self, factor: float) -> "PerfCounters":
        """Return a copy with every counter multiplied by ``factor``.

        Used to extrapolate sampled simulation to the full probe relation.
        """
        if factor < 0:
            raise SimulationError(f"scale factor must be non-negative: {factor}")
        values = self.__dict__
        return PerfCounters(*[values[name] * factor for name in _FIELD_NAMES])

    def as_dict(self) -> dict:
        """Counters as a plain dict, e.g. for tabular reports."""
        values = self.__dict__
        return {name: values[name] for name in _FIELD_NAMES}

    # ------------------------------------------------------------------
    # Derived metrics used by the paper's figures.
    # ------------------------------------------------------------------

    @property
    def translation_requests_per_lookup(self) -> float:
        """The y-axis of the paper's Fig. 4."""
        if self.lookups == 0:
            return 0.0
        return self.translation_requests / self.lookups

    @property
    def l2_hit_rate(self) -> float:
        """Fraction of post-L1 accesses absorbed by the L2."""
        post_l1 = self.memory_accesses - self.l1_hits
        if post_l1 <= 0:
            return 0.0
        return self.l2_hits / post_l1

    @property
    def l1_hit_rate(self) -> float:
        """Fraction of memory accesses absorbed by the L1."""
        if self.memory_accesses <= 0:
            return 0.0
        return self.l1_hits / self.memory_accesses

    def validate(self) -> None:
        """Check internal consistency; raises :class:`SimulationError`.

        The hierarchy must conserve accesses: hits plus remote accesses
        cannot exceed issued accesses, and no counter may be negative.
        """
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if value < 0:
                raise SimulationError(f"counter {name} is negative: {value}")
        absorbed = self.l1_hits + self.l2_hits + self.remote_accesses
        # Allow a small float tolerance: counters are scaled floats.
        if absorbed > self.memory_accesses * (1.0 + 1e-9) + 1e-6:
            raise SimulationError(
                "cache hits + remote accesses exceed issued accesses: "
                f"{absorbed} > {self.memory_accesses}"
            )
        if self.tlb_misses > self.remote_accesses * (1.0 + 1e-9) + 1e-6:
            raise SimulationError(
                "TLB misses exceed remote accesses: "
                f"{self.tlb_misses} > {self.remote_accesses}"
            )


#: Every counter field, in declaration order, computed once for the
#: arithmetic above (which runs thousands of times per serve sweep).
_FIELD_NAMES = tuple(field.name for field in fields(PerfCounters))
