"""Radix partitioner: functional scatter plus an SWWC cost model.

The paper radix-partitions lookup keys "using the linear allocator-based
software write-combining algorithm [Stehle & Jacobsen], due to its high
performance in GPU memory" with 2048 partitions (Section 4.3.1).  That
algorithm makes two device-memory passes (histogram, then write-combined
scatter); the cost model charges exactly that.

The functional path performs a real histogram + stable scatter, so tests
can verify partition contents and intra-partition stability -- the property
windowed INLJ relies on (tuples of one partition are contiguous, in
arrival order).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .. import obs
from ..errors import ConfigurationError
from ..hardware.counters import PerfCounters
from .bits import PartitionBits


@dataclass
class PartitionOutput:
    """Result of partitioning one batch of keys.

    Attributes:
        keys: keys reordered so each partition is contiguous.
        source_indices: original index of each reordered key (the payload
            the INLJ carries to emit join results).
        offsets: partition start offsets (len = num_partitions + 1).
    """

    keys: np.ndarray
    source_indices: np.ndarray
    offsets: np.ndarray

    @property
    def num_partitions(self) -> int:
        return len(self.offsets) - 1


class RadixPartitioner:
    """Single-pass radix partitioner over a fixed bit selection."""

    def __init__(self, bits: PartitionBits):
        self.bits = bits

    def partition(self, keys: np.ndarray) -> PartitionOutput:
        """Histogram + stable scatter (the SWWC algorithm's semantics)."""
        keys = np.asarray(keys, dtype=np.uint64)
        with obs.span(
            "partition.fanout",
            partitions=self.bits.num_partitions,
            tuples=len(keys),
        ):
            partitions = self.bits.partition_of(keys)
            histogram = np.bincount(
                partitions, minlength=self.bits.num_partitions
            ).astype(np.int64)
            offsets = np.zeros(self.bits.num_partitions + 1, dtype=np.int64)
            np.cumsum(histogram, out=offsets[1:])
            order = self._stable_order(partitions, len(keys))
        if obs.enabled():
            obs.add("partition.batches")
            obs.add("partition.tuples", float(len(keys)))
            obs.add(
                "partition.occupied_partitions",
                float(int(np.count_nonzero(histogram))),
            )
            obs.observe("partition.batch_tuples", float(len(keys)))
        # The scatter order is each reordered key's original index.
        return PartitionOutput(
            keys=keys[order], source_indices=order, offsets=offsets
        )

    def _stable_order(self, partitions: np.ndarray, n: int) -> np.ndarray:
        """Stable scatter order: within a partition, arrival order holds
        (the linear allocator hands out slots in arrival order).

        Packs (partition id, position) into one int64 per tuple and sorts
        that -- a single primitive-type sort, an order of magnitude faster
        than the general stable ``argsort`` it replaces.  Falls back to
        the argsort when id and position bits cannot share 63 bits.
        """
        id_bits = max(1, int(self.bits.num_partitions - 1).bit_length())
        pos_bits = max(1, (n - 1).bit_length())
        if id_bits + pos_bits > 63:
            return np.argsort(partitions, kind="stable")
        packed = partitions.astype(np.int64) << pos_bits
        packed |= np.arange(n, dtype=np.int64)
        packed.sort()
        packed &= (np.int64(1) << pos_bits) - np.int64(1)
        return packed

    # ------------------------------------------------------------------
    # Cost model.
    # ------------------------------------------------------------------

    def partition_counters(
        self, num_tuples: float, tuple_bytes: float = 16.0, passes: float = 2.0
    ) -> PerfCounters:
        """Device-memory traffic of partitioning ``num_tuples`` tuples.

        SWWC reads + writes the data once per pass (histogram pass reads
        only, scatter pass reads and writes; we charge 2 x size per pass
        on average, matching the partitioner's measured bandwidth profile).
        """
        if num_tuples < 0:
            raise ConfigurationError(
                f"tuple count must be non-negative: {num_tuples}"
            )
        counters = PerfCounters()
        counters.gpu_memory_bytes = num_tuples * tuple_bytes * passes
        return counters

