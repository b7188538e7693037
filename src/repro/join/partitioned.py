"""Materializing partitioned INLJ (paper Section 4).

The whole probe-side key set is radix-partitioned in GPU memory before the
INLJ runs.  This removes the TLB cliff (Figs. 5-6) but materializes the
lookup keys -- the drawback the windowed approach of Section 5 eliminates.
"""

from __future__ import annotations

import numpy as np

from ..hardware.memory import MemorySpace
from ..indexes.base import Index
from ..partition.radix import RadixPartitioner
from ..perf.model import QueryCost
from .base import JoinResult, QueryEnvironment, require_1d

#: GPU-resident tuple during partitioning: 8 B key + 8 B source index.
_PARTITION_TUPLE_BYTES = 16


class PartitionedINLJ:
    """Radix-partition all lookup keys, then run the INLJ."""

    name = "partitioned INLJ"

    def __init__(self, index: Index, partitioner: RadixPartitioner):
        self.index = index
        self.partitioner = partitioner

    # ------------------------------------------------------------------
    # Functional path.
    # ------------------------------------------------------------------

    def join(self, probe_keys: np.ndarray) -> JoinResult:
        """Exact join; lookups run in partition order."""
        output = self.partitioner.partition(require_1d(probe_keys))
        positions = self.index.lookup(output.keys)
        matched = positions >= 0
        return JoinResult(
            probe_indices=output.source_indices[matched],
            build_positions=positions[matched],
        )

    # ------------------------------------------------------------------
    # Simulated path.
    # ------------------------------------------------------------------

    def estimate(self, env: QueryEnvironment) -> QueryCost:
        """Cost-model throughput with full key materialization.

        Stage 1 reads S and radix-partitions it in GPU memory (in/out
        buffers are checked against device capacity -- the materialization
        the paper objects to).  Stage 2 probes in partition order: the event
        simulator supplies cache behaviour from a density-preserving
        ordered sample, the TLB analytically (see repro.perf.analytic).
        """
        env.check_index(self.index)
        s_tuples = env.workload.s_tuples
        # Materialized key buffers (ping/pong) live in GPU memory.
        env.machine.memory.check_capacity(
            2 * s_tuples * _PARTITION_TUPLE_BYTES,
            MemorySpace.DEVICE,
            label="partitioned key buffers",
        )
        partition_stage = env.machine.scan_counters(env.s_bytes)
        partition_stage.add(
            self.partitioner.partition_counters(
                s_tuples, tuple_bytes=_PARTITION_TUPLE_BYTES
            )
        )
        probe_stage = env.ordered_probe_counters(s_tuples, s_tuples)
        probe_stage.add(env.machine.result_counters(env.result_bytes()))
        return env.cost_model.price_stages(
            [("partition", partition_stage), ("probe", probe_stage)]
        )
