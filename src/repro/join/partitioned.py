"""Materializing partitioned INLJ (paper Section 4).

The whole probe-side key set is radix-partitioned in GPU memory before the
INLJ runs.  This removes the TLB cliff (Figs. 5-6) but materializes the
lookup keys -- the drawback the windowed approach of Section 5 eliminates.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..hardware.memory import MemorySpace
from ..indexes.base import Index
from ..partition.radix import RadixPartitioner
from ..perf.model import QueryCost
from .base import JoinResult, QueryEnvironment

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
        probe_keys = np.asarray(probe_keys)
        if probe_keys.ndim != 1:
            raise WorkloadError(
                f"probe keys must be one-dimensional, got {probe_keys.ndim}"
            )
        output = self.partitioner.partition(probe_keys)
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
        buffers are charged to device capacity -- the materialization the
        paper objects to).  Stage 2 probes in partition order: the event
        simulator supplies cache behaviour from a density-preserving
        ordered sample, the TLB analytically (see repro.perf.analytic).
        """
        if env.index is not self.index:
            raise WorkloadError(
                "environment was built for a different index instance"
            )
        workload = env.workload
        s_tuples = workload.s_tuples
        # Materialized key buffers (ping/pong) live in GPU memory.
        env.machine.memory.allocate(
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
        sample = env.ordered_sample(s_tuples, env.sim.probe_sample)
        env.machine.reset_hierarchy()
        lookup = self.index.trace_lookups(sample.keys)
        raw = env.machine.simulate_lookups(lookup.trace, simulate_tlb=False)
        raw.simt_instructions = lookup.simt.warp_instructions
        raw.divergence_replays = lookup.simt.divergence_replays
        probe_stage = env.machine.scale_lookup_counters(
            raw, float(s_tuples), replay_factor=self.index.tlb_replay_factor
        )
        gpu = env.spec.gpu
        sweep_pages = self.index.expected_sweep_pages(
            window_lookups=float(s_tuples),
            page_bytes=gpu.tlb_entry_bytes,
            l2_bytes=gpu.l2_bytes,
            cacheline_bytes=gpu.cacheline_bytes,
        )
        probe_stage.add(
            env.machine.analytic_tlb_counters(
                sweep_pages, replay_factor=self.index.tlb_replay_factor
            )
        )
        probe_stage.add(env.machine.result_counters(env.result_bytes()))
        return env.cost_model.price_stages(
            [("partition", partition_stage), ("probe", probe_stage)]
        )
