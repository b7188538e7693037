"""Simulated (cost-model) paths of all join operators.

These tests pin down the *structure* of the estimates -- counters are
consistent, stages priced, capacity charged -- on configurations small
enough for per-test runs.  The paper-shape assertions (cliff, recovery,
ranking) live in tests/test_paper_shapes.py.
"""

import pytest

from repro.config import SimulationConfig
from repro.data.generator import WorkloadConfig
from repro.errors import WorkloadError
from repro.hardware.memory import MemorySpace
from repro.hardware.spec import V100_NVLINK2
from repro.indexes import HarmoniaIndex, RadixSplineIndex
from repro.join.base import QueryEnvironment
from repro.join.hash_join import HashJoin
from repro.join.inlj import IndexNestedLoopJoin
from repro.join.nonequi import BandJoin, WindowedBandJoin
from repro.join.partitioned import PartitionedINLJ
from repro.join.window import WindowedINLJ
from repro.partition.bits import choose_partition_bits
from repro.partition.radix import RadixPartitioner
from repro.units import GIB, MIB

SIM = SimulationConfig(probe_sample=2**11)
WORKLOAD = WorkloadConfig(r_tuples=int(2 * GIB // 8), s_tuples=2**20)


def make_env(index_cls=None):
    return QueryEnvironment(V100_NVLINK2, WORKLOAD, index_cls=index_cls, sim=SIM)


def make_partitioner(env):
    bits = choose_partition_bits(env.column, 2048, ignored_lsb=4)
    return RadixPartitioner(bits)


#: Every operator that prices a sampled probe: (index, partitioner) -> join.
SAMPLED_OPERATORS = {
    "inlj-stream": lambda index, _: IndexNestedLoopJoin(index),
    "inlj-sorted": lambda index, _: IndexNestedLoopJoin(
        index, probe_order="sorted"
    ),
    "partitioned": PartitionedINLJ,
    "windowed": WindowedINLJ,
    "band": lambda index, _: BandJoin(index, epsilon=4),
    "windowed-band": lambda index, partitioner: WindowedBandJoin(
        index, partitioner, epsilon=4
    ),
}


@pytest.mark.parametrize("operator", SAMPLED_OPERATORS)
def test_rejects_foreign_index(operator):
    env = make_env(RadixSplineIndex)
    other = make_env(RadixSplineIndex)
    join = SAMPLED_OPERATORS[operator](other.index, make_partitioner(env))
    with pytest.raises(WorkloadError):
        join.estimate(env)


class TestINLJEstimate:
    def test_positive_throughput(self):
        env = make_env(RadixSplineIndex)
        cost = IndexNestedLoopJoin(env.index).estimate(env)
        assert 0 < cost.queries_per_second < 10_000

    def test_counters_cover_full_relation(self):
        env = make_env(RadixSplineIndex)
        cost = IndexNestedLoopJoin(env.index).estimate(env)
        assert cost.counters.lookups == WORKLOAD.s_tuples
        assert cost.counters.scan_bytes >= env.s_bytes

    def test_breakdown_has_probe_stage(self):
        env = make_env(RadixSplineIndex)
        cost = IndexNestedLoopJoin(env.index).estimate(env)
        assert "probe" in cost.breakdown

    def test_deterministic(self):
        env = make_env(HarmoniaIndex)
        first = IndexNestedLoopJoin(env.index).estimate(env).seconds
        env2 = make_env(HarmoniaIndex)
        second = IndexNestedLoopJoin(env2.index).estimate(env2).seconds
        assert first == second


class TestSortedProbeOrder:
    def test_functional_sorted_equals_reference(self):
        from repro.data.generator import make_workload
        from repro.join.base import reference_join

        config = WorkloadConfig(
            r_tuples=2**14, s_tuples=2**11, match_rate=0.8, seed=4
        )
        relation, probes = make_workload(config)
        join = IndexNestedLoopJoin(
            RadixSplineIndex(relation), probe_order="sorted"
        )
        assert join.join(probes.keys).equals(
            reference_join(relation.column, probes.keys)
        )

    def test_sorted_beats_stream_at_large_r(self):
        from repro.units import GIB as _GIB

        big = WorkloadConfig(r_tuples=int(64 * _GIB // 8))
        stream_env = QueryEnvironment(
            V100_NVLINK2, big, index_cls=RadixSplineIndex,
            sim=SimulationConfig(probe_sample=2**13),
        )
        stream = IndexNestedLoopJoin(
            stream_env.index, probe_order="stream"
        ).estimate(stream_env)
        sorted_env = QueryEnvironment(
            V100_NVLINK2, big, index_cls=RadixSplineIndex, sim=SIM
        )
        sorted_cost = IndexNestedLoopJoin(
            sorted_env.index, probe_order="sorted"
        ).estimate(sorted_env)
        assert (
            sorted_cost.queries_per_second > 2 * stream.queries_per_second
        )

    def test_invalid_order_rejected(self):
        from repro.errors import ConfigurationError

        env = make_env(RadixSplineIndex)
        with pytest.raises(ConfigurationError):
            IndexNestedLoopJoin(env.index, probe_order="shuffled")


class TestPartitionedEstimate:
    def test_has_two_stages(self):
        env = make_env(RadixSplineIndex)
        cost = PartitionedINLJ(env.index, make_partitioner(env)).estimate(env)
        assert set(cost.breakdown) >= {"partition", "probe"}

    def test_materializes_key_buffers_in_device_memory(self):
        env = make_env(RadixSplineIndex)
        before = env.machine.memory.used(MemorySpace.DEVICE)
        PartitionedINLJ(env.index, make_partitioner(env)).estimate(env)
        after = env.machine.memory.used(MemorySpace.DEVICE)
        assert after - before >= 2 * WORKLOAD.s_tuples * 16

    def test_partition_traffic_charged(self):
        env = make_env(RadixSplineIndex)
        cost = PartitionedINLJ(env.index, make_partitioner(env)).estimate(env)
        assert cost.counters.gpu_memory_bytes >= WORKLOAD.s_tuples * 16 * 2


class TestWindowedEstimate:
    def test_no_input_materialization(self):
        """Section 5: neither input is materialized -- device memory holds
        only the in-flight window buffers."""
        env = make_env(RadixSplineIndex)
        join = WindowedINLJ(
            env.index, make_partitioner(env), window_bytes=2 * MIB
        )
        join.estimate(env)
        used = env.machine.memory.used(MemorySpace.DEVICE)
        assert used < 10 * 2 * MIB  # a few window buffers, not |S|

    def test_overlap_helps(self):
        env = make_env(RadixSplineIndex)
        overlapped = WindowedINLJ(
            env.index, make_partitioner(env), window_bytes=2 * MIB,
            overlap=True,
        ).estimate(env)
        env2 = make_env(RadixSplineIndex)
        serial = WindowedINLJ(
            env2.index, make_partitioner(env2), window_bytes=2 * MIB,
            overlap=False,
        ).estimate(env2)
        assert overlapped.seconds <= serial.seconds

    def test_breakdown_reports_windows(self):
        env = make_env(RadixSplineIndex)
        join = WindowedINLJ(
            env.index, make_partitioner(env), window_bytes=2 * MIB
        )
        cost = join.estimate(env)
        expected_windows = -(-WORKLOAD.s_tuples // join.window_tuples)
        assert cost.breakdown["num_windows"] == expected_windows

    def test_window_larger_than_s_clamps(self):
        env = make_env(RadixSplineIndex)
        join = WindowedINLJ(
            env.index, make_partitioner(env), window_bytes=100 * GIB
        )
        cost = join.estimate(env)
        assert cost.breakdown["num_windows"] == 1


class TestHashJoinEstimate:
    def test_scans_r_over_interconnect(self):
        env = make_env()
        cost = HashJoin(env.relation).estimate(env)
        assert cost.counters.scan_bytes >= env.r_bytes

    def test_table_charged_to_device_memory(self):
        env = make_env()
        before = env.machine.memory.used(MemorySpace.DEVICE)
        HashJoin(env.relation).estimate(env)
        used = env.machine.memory.used(MemorySpace.DEVICE) - before
        assert used >= WORKLOAD.s_tuples / 0.5 * 16 / 2  # >= capacity bytes

    def test_build_and_probe_stages(self):
        env = make_env()
        cost = HashJoin(env.relation).estimate(env)
        assert set(cost.breakdown) >= {"build", "probe"}

    def test_skew_explodes_cost(self):
        flat_env = make_env()
        flat = HashJoin(flat_env.relation).estimate(flat_env)
        skewed_workload = WorkloadConfig(
            r_tuples=WORKLOAD.r_tuples, s_tuples=WORKLOAD.s_tuples,
            zipf_theta=1.75,
        )
        skew_env = QueryEnvironment(V100_NVLINK2, skewed_workload, sim=SIM)
        skewed = HashJoin(skew_env.relation).estimate(skew_env)
        assert skewed.seconds > 100 * flat.seconds

    def test_skew_cost_monotone_in_theta(self):
        seconds = []
        for theta in (0.0, 1.0, 1.5):
            workload = WorkloadConfig(
                r_tuples=WORKLOAD.r_tuples, s_tuples=WORKLOAD.s_tuples,
                zipf_theta=theta,
            )
            env = QueryEnvironment(V100_NVLINK2, workload, sim=SIM)
            seconds.append(HashJoin(env.relation).estimate(env).seconds)
        assert seconds == sorted(seconds)
