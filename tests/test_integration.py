"""Cross-layer integration tests: determinism, consistency, composition.

These tests exercise paths that span multiple subsystems -- the kind of
seams unit tests miss: seed-to-result determinism across the whole stack,
agreement between the planner's choice and direct estimates, and
counters that stay coherent across every operator estimate.
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.data.generator import WorkloadConfig, make_workload
from repro.engine.planner import QueryPlanner
from repro.experiments.common import (
    default_partitioner,
    gib_to_tuples,
    make_environment,
)
from repro.hardware.spec import V100_NVLINK2
from repro.indexes import RadixSplineIndex
from repro.join.base import QueryEnvironment
from repro.join.inlj import IndexNestedLoopJoin
from repro.join.window import WindowedINLJ
from repro.units import GIB, MIB

SIM = SimulationConfig(probe_sample=2**11)


class TestDeterminism:
    """Same seed => bit-identical outcomes, across every layer."""

    def test_workload_generation(self):
        config = WorkloadConfig(r_tuples=2**14, s_tuples=2**10, seed=99)
        first_rel, first_probes = make_workload(config)
        second_rel, second_probes = make_workload(config)
        assert np.array_equal(first_probes.keys, second_probes.keys)
        positions = np.arange(2**14)
        assert np.array_equal(
            first_rel.column.key_at(positions),
            second_rel.column.key_at(positions),
        )

    def test_seed_changes_workload(self):
        base = WorkloadConfig(r_tuples=2**14, s_tuples=2**10, seed=1)
        other = WorkloadConfig(r_tuples=2**14, s_tuples=2**10, seed=2)
        __, first = make_workload(base)
        __, second = make_workload(other)
        assert not np.array_equal(first.keys, second.keys)

    @pytest.mark.parametrize(
        "operator", ["naive", "windowed"], ids=["naive", "windowed"]
    )
    def test_estimates_reproducible(self, operator):
        def run_once():
            env = make_environment(
                V100_NVLINK2,
                gib_to_tuples(4.0),
                index_cls=RadixSplineIndex,
                sim=SIM,
            )
            if operator == "naive":
                return IndexNestedLoopJoin(env.index).estimate(env).seconds
            join = WindowedINLJ(
                env.index, default_partitioner(env.column),
                window_bytes=8 * MIB,
            )
            return join.estimate(env).seconds

        assert run_once() == run_once()

    def test_planner_reproducible(self):
        workload = WorkloadConfig(r_tuples=int(8 * GIB) // 8)
        first = QueryPlanner(V100_NVLINK2, sim=SIM).plan(
            workload, index_types=(RadixSplineIndex,)
        )
        second = QueryPlanner(V100_NVLINK2, sim=SIM).plan(
            workload, index_types=(RadixSplineIndex,)
        )
        assert first.chosen.name == second.chosen.name
        assert first.chosen.cost.seconds == second.chosen.cost.seconds


class TestPlannerConsistency:
    def test_planner_choice_matches_direct_estimates(self):
        """The planner must pick exactly what direct estimation ranks
        first -- no hidden state between the two paths."""
        workload = WorkloadConfig(r_tuples=int(32 * GIB) // 8)
        choice = QueryPlanner(V100_NVLINK2, sim=SIM).plan(
            workload, index_types=(RadixSplineIndex,)
        )
        env = QueryEnvironment(
            V100_NVLINK2, workload, index_cls=RadixSplineIndex, sim=SIM
        )
        direct = WindowedINLJ(
            env.index, default_partitioner(env.column)
        ).estimate(env)
        by_name = {c.name: c for c in choice.candidates}
        planner_cost = by_name["windowed INLJ over RadixSpline"].cost
        assert planner_cost.seconds == pytest.approx(
            direct.seconds, rel=1e-9
        )


class TestCountersAreCoherent:
    def test_every_estimate_validates(self):
        """Counters of every operator estimate satisfy the conservation
        checks (hits <= accesses, misses <= remote, non-negative)."""
        from repro.join.hash_join import HashJoin
        from repro.join.partitioned import PartitionedINLJ

        workload = WorkloadConfig(r_tuples=int(2 * GIB) // 8)
        env = make_environment(
            V100_NVLINK2, workload.r_tuples, index_cls=RadixSplineIndex,
            sim=SIM,
        )
        estimates = [
            IndexNestedLoopJoin(env.index).estimate(env),
        ]
        env2 = make_environment(
            V100_NVLINK2, workload.r_tuples, index_cls=RadixSplineIndex,
            sim=SIM,
        )
        estimates.append(
            PartitionedINLJ(
                env2.index, default_partitioner(env2.column)
            ).estimate(env2)
        )
        env3 = make_environment(V100_NVLINK2, workload.r_tuples, sim=SIM)
        estimates.append(HashJoin(env3.relation).estimate(env3))
        for cost in estimates:
            cost.counters.validate()
            assert cost.seconds > 0

    def test_result_volume_follows_match_rate(self):
        full = make_environment(
            V100_NVLINK2, gib_to_tuples(2.0), index_cls=RadixSplineIndex,
            sim=SIM,
        )
        full_cost = IndexNestedLoopJoin(full.index).estimate(full)
        partial_workload = WorkloadConfig(
            r_tuples=gib_to_tuples(2.0), match_rate=0.5
        )
        partial = QueryEnvironment(
            V100_NVLINK2, partial_workload, index_cls=RadixSplineIndex,
            sim=SIM,
        )
        partial_cost = IndexNestedLoopJoin(partial.index).estimate(partial)
        assert partial_cost.counters.result_bytes == pytest.approx(
            full_cost.counters.result_bytes / 2
        )
