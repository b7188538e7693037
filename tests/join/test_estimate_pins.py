"""Bit-exact pins of every sampled-probe estimate.

Each case prices one operator over one index on one machine point and
compares ``QueryCost.seconds``, the breakdown and every counter with
``==`` against ``estimate_pins.json``.  The cases cover both INLJ probe
orders, the partitioned INLJ, the windowed INLJ, the naive and windowed
band and KNN joins, each over the four paper indexes, on a V100/NVLink
point past the 32 GiB TLB range and an A100/PCIe4 point below it, at
Zipf 0 and 1; plus ``Shard.window_counters`` for two index classes.

A refactor of the estimator must leave every value bit-identical.  An
intended model change re-records the fixture and names the change:

    PYTHONPATH=src python tests/join/test_estimate_pins.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.data.column import MaterializedColumn
from repro.data.generator import WorkloadConfig
from repro.data.relation import Relation
from repro.hardware.spec import A100_PCIE4, V100_NVLINK2
from repro.indexes import (
    BinarySearchIndex,
    BPlusTreeIndex,
    HarmoniaIndex,
    RadixSplineIndex,
)
from repro.join.base import QueryEnvironment
from repro.join.inlj import IndexNestedLoopJoin
from repro.join.nonequi import (
    BandJoin,
    KNNJoin,
    WindowedBandJoin,
    WindowedKNNJoin,
)
from repro.join.partitioned import PartitionedINLJ
from repro.join.window import WindowedINLJ
from repro.partition.bits import choose_partition_bits
from repro.partition.radix import RadixPartitioner
from repro.serve.shard import range_shard
from repro.units import GIB, MIB

FIXTURE = Path(__file__).with_name("estimate_pins.json")

S_TUPLES = 2**19
WINDOW_BYTES = 1 * MIB
EPSILON = 64
K = 4

#: (machine, R tuples, sample).  The V100 point sits past the 32 GiB TLB
#: range with a sample large enough for binary search's stream-order
#: replay to show capacity misses, not only cold ones.
POINTS = {
    "v100-111g": (
        V100_NVLINK2, int(111 * GIB // 8), SimulationConfig(probe_sample=2**13)
    ),
    "a100-4g": (
        A100_PCIE4, int(4 * GIB // 8), SimulationConfig(probe_sample=2**10)
    ),
}
THETAS = (0.0, 1.0)
INDEXES = {
    "binary-search": BinarySearchIndex,
    "btree": BPlusTreeIndex,
    "harmonia": HarmoniaIndex,
    "radix-spline": RadixSplineIndex,
}


def _partitioner(env):
    return RadixPartitioner(
        choose_partition_bits(env.column, 2048, ignored_lsb=4)
    )


OPERATORS = {
    "inlj-stream": lambda env: IndexNestedLoopJoin(env.index),
    "inlj-sorted": lambda env: IndexNestedLoopJoin(
        env.index, probe_order="sorted"
    ),
    "partitioned": lambda env: PartitionedINLJ(env.index, _partitioner(env)),
    "windowed": lambda env: WindowedINLJ(
        env.index, _partitioner(env), window_bytes=WINDOW_BYTES
    ),
    "band": lambda env: BandJoin(env.index, EPSILON),
    "knn": lambda env: KNNJoin(env.index, K),
    "windowed-band": lambda env: WindowedBandJoin(
        env.index, _partitioner(env), EPSILON, window_bytes=WINDOW_BYTES
    ),
    "windowed-knn": lambda env: WindowedKNNJoin(
        env.index, _partitioner(env), K, window_bytes=WINDOW_BYTES
    ),
}

SHARD_INDEXES = {"btree": BPlusTreeIndex, "radix-spline": RadixSplineIndex}
SHARD_SPECS = {"v100": V100_NVLINK2, "a100": A100_PCIE4}
SHARD_WINDOWS = (64, 512)


def _estimate_cases():
    """(case id, point, theta, index name) in recording order."""
    for point in POINTS:
        for theta in THETAS:
            for index in INDEXES:
                yield f"{point}:z{theta:g}:{index}", point, theta, index


def _record_estimates(point: str, theta: float, index: str) -> dict:
    """Every operator's estimate, in order, on one environment."""
    spec, r_tuples, sim = POINTS[point]
    workload = WorkloadConfig(
        r_tuples=r_tuples, s_tuples=S_TUPLES, zipf_theta=theta
    )
    env = QueryEnvironment(
        spec, workload, index_cls=INDEXES[index], sim=sim
    )
    pins = {}
    for name, make in OPERATORS.items():
        cost = make(env).estimate(env)
        pins[name] = {
            "seconds": cost.seconds,
            "breakdown": dict(cost.breakdown),
            "counters": cost.counters.as_dict(),
        }
    return pins


def _record_shard(index: str, spec_name: str) -> dict:
    """``window_counters`` of every shard of a two-shard plan."""
    keys = np.arange(2**12, dtype=np.uint64) * np.uint64(7) + np.uint64(3)
    relation = Relation(name="R", column=MaterializedColumn(keys))
    plan = range_shard(relation, 2, SHARD_INDEXES[index])
    spec = SHARD_SPECS[spec_name]
    return {
        f"shard{shard.shard_id}:w{window}": shard.window_counters(
            window, spec
        ).as_dict()
        for shard in plan.shards
        for window in SHARD_WINDOWS
    }


def record() -> dict:
    return {
        "estimates": {
            case: _record_estimates(point, theta, index)
            for case, point, theta, index in _estimate_cases()
        },
        "shards": {
            f"{index}:{spec}": _record_shard(index, spec)
            for index in SHARD_INDEXES
            for spec in SHARD_SPECS
        },
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(
    "case, point, theta, index", list(_estimate_cases())
)
def test_estimates_bit_identical(pins, case, point, theta, index):
    assert _record_estimates(point, theta, index) == pins["estimates"][case]


@pytest.mark.parametrize("spec", SHARD_SPECS)
@pytest.mark.parametrize("index", SHARD_INDEXES)
def test_shard_window_counters_bit_identical(pins, index, spec):
    assert _record_shard(index, spec) == pins["shards"][f"{index}:{spec}"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
