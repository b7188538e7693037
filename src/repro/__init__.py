"""repro: reproduction of "Efficiently Indexing Large Data on GPUs with
Fast Interconnects" (Schmeisser, Lutz, Markl -- EDBT 2025).

The library has two coupled layers:

* a **functional layer** -- real index structures (binary search, B+tree,
  Harmonia, RadixSpline), joins (INLJ variants, a WarpCore-style hash
  join), and radix partitioning over numpy data, exact at laptop scale;
* a **simulation layer** -- a discrete cost model of the paper's hardware
  (V100/NVLink 2.0, A100/PCIe 4.0): interconnect, GPU caches, and the GPU
  TLB whose 32 GiB range causes the paper's throughput cliff.  Virtual
  columns let index traversals cover the paper's 0.5-120 GiB relations
  without materializing them.

Quick start::

    import repro

    workload = repro.WorkloadConfig(r_tuples=2**30)
    env = repro.QueryEnvironment(
        repro.V100_NVLINK2, workload, index_cls=repro.RadixSplineIndex
    )
    join = repro.WindowedINLJ(
        env.index, repro.RadixPartitioner(
            repro.choose_partition_bits(env.column, num_partitions=2048)
        ),
    )
    cost = join.estimate(env)
    print(cost.queries_per_second, "Q/s")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .config import DEFAULT_CONFIG, SimulationConfig
from .data import (
    Column,
    MaterializedColumn,
    ProbeSet,
    Relation,
    VirtualSortedColumn,
    WorkloadConfig,
    make_build_relation,
    make_column,
    make_probe_keys,
    make_workload,
)
from .errors import (
    CapacityError,
    ConfigurationError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from .hardware import (
    A100_PCIE4,
    GH200_C2C,
    MI250X_IF3,
    PerfCounters,
    SystemSpec,
    TABLE1_INTERCONNECTS,
    V100_NVLINK2,
)
from .engine import Pipeline, PlanChoice, QueryPlanner
from .indexes import (
    ALL_INDEX_TYPES,
    BinarySearchIndex,
    BPlusTreeIndex,
    HarmoniaIndex,
    Index,
    RadixSplineIndex,
)
from .join import (
    HashJoin,
    IndexNestedLoopJoin,
    JoinResult,
    MultiValueHashTable,
    PartitionedHashJoin,
    PartitionedINLJ,
    QueryEnvironment,
    WindowedINLJ,
    reference_join,
)
from .partition import PartitionBits, RadixPartitioner, choose_partition_bits
from .perf import CostModel, QueryCost, Series
from .serve import (
    ProbeRequest,
    ReplicatedShardExecutor,
    ServeReport,
    ShardedIndexService,
    ShardPlan,
    range_shard,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_CONFIG",
    "SimulationConfig",
    "Column",
    "MaterializedColumn",
    "ProbeSet",
    "Relation",
    "VirtualSortedColumn",
    "WorkloadConfig",
    "make_build_relation",
    "make_column",
    "make_probe_keys",
    "make_workload",
    "CapacityError",
    "ConfigurationError",
    "ReproError",
    "SimulationError",
    "WorkloadError",
    "A100_PCIE4",
    "GH200_C2C",
    "MI250X_IF3",
    "PerfCounters",
    "SystemSpec",
    "TABLE1_INTERCONNECTS",
    "V100_NVLINK2",
    "ALL_INDEX_TYPES",
    "BinarySearchIndex",
    "BPlusTreeIndex",
    "HarmoniaIndex",
    "Index",
    "RadixSplineIndex",
    "HashJoin",
    "IndexNestedLoopJoin",
    "JoinResult",
    "MultiValueHashTable",
    "PartitionedHashJoin",
    "PartitionedINLJ",
    "QueryEnvironment",
    "WindowedINLJ",
    "reference_join",
    "Pipeline",
    "PlanChoice",
    "QueryPlanner",
    "PartitionBits",
    "RadixPartitioner",
    "choose_partition_bits",
    "CostModel",
    "QueryCost",
    "Series",
    "ProbeRequest",
    "ReplicatedShardExecutor",
    "ServeReport",
    "ShardedIndexService",
    "ShardPlan",
    "range_shard",
]
