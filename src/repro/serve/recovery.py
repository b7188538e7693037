"""Rebuild pricing: what it costs to bring a dead replica back.

When a replica dies, its index is gone (the simulated GPU dropped out);
recovery re-reads the shard's tuples from host memory and rebuilds the
index structure on-device.  That latency differs sharply by index type
-- FliX (PAPERS.md) motivates exactly this asymmetry -- and it is the
quantity the failover-vs-wait decision trades against the price of
probing a slower surviving replica or the whole-relation fallback:

* ``slice_copy`` (binary search): the index *is* the sorted slice; one
  sequential scan over the interconnect and the replica is back.
* ``bulk_load`` (B+tree, Harmonia): scan the slice, write the node
  arrays (the structure's footprint), and run the linear bulk-load
  pass.
* ``retrain`` (RadixSpline): two passes over the keys -- one to fit
  spline segments, one to verify the error bound -- plus writing the
  radix table and segment arrays.

A shard of any other index type is refused: no plan serves one.

All prices come from the same :class:`~repro.perf.model.CostModel` that
prices probe windows, so "wait for the rebuild" and "fail over" are in
the same simulated currency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import ConfigurationError
from ..hardware.spec import SystemSpec, V100_NVLINK2
from ..perf.model import CalibrationConstants, CostModel, DEFAULT_CALIBRATION
from ..units import KEY_BYTES
from .shard import Shard

#: Rebuild kind per index name, one entry per paper index.
REBUILD_KIND_BY_INDEX: Dict[str, str] = {
    "binary search": "slice_copy",
    "B+tree": "bulk_load",
    "Harmonia": "bulk_load",
    "RadixSpline": "retrain",
}

#: Kernel launches charged per rebuild (transfer + build), mirroring the
#: probe path's partition-then-probe pair.
REBUILD_KERNELS = 2


@dataclass(frozen=True)
class RebuildCost:
    """Priced recovery of one replica.

    ``breakdown`` maps stage name -> seconds and sums to ``seconds``
    (minus nothing: launches are a stage of their own).
    """

    seconds: float
    kind: str
    breakdown: Dict[str, float]

    def describe(self) -> str:
        return f"{self.kind}:{self.seconds:.9f}s"


def _by_index(table: Dict[str, str], shard: Shard) -> str:
    """``table``'s entry for ``shard``'s index type, which must be one
    of the four paper indexes the table covers."""
    name = shard.index.name
    if name not in table:
        raise ConfigurationError(
            f"unknown index {name!r}; expected one of {sorted(table)}"
        )
    return table[name]


def price_rebuild(
    shard: Shard,
    spec: SystemSpec = V100_NVLINK2,
    constants: CalibrationConstants = DEFAULT_CALIBRATION,
) -> RebuildCost:
    """Simulated seconds to rebuild ``shard``'s index from host memory.

    Pure and deterministic: depends only on the shard's tuple count,
    its index type's footprint, and the machine spec -- never on run
    state -- so recovery timelines replay bit-identically.
    """
    cost = CostModel(spec, constants)
    n = shard.num_tuples
    slice_bytes = float(n * KEY_BYTES)
    kind = _by_index(REBUILD_KIND_BY_INDEX, shard)
    breakdown: Dict[str, float] = {}
    if kind == "slice_copy":
        breakdown["scan"] = cost.scan_time(slice_bytes)
    elif kind == "bulk_load":
        breakdown["scan"] = cost.scan_time(slice_bytes)
        breakdown["write_structure"] = cost.gpu_memory_time(
            float(shard.index.footprint_bytes)
        )
        breakdown["bulk_load"] = cost.compute_time(float(n))
    else:  # retrain
        # Fit pass + error-bound verification pass over the keys.
        breakdown["scan"] = 2.0 * cost.scan_time(slice_bytes)
        breakdown["write_structure"] = cost.gpu_memory_time(
            float(shard.index.footprint_bytes)
        )
        breakdown["train"] = cost.compute_time(float(2 * n))
    breakdown["launches"] = (
        REBUILD_KERNELS * constants.kernel_launch_seconds
    )
    return RebuildCost(
        seconds=sum(breakdown.values()), kind=kind, breakdown=breakdown
    )


#: Compaction strategy per index name -- the per-type asymmetry the
#: paper calls out ("Harmonia/B+tree if the index must support inserts
#: and updates"): trees absorb delta tuples through traversal +
#: leaf-write, the RadixSpline must retrain over the merged keys, and
#: the implicit-array structure (binary search's sorted slice) rebuilds
#: outright.
COMPACTION_STRATEGY_BY_INDEX: Dict[str, str] = {
    "binary search": "rebuild",
    "B+tree": "absorb",
    "Harmonia": "absorb",
    "RadixSpline": "retrain",
}


@dataclass(frozen=True)
class CompactionCost:
    """Priced fold of one replica's delta tier into its base index.

    Same shape and currency as :class:`RebuildCost`, so the compaction
    scheduler can reuse the recovery event machinery unchanged.
    """

    seconds: float
    strategy: str
    breakdown: Dict[str, float]

    def describe(self) -> str:
        return f"{self.strategy}:{self.seconds:.9f}s"


def price_compaction(
    shard: Shard,
    delta_tuples: int,
    spec: SystemSpec = V100_NVLINK2,
    constants: CalibrationConstants = DEFAULT_CALIBRATION,
) -> CompactionCost:
    """Simulated seconds to merge ``delta_tuples`` into ``shard``'s index.

    Pure in (shard size, index type, delta size, machine spec), so
    compaction timelines replay bit-identically like rebuilds do.

    * ``absorb`` (B+tree, Harmonia): one traversal per delta tuple to
      the target leaf plus the leaf write -- random device accesses
      scaling with tree height, no touch of the base slice.
    * ``retrain`` (RadixSpline): the merged key run must be re-fit; two
      passes over ``n + d`` keys plus writing the model arrays.
    * ``rebuild`` (binary search): merge-write the new sorted slice
      and rebuild the structure over ``n + d`` tuples.
    """
    if delta_tuples <= 0:
        raise ConfigurationError(
            f"compaction needs a non-empty delta, got {delta_tuples} tuples"
        )
    cost = CostModel(spec, constants)
    n = shard.num_tuples
    d = int(delta_tuples)
    merged_bytes = float((n + d) * KEY_BYTES)
    strategy = _by_index(COMPACTION_STRATEGY_BY_INDEX, shard)
    breakdown: Dict[str, float] = {}
    if strategy == "absorb":
        height = float(max(1, shard.index.height))
        breakdown["traverse"] = cost.remote_random_time(d * (height + 1.0))
        breakdown["leaf_write"] = cost.gpu_memory_time(
            float(d * 2 * KEY_BYTES), random=True
        )
        breakdown["rebalance"] = cost.compute_time(float(d) * height)
    elif strategy == "retrain":
        breakdown["scan"] = 2.0 * cost.scan_time(merged_bytes)
        breakdown["write_structure"] = cost.gpu_memory_time(
            float(shard.index.footprint_bytes)
        )
        breakdown["train"] = cost.compute_time(float(2 * (n + d)))
    else:
        breakdown["merge_scan"] = cost.scan_time(merged_bytes)
        breakdown["write_structure"] = cost.gpu_memory_time(
            merged_bytes + float(shard.index.footprint_bytes)
        )
        breakdown["build"] = cost.compute_time(float(n + d))
    breakdown["launches"] = (
        REBUILD_KERNELS * constants.kernel_launch_seconds
    )
    return CompactionCost(
        seconds=sum(breakdown.values()),
        strategy=strategy,
        breakdown=breakdown,
    )
