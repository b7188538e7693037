"""Section 6 headline claims, measured.

The paper's discussion distills four quantitative claims:

1. the index reduces the transfer volume by up to ~12x vs a table scan;
2. TLB misses cost up to 16.7x of naive INLJ throughput on large data;
3. an out-of-core INLJ outperforms the hash join below ~8.0% selectivity;
4. the RadixSpline is 1.1-1.8x faster than the second-best index
   (Harmonia).

This module measures each claim with the same machinery as the figures and
reports paper-vs-measured pairs: the ten points of claims 1, 2 and 4 run
as one sweep through :func:`~repro.experiments.common.run_point`, and
claim 3 reads Fig. 9's sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..config import DEFAULT_S_TUPLES
from ..errors import CapacityError
from ..hardware.spec import SystemSpec, V100_NVLINK2
from ..indexes import BinarySearchIndex, HarmoniaIndex, RadixSplineIndex
from ..perf.model import QueryCost
from ..units import GIB, MIB
from .common import (
    NAIVE_SIM,
    Point,
    gib_to_tuples,
    map_tasks,
    run_point,
)
from . import fig9

#: R (GiB) of claims 1 and 2 (the paper's 111 GiB) and of claim 4
#: (Figs. 7 and 8's 100 GiB).
CLAIM_R_GIB = 111.0
RANKING_R_GIB = 100.0

#: Indexes whose naive-vs-partitioned drop claim 2 measures.
TLB_DROP_INDEXES = (BinarySearchIndex, HarmoniaIndex, RadixSplineIndex)


@dataclass
class Claim:
    """One paper claim with its measured counterpart."""

    name: str
    paper: str
    measured: str
    holds: bool

    def to_text(self) -> str:
        status = "HOLDS" if self.holds else "DEVIATES"
        return (
            f"[{status}] {self.name}\n"
            f"    paper:    {self.paper}\n"
            f"    measured: {self.measured}"
        )


def transfer_volume_claim(costs: Dict[object, QueryCost]) -> Claim:
    """Claim 1: index scans move far less data than table scans."""
    inlj_bytes = costs["indexed"].counters.remote_bytes
    scan_bytes = costs["scanned"].counters.remote_bytes
    reduction = scan_bytes / inlj_bytes if inlj_bytes > 0 else float("inf")
    return Claim(
        name="index reduces interconnect transfer volume",
        paper="up to ~12x less transfer volume than a table scan",
        measured=(
            f"{reduction:.1f}x at {CLAIM_R_GIB:g} GiB "
            f"({inlj_bytes / GIB:.1f} GiB indexed vs "
            f"{scan_bytes / GIB:.1f} GiB scanned)"
        ),
        holds=reduction >= 4.0,
    )


def tlb_drop_claim(costs: Dict[object, QueryCost]) -> Claim:
    """Claim 2: TLB misses cost naive INLJs a large throughput factor."""
    worst_drop = 0.0
    worst_index = ""
    for index_cls in TLB_DROP_INDEXES:
        naive = costs["naive", index_cls].queries_per_second
        if naive > 0:
            drop = costs["partitioned", index_cls].queries_per_second / naive
            if drop > worst_drop:
                worst_drop = drop
                worst_index = index_cls.name
    return Claim(
        name="TLB misses cause the naive INLJ throughput drop",
        paper="throughput drop of up to 16.7x on large data",
        measured=(
            f"up to {worst_drop:.1f}x ({worst_index}) at {CLAIM_R_GIB:g} GiB"
        ),
        holds=worst_drop >= 8.0,
    )


def selectivity_claim(spec: SystemSpec = V100_NVLINK2, workers: int = 1) -> Claim:
    """Claim 3: the INLJ wins below a selectivity threshold."""
    result = fig9.run(
        specs=(spec,),
        r_sizes_gib=(2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0),
        index_types=(RadixSplineIndex,),
        workers=workers,
    )
    by_label = result.series_by_label()
    tag = spec.interconnect.name
    crossover = fig9.find_crossover(
        by_label[f"RadixSpline [{tag}]"], by_label[f"hash join [{tag}]"]
    )
    if crossover is None:
        return Claim(
            name="INLJ outperforms the hash join below a selectivity threshold",
            paper="below 8.0% selectivity (V100)",
            measured="no crossover found in the sweep",
            holds=False,
        )
    selectivity = DEFAULT_S_TUPLES / gib_to_tuples(crossover) * 100
    return Claim(
        name="INLJ outperforms the hash join below a selectivity threshold",
        paper="below 8.0% selectivity, i.e. beyond 6.2 GiB (V100)",
        measured=f"beyond ~{crossover:.1f} GiB (selectivity ~{selectivity:.1f}%)",
        holds=crossover <= 20.0,
    )


def index_ranking_claim(costs: Dict[object, QueryCost]) -> Claim:
    """Claim 4: RadixSpline beats Harmonia by 1.1-1.8x."""
    ratio = (
        costs["ranking", RadixSplineIndex].queries_per_second
        / costs["ranking", HarmoniaIndex].queries_per_second
    )
    return Claim(
        name="RadixSpline is the fastest out-of-core index",
        paper="1.1-1.8x higher throughput than Harmonia",
        measured=f"{ratio:.2f}x over Harmonia at {RANKING_R_GIB:g} GiB",
        holds=1.05 <= ratio <= 2.5,
    )


def run(spec: SystemSpec = V100_NVLINK2, workers: int = 1) -> List[Claim]:
    """Measure all Section 6 claims.

    ``workers > 1`` fans the points across processes with bit-identical
    results (see :func:`repro.experiments.common.map_tasks`).  A claim
    needs every one of its points, so a point that does not fit the
    machine raises :class:`~repro.errors.CapacityError`.
    """
    r_tuples = gib_to_tuples(CLAIM_R_GIB)
    points = {
        "indexed": Point(
            "windowed", spec, r_tuples, RadixSplineIndex, window_bytes=32 * MIB
        ),
        "scanned": Point("hash", spec, r_tuples),
    }
    for index_cls in TLB_DROP_INDEXES:
        points["naive", index_cls] = Point(
            "inlj", spec, r_tuples, index_cls, NAIVE_SIM
        )
        points["partitioned", index_cls] = Point(
            "partitioned", spec, r_tuples, index_cls
        )
    for index_cls in (RadixSplineIndex, HarmoniaIndex):
        points["ranking", index_cls] = Point(
            "windowed", spec, gib_to_tuples(RANKING_R_GIB), index_cls,
            window_bytes=32 * MIB,
        )
    costs = {}
    outcomes = map_tasks(run_point, list(points.values()), workers)
    for key, (status, value) in zip(points, outcomes):
        if status == "skip":
            raise CapacityError(value)
        costs[key] = value
    return [
        transfer_volume_claim(costs),
        tlb_drop_claim(costs),
        selectivity_claim(spec, workers=workers),
        index_ranking_claim(costs),
    ]
