"""Figure 9: PCIe 4.0 (A100) vs NVLink 2.0 (V100) (Section 5.2.3).

Paper setup: the two fastest INLJ variants (RadixSpline and Harmonia) with
32 MiB windows, against the hash join, on both machines.  Paper
observations: the hash join is ~1.7x faster on the A100 (faster GPU); the
INLJ-vs-hash crossover moves from 6.2 GiB (8.0% selectivity) on the V100
to 13.9 GiB (3.6%) on the A100, because fast interconnects serve random
accesses better than PCIe.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional, Sequence

from ..config import DEFAULT_S_TUPLES
from ..hardware.spec import A100_PCIE4, SystemSpec, V100_NVLINK2
from ..indexes import HarmoniaIndex, RadixSplineIndex
from ..perf.report import Series
from ..units import MIB
from .common import (
    ExperimentResult,
    ORDERED_SIM,
    Point,
    gib_to_tuples,
    price_points,
)

PAPER_EXPECTATION = (
    "Hash join ~1.7x faster on the A100; INLJ/hash crossover at 6.2 GiB "
    "(8.0% selectivity) on V100/NVLink vs 13.9 GiB (3.6%) on A100/PCIe4"
)

DEFAULT_R_SIZES_GIB = (2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0, 100.0)


def run(
    specs: Sequence[SystemSpec] = (V100_NVLINK2, A100_PCIE4),
    r_sizes_gib: Sequence[float] = DEFAULT_R_SIZES_GIB,
    window_bytes: int = 32 * MIB,
    sim=ORDERED_SIM,
    index_types: Sequence[type] = (RadixSplineIndex, HarmoniaIndex),
    workers: int = 1,
) -> ExperimentResult:
    """Sweep R on each machine; find the INLJ-vs-hash crossover.

    Both machines' points run as one sweep; ``workers > 1`` fans them
    across processes with bit-identical results (see
    :func:`repro.experiments.common.map_tasks`).
    """
    result = ExperimentResult(
        name="fig9",
        title="Windowed INLJ vs hash join across interconnects (Q/s)",
        x_label="R (GiB)",
        paper_expectation=PAPER_EXPECTATION,
    )
    points = []
    for spec in specs:
        tag = spec.interconnect.name
        for gib in r_sizes_gib:
            r_tuples = gib_to_tuples(gib)
            for index_cls in index_types:
                label = f"{index_cls.name} [{tag}] @ {gib} GiB"
                point = Point("windowed", spec, r_tuples, index_cls, sim, window_bytes=window_bytes)
                points.append(((index_cls, gib), label, point))
            point = Point("hash", spec, r_tuples, sim=sim)
            points.append(((None, gib), f"hash [{tag}] @ {gib} GiB", point))
    priced = price_points(result, points, workers)
    for spec in specs:
        tag = spec.interconnect.name
        hash_series = Series(f"hash join [{tag}]")
        index_series = {
            cls: Series(f"{cls.name} [{tag}]") for cls in index_types
        }
        # This machine's points, in sweep order (skips noted as they pass).
        for (index_cls, gib), cost in islice(priced, len(points) // len(specs)):
            if cost is None:
                continue
            series = hash_series if index_cls is None else index_series[index_cls]
            series.append(gib, cost.queries_per_second)
        for index_cls in index_types:
            result.series.append(index_series[index_cls])
        result.series.append(hash_series)
        crossover = find_crossover(
            index_series[index_types[0]], hash_series
        )
        if crossover is not None:
            selectivity = DEFAULT_S_TUPLES / gib_to_tuples(crossover) * 100
            result.notes.append(
                f"{tag}: {index_types[0].name}-INLJ overtakes the hash join "
                f"near {crossover:.1f} GiB (selectivity ~{selectivity:.1f}%)"
            )
        else:
            result.notes.append(f"{tag}: no crossover within the sweep")
    return result


def find_crossover(
    inlj: Series, hash_join: Series
) -> Optional[float]:
    """R (GiB) where the INLJ first beats the hash join, interpolated."""
    common = sorted(set(inlj.x) & set(hash_join.x))
    inlj_map = inlj.as_dict()
    hash_map = hash_join.as_dict()
    previous = None
    for x_value in common:
        diff = inlj_map[x_value] - hash_map[x_value]
        if diff > 0:
            if previous is None:
                return x_value
            prev_x, prev_diff = previous
            if diff == prev_diff:
                return x_value
            # Linear interpolation of the sign change.
            fraction = -prev_diff / (diff - prev_diff)
            return prev_x + fraction * (x_value - prev_x)
        previous = (x_value, diff)
    return None
