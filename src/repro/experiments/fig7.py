"""Figure 7: impact of the window size on query throughput (Section 5.2.1).

Paper setup: S fixed at 2^26 tuples, R fixed at 100 GiB, window size swept
from 2^18 to 2^26 tuples (2-512 MiB).  Paper observations: all index
structures stay within 2x across the sweep (no TLB-induced collapse);
the RadixSpline peaks for small windows (4-52 MiB); Harmonia also prefers
small windows; binary search and the B+tree vary only mildly.
"""

from __future__ import annotations

from typing import Sequence

from ..hardware.spec import SystemSpec, V100_NVLINK2
from ..indexes import ALL_INDEX_TYPES
from ..perf.report import Series
from ..units import KEY_BYTES, MIB
from .common import (
    ExperimentResult,
    ORDERED_SIM,
    Point,
    gib_to_tuples,
    price_points,
)

PAPER_EXPECTATION = (
    "Throughput within 2x across 2-512 MiB windows; RadixSpline peaks at "
    "4-52 MiB, Harmonia prefers small windows, binary search and B+tree "
    "show minor variation"
)

#: The paper's sweep: 2^18-2^26 tuples (2-512 MiB of 8-byte keys).
DEFAULT_WINDOW_TUPLES = tuple(2**exp for exp in range(18, 27))


def run(
    spec: SystemSpec = V100_NVLINK2,
    r_gib: float = 100.0,
    window_tuples: Sequence[int] = DEFAULT_WINDOW_TUPLES,
    sim=ORDERED_SIM,
    index_types: Sequence[type] = ALL_INDEX_TYPES,
    workers: int = 1,
) -> ExperimentResult:
    """Sweep the window size at fixed R.

    ``workers > 1`` fans the points across processes with bit-identical
    results (see :func:`repro.experiments.common.map_tasks`).
    """
    result = ExperimentResult(
        name="fig7",
        title=f"Windowed INLJ throughput vs window size, R = {r_gib:g} GiB (Q/s)",
        x_label="window (MiB)",
        paper_expectation=PAPER_EXPECTATION,
    )
    r_tuples = gib_to_tuples(r_gib)
    series_by_index = {cls: Series(cls.name) for cls in index_types}
    points = []
    for tuples in window_tuples:
        window_bytes = tuples * KEY_BYTES
        for index_cls in index_types:
            label = f"{index_cls.name} @ {window_bytes // MIB} MiB"
            point = Point("windowed", spec, r_tuples, index_cls, sim, window_bytes=window_bytes)
            points.append(((index_cls, window_bytes / MIB), label, point))
    for (index_cls, window_mib), cost in price_points(result, points, workers):
        if cost is not None:
            series_by_index[index_cls].append(window_mib, cost.queries_per_second)
    result.series = [series_by_index[cls] for cls in index_types]
    for series in result.series:
        if series.y:
            spread = max(series.y) / min(series.y) if min(series.y) > 0 else 0
            best_at = series.x[series.y.index(max(series.y))]
            result.notes.append(
                f"{series.label}: best at {best_at:g} MiB windows, "
                f"max/min spread {spread:.2f}x"
            )
    return result
