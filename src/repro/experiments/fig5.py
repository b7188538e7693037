"""Figure 5: throughput when partitioning the lookup keys (Section 4.3.1).

Paper observations: the sudden drop of Fig. 3 is remedied; throughput is
higher even below the 32 GiB mark; tree/binary indexes follow a gentle
logarithmic downward trend; at 111 GiB the INLJs reach 0.6 (B+tree), 0.7
(binary search), 1.0 (Harmonia), and 1.9 (RadixSpline) Q/s vs 0.2 Q/s for
the hash join -- up to 10x.

Both Fig. 5 and Fig. 6 derive from this sweep (the estimate's counters
carry the partitioned translation-request rate).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..hardware.spec import SystemSpec, V100_NVLINK2
from ..indexes import ALL_INDEX_TYPES
from .common import (
    DEFAULT_R_SIZES_GIB,
    ExperimentResult,
    ORDERED_SIM,
    r_size_sweep,
)

PAPER_EXPECTATION = (
    "At 111 GiB: 0.6 (B+tree), 0.7 (binary search), 1.0 (Harmonia), "
    "1.9 (RadixSpline) Q/s vs 0.2 for the hash join -- up to 10x speedup"
)


def run(
    spec: SystemSpec = V100_NVLINK2,
    r_sizes_gib: Sequence[float] = DEFAULT_R_SIZES_GIB,
    sim=ORDERED_SIM,
    index_types: Sequence[type] = ALL_INDEX_TYPES,
    include_hash_join: bool = True,
    workers: int = 1,
) -> Tuple[ExperimentResult, ExperimentResult]:
    """Sweep R with partitioned lookups; returns (fig5, fig6 input).

    The second result holds the partitioned translation-request rate per
    index; :mod:`repro.experiments.fig6` combines it with Fig. 4's rates
    into the elimination percentages.  ``workers > 1`` fans the
    independent points across processes with bit-identical results (see
    :func:`repro.experiments.common.map_tasks`).
    """
    throughput = ExperimentResult(
        name="fig5",
        title="Query throughput with partitioned lookup keys (Q/s)",
        x_label="R (GiB)",
        paper_expectation=PAPER_EXPECTATION,
    )
    requests = ExperimentResult(
        name="fig5.requests",
        title="Translation requests per lookup, partitioned",
        x_label="R (GiB)",
    )
    r_size_sweep(
        "partitioned", throughput, requests, spec, r_sizes_gib, sim,
        index_types, include_hash_join, workers,
    )
    _annotate(throughput)
    return throughput, requests


def _annotate(throughput: ExperimentResult) -> None:
    by_label = throughput.series_by_label()
    hash_series = by_label.get("hash join")
    if not hash_series or not hash_series.y:
        return
    hash_last = hash_series.y[-1]
    for series in throughput.series:
        if series.label == "hash join" or not series.y:
            continue
        speedup = series.y[-1] / hash_last if hash_last > 0 else float("inf")
        throughput.notes.append(
            f"{series.label}: {series.y[-1]:.2f} Q/s at {series.x[-1]:g} GiB "
            f"= {speedup:.1f}x over the hash join"
        )
