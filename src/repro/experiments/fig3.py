"""Figure 3: query throughput of the naive INLJ vs the hash join.

Paper observations (Section 3.3.1): the INLJ never outperforms the hash
join; INLJ throughput drops suddenly once R grows beyond the 32 GiB GPU
TLB range, while the hash join declines smoothly with the growing table
scan.  At 111 GiB the hash join runs at ~0.2 Q/s.

:func:`run` also returns the per-lookup translation-request series -- the
same simulation produces Figure 4's data -- so the two figures share one
(expensive) sweep.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..hardware.spec import SystemSpec, V100_NVLINK2
from ..indexes import ALL_INDEX_TYPES
from .common import (
    DEFAULT_R_SIZES_GIB,
    ExperimentResult,
    NAIVE_SIM,
    r_size_sweep,
)

PAPER_EXPECTATION = (
    "No INLJ outperforms the hash join; INLJ throughput drops suddenly "
    "past 32 GiB; hash join declines smoothly to ~0.2 Q/s at 111 GiB"
)


def run(
    spec: SystemSpec = V100_NVLINK2,
    r_sizes_gib: Sequence[float] = DEFAULT_R_SIZES_GIB,
    sim=NAIVE_SIM,
    index_types: Sequence[type] = ALL_INDEX_TYPES,
    workers: int = 1,
) -> Tuple[ExperimentResult, ExperimentResult]:
    """Sweep R; returns (fig3 throughput, fig4 translation requests).

    ``workers > 1`` fans the independent (R size, index) points across
    that many processes; results are identical to a serial run (see
    :func:`repro.experiments.common.map_tasks`).
    """
    throughput = ExperimentResult(
        name="fig3",
        title="Query throughput, naive INLJ vs hash join (Q/s)",
        x_label="R (GiB)",
        paper_expectation=PAPER_EXPECTATION,
    )
    requests = ExperimentResult(
        name="fig4",
        title="Address translation requests per index lookup",
        x_label="R (GiB)",
        paper_expectation=(
            "Near zero below 32 GiB, spiking at the 32 GiB TLB range; "
            "~105 requests/key for binary search and ~11.3 for Harmonia "
            "at 111 GiB"
        ),
    )
    r_size_sweep(
        "inlj", throughput, requests, spec, r_sizes_gib, sim, index_types,
        workers=workers,
    )
    _annotate(throughput, requests)
    return throughput, requests


def _annotate(
    throughput: ExperimentResult, requests: ExperimentResult
) -> None:
    """Derive the figures' headline observations from the data."""
    hash_series = throughput.series_by_label().get("hash join")
    inlj_lasts = [
        series.y[-1]
        for series in throughput.series
        if series.label != "hash join" and series.y
    ]
    if hash_series and hash_series.y and inlj_lasts:
        best_inlj_last = max(inlj_lasts)
        beats = best_inlj_last > hash_series.y[-1]
        throughput.notes.append(
            "largest-R check: best naive INLJ "
            f"{best_inlj_last:.2f} Q/s vs hash {hash_series.y[-1]:.2f} Q/s "
            f"({'INLJ wins (deviation!)' if beats else 'hash wins, as in the paper'})"
        )
    for series in requests.series:
        if len(series) >= 2 and series.y[-1] > 0:
            requests.notes.append(
                f"{series.label}: {series.y[0]:.2f} requests/key at "
                f"{series.x[0]:g} GiB vs {series.y[-1]:.1f} at {series.x[-1]:g} GiB"
            )
