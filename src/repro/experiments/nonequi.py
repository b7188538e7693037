"""Non-equi sweep: band-join selectivity x window size x Zipf skew.

The paper's windowed partitioning (Section 5) is evaluated on
key-equality probes; ROADMAP item 3 asks whether it transfers to
non-equi predicates.  This sweep answers with the band join: at each
expected-matches level (band selectivity), each window size, and each
probe skew, the naive (stream-order) and windowed variants run the
same workload and report throughput plus the replay-counter
attribution -- per-lookup TLB misses, translation requests, divergence
replays, and cold faults -- so the advantage is visible in the counters
that price it, not just in the headline Q/s.

Every point is a :class:`~repro.experiments.common.Point` priced by
:func:`~repro.experiments.common.run_point` through
:func:`~repro.experiments.common.map_tasks`, so serial and pooled sweeps
are bit-identical (the CI bench-smoke job diffs a committed baseline of
this sweep's counters).
"""

from __future__ import annotations

from typing import Sequence

from ..hardware.spec import SystemSpec, V100_NVLINK2
from ..indexes import RadixSplineIndex
from ..perf.report import Series
from ..units import KEY_BYTES, MIB
from .common import (
    ExperimentResult,
    NAIVE_SIM,
    ORDERED_SIM,
    Point,
    gib_to_tuples,
    price_points,
)

PAPER_EXPECTATION = (
    "Windowed partitioning transfers to non-equi probes: both band "
    "bounds of a partitioned probe sweep the same index pages, so the "
    "windowed band join keeps the equi-INLJ's per-window TLB traffic "
    "while the naive variant pays two scattered traversals per probe"
)

#: Expected band matches per probe (the selectivity axis).
DEFAULT_MATCHES = (1.0, 4.0, 16.0)

#: Window sizes in probe tuples (2-32 MiB of 8-byte keys).
DEFAULT_WINDOW_TUPLES = (2**18, 2**20, 2**22)

#: Probe-skew axis (paper Fig. 8 sweeps 0-1.75; the endpoints suffice).
DEFAULT_THETAS = (0.0, 1.0)


def run(
    spec: SystemSpec = V100_NVLINK2,
    r_gib: float = 8.0,
    matches: Sequence[float] = DEFAULT_MATCHES,
    window_tuples: Sequence[int] = DEFAULT_WINDOW_TUPLES,
    thetas: Sequence[float] = DEFAULT_THETAS,
    workers: int = 1,
) -> ExperimentResult:
    """Sweep band selectivity x window size x skew, naive vs windowed.

    The naive variant has no window axis, so it contributes one series
    per theta; the windowed variant one series per (window, theta).
    ``workers > 1`` fans the points across processes with results
    identical to a serial run (see
    :func:`repro.experiments.common.map_tasks`).
    """
    result = ExperimentResult(
        name="nonequi",
        title=(
            f"Band join, naive vs windowed, R = {r_gib:g} GiB "
            "(Q/s vs expected matches/probe)"
        ),
        x_label="matches/probe",
        paper_expectation=PAPER_EXPECTATION,
    )
    r_tuples = gib_to_tuples(r_gib)
    points = []
    for theta in thetas:
        for m in matches:
            point = Point(
                "band", spec, r_tuples, RadixSplineIndex, NAIVE_SIM,
                zipf_theta=theta, matches=m,
            )
            points.append(((f"naive z={theta:g}", m), point.label, point))
        for window in window_tuples:
            series_label = f"windowed {window * KEY_BYTES // MIB} MiB z={theta:g}"
            for m in matches:
                point = Point(
                    "windowed-band", spec, r_tuples, RadixSplineIndex, ORDERED_SIM,
                    zipf_theta=theta, window_bytes=window * KEY_BYTES, matches=m,
                )
                points.append(((series_label, m), point.label, point))
    series: dict = {}
    attribution: dict = {}
    for (series_label, m), cost in price_points(result, points, workers):
        if cost is None:
            continue
        series.setdefault(series_label, Series(series_label)).append(
            m, cost.queries_per_second
        )
        attribution.setdefault(series_label, cost)
    result.series = list(series.values())
    for label, cost in attribution.items():
        counters = cost.counters
        lookups = counters.lookups
        result.notes.append(
            f"{label}: {counters.tlb_misses / lookups:.3g} TLB misses, "
            f"{counters.translation_requests / lookups:.3g} translation "
            f"requests, {counters.divergence_replays / lookups:.3g} "
            f"divergence replays per bound lookup; "
            f"{counters.tlb_cold_misses:g} cold faults "
            f"(at {cost.breakdown['band_epsilon']:g}-wide band)"
        )
    _annotate(result, thetas)
    return result


def _annotate(result: ExperimentResult, thetas: Sequence[float]) -> None:
    """Headline advantage: best windowed vs naive, per theta."""
    by_label = result.series_by_label()
    for theta in thetas:
        naive = by_label.get(f"naive z={theta:g}")
        windowed = [
            series
            for label, series in by_label.items()
            if label.startswith("windowed") and label.endswith(f"z={theta:g}")
        ]
        if naive is None or not naive.y or not windowed:
            continue
        best = max(
            (max(series.y) for series in windowed if series.y), default=0.0
        )
        if naive.y[0] > 0:
            result.notes.append(
                f"z={theta:g}: best windowed {best:.3f} Q/s vs naive "
                f"{max(naive.y):.3f} Q/s ({best / max(naive.y):.2f}x)"
            )
