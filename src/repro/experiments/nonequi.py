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

Every point is a picklable task through
:func:`repro.experiments.common.map_tasks`, so serial and pooled sweeps
are bit-identical (the CI bench-smoke job diffs a committed baseline of
this sweep's payloads).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import CapacityError, ConfigurationError
from ..hardware.spec import SystemSpec, V100_NVLINK2
from ..indexes import RadixSplineIndex
from ..join.nonequi import BandJoin, WindowedBandJoin
from ..perf.report import Series
from ..units import KEY_BYTES, MIB
from ..workloads.nonequi import band_epsilon_for_matches
from ..resilience import faults
from .common import (
    ExperimentResult,
    NAIVE_SIM,
    ORDERED_SIM,
    default_partitioner,
    gib_to_tuples,
    make_environment,
    map_tasks,
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

#: One sweep point: variant, machine, R tuples, expected matches,
#: window tuples (0 for the windowless naive variant), Zipf theta.
NonEquiTask = Tuple[str, SystemSpec, int, float, int, float]


def nonequi_task_label(task: NonEquiTask) -> str:
    """Short human/fault-matchable name for one sweep point."""
    variant, _spec, r_tuples, matches, window_tuples, theta = task
    return (
        f"nonequi:{variant}:{r_tuples}:m{matches:g}:w{window_tuples}"
        f":z{theta:g}"
    )


def run_nonequi_point(task: NonEquiTask):
    """Simulate one band-join point; ``("ok", payload) | ("skip", msg)``.

    The payload is a plain dict of floats (picklable, JSON-stable), and
    every RNG stream derives from the task alone -- the properties that
    make serial and pooled sweeps bit-identical.
    """
    variant, spec, r_tuples, matches, window_tuples, theta = task
    faults.check("point", nonequi_task_label(task))

    try:
        if variant == "naive":
            env = make_environment(
                spec, r_tuples, index_cls=RadixSplineIndex,
                sim=NAIVE_SIM, zipf_theta=theta,
            )
            epsilon = band_epsilon_for_matches(env.column, matches)
            join = BandJoin(env.index, epsilon)
        elif variant == "windowed":
            env = make_environment(
                spec, r_tuples, index_cls=RadixSplineIndex,
                sim=ORDERED_SIM, zipf_theta=theta,
            )
            epsilon = band_epsilon_for_matches(env.column, matches)
            join = WindowedBandJoin(
                env.index,
                default_partitioner(env.column),
                epsilon,
                window_bytes=window_tuples * KEY_BYTES,
            )
        else:
            raise ConfigurationError(f"unknown variant: {variant!r}")
        cost = join.estimate(env)
    except CapacityError as error:
        return ("skip", str(error))
    counters = cost.counters
    payload = {
        "qps": cost.queries_per_second,
        "epsilon": float(epsilon),
        "tlb_misses_per_lookup": counters.tlb_misses / counters.lookups,
        "translation_requests_per_lookup": (
            counters.translation_requests / counters.lookups
        ),
        "divergence_replays_per_lookup": (
            counters.divergence_replays / counters.lookups
        ),
        "tlb_cold_misses": counters.tlb_cold_misses,
    }
    return ("ok", payload)


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
    tasks: list = []
    labels: list = []
    for theta in thetas:
        for m in matches:
            tasks.append(("naive", spec, r_tuples, m, 0, theta))
            labels.append((f"naive z={theta:g}", m))
        for window in window_tuples:
            for m in matches:
                tasks.append(("windowed", spec, r_tuples, m, window, theta))
                labels.append(
                    (
                        f"windowed {window * KEY_BYTES // MIB} MiB "
                        f"z={theta:g}",
                        m,
                    )
                )
    series: dict = {}
    attribution: dict = {}
    outcomes = map_tasks(run_nonequi_point, tasks, workers=workers)
    for (series_label, m), task, outcome in zip(labels, tasks, outcomes):
        if outcome[0] == "skip":
            result.notes.append(
                f"{nonequi_task_label(task)}: skipped ({outcome[1]})"
            )
            continue
        payload = outcome[1]
        series.setdefault(series_label, Series(series_label)).append(
            m, payload["qps"]
        )
        attribution.setdefault(series_label, payload)
    result.series = list(series.values())
    for label, payload in attribution.items():
        result.notes.append(
            f"{label}: {payload['tlb_misses_per_lookup']:.3g} TLB misses, "
            f"{payload['translation_requests_per_lookup']:.3g} translation "
            f"requests, {payload['divergence_replays_per_lookup']:.3g} "
            f"divergence replays per bound lookup; "
            f"{payload['tlb_cold_misses']:g} cold faults "
            f"(at {payload['epsilon']:g}-wide band)"
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
