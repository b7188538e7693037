"""Shared experiment scaffolding.

The paper's standard setup (Section 3.2): S fixed at 2^26 tuples, R scaled
from 2^26 to 2^33.9 tuples (0.5-120 GiB), V100 + NVLink 2.0, 2048-way
radix partitioning ignoring the 4 least significant bits, throughput over
the whole query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Type

from .. import obs
from ..config import (
    DEFAULT_IGNORED_LSB,
    DEFAULT_NUM_PARTITIONS,
    SimulationConfig,
)
from ..data.column import Column
from ..data.generator import WorkloadConfig
from ..errors import CapacityError, ConfigurationError
from ..hardware.spec import SystemSpec, V100_NVLINK2
from ..join.base import QueryEnvironment
from ..join.hash_join import HashJoin
from ..join.inlj import IndexNestedLoopJoin
from ..join.nonequi import BandJoin, WindowedBandJoin
from ..join.partitioned import PartitionedINLJ
from ..join.window import WindowedINLJ
from ..partition.bits import choose_partition_bits
from ..partition.radix import RadixPartitioner
from ..perf.model import QueryCost
from ..perf.report import Series, format_series_table
from ..resilience import faults
from ..units import GIB, KEY_BYTES
from ..workloads.nonequi import band_epsilon_for_matches
from . import cache

#: R sizes (GiB) swept by Figs. 3-6.  The paper scales 0.5-120 GiB; the
#: last point matches the paper's quoted "111 GiB" measurements.
DEFAULT_R_SIZES_GIB = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0, 64.0, 111.0)

#: Event-simulation sample sizes.  Naive (random-order) runs need a sample
#: wider than the TLB so inter-thread thrashing is fully expressed; ordered
#: runs use the analytic TLB and can sample less.
NAIVE_SIM = SimulationConfig(probe_sample=2**16)
ORDERED_SIM = SimulationConfig(probe_sample=2**14)


def gib_to_tuples(gib: float) -> int:
    """R size in tuples for a target size in GiB (8-byte keys)."""
    return max(1, int(gib * GIB) // KEY_BYTES)


def make_environment(
    spec: SystemSpec,
    r_tuples: int,
    index_cls: Optional[Type] = None,
    sim: SimulationConfig = ORDERED_SIM,
    zipf_theta: float = 0.0,
    index_kwargs: Optional[dict] = None,
) -> QueryEnvironment:
    """Standard-workload environment on ``spec``.

    Raises :class:`~repro.errors.CapacityError` when the relation or the
    index exceeds the machine's memory (the paper's reduced R limits);
    callers skip that point, as the paper's figures do.

    Routed through :mod:`repro.experiments.cache`: when the session cache
    is enabled (runner, benchmark harness, ``repro bench``), identical
    requests share one environment instead of rebuilding the index.
    """
    workload = WorkloadConfig(r_tuples=r_tuples, zipf_theta=zipf_theta)
    return cache.environment(
        spec, workload, index_cls=index_cls, sim=sim, index_kwargs=index_kwargs
    )


def default_partitioner(column: Column) -> RadixPartitioner:
    """The paper's partitioner: 2048 partitions, 4 LSBs ignored (S4.3.1)."""
    bits = choose_partition_bits(
        column,
        num_partitions=DEFAULT_NUM_PARTITIONS,
        ignored_lsb=DEFAULT_IGNORED_LSB,
    )
    return RadixPartitioner(bits)


@dataclass
class ExperimentResult:
    """Output of one experiment: labelled series plus free-form notes.

    Attributes:
        name: experiment id (e.g. ``"fig5"``).
        title: human-readable description.
        x_label: meaning of the series' x values.
        series: one entry per line of the figure.
        notes: per-run remarks (skipped points, DNFs, derived metrics).
        paper_expectation: what the paper reports, for EXPERIMENTS.md.
    """

    name: str
    title: str
    x_label: str
    series: List[Series] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    paper_expectation: str = ""

    def series_by_label(self) -> Dict[str, Series]:
        return {series.label: series for series in self.series}

    def to_text(self, y_format: str = "{:.3f}") -> str:
        """Figure-like text table plus notes."""
        parts = [
            format_series_table(
                self.series,
                x_label=self.x_label,
                y_format=y_format,
                title=f"{self.name}: {self.title}",
            )
        ]
        for note in self.notes:
            parts.append(f"  note: {note}")
        if self.paper_expectation:
            parts.append(f"  paper: {self.paper_expectation}")
        return "\n".join(parts)


@dataclass(frozen=True)
class Point:
    """One sweep point: a join priced on one machine at one R, window and skew.

    The unit of work of every figure.  It holds plain picklable values,
    so pool workers receive it, and every RNG stream of the point
    derives from ``sim.seed``, so pooled sweeps equal serial ones.
    ``kind`` names the join: ``inlj`` (naive), ``partitioned``,
    ``windowed``, ``hash``, ``band`` (naive) or ``windowed-band``;
    ``index_cls`` is None for the hash join and ``matches`` (expected
    band matches per probe) is read by the band joins only.
    """

    kind: str
    spec: SystemSpec
    r_tuples: int
    index_cls: Optional[Type] = None
    sim: SimulationConfig = ORDERED_SIM
    zipf_theta: float = 0.0
    window_bytes: int = 0
    matches: float = 0.0

    @property
    def label(self) -> str:
        """Short name that ``match=`` fault plans select points by.

        ``kind:IndexClass:r_tuples`` (``none`` for the hash join), then
        ``:w<window bytes>`` and ``:z<theta>`` where set; band points
        read ``nonequi:<naive|windowed>:r_tuples:m<matches>:w<window
        tuples>:z<theta>``.  A machine other than the V100 appends
        ``@<interconnect>``.
        """
        if self.kind in _BAND_VARIANTS:
            label = (
                f"nonequi:{_BAND_VARIANTS[self.kind]}:{self.r_tuples}"
                f":m{self.matches:g}:w{self.window_bytes // KEY_BYTES}"
                f":z{self.zipf_theta:g}"
            )
        else:
            index_name = (
                self.index_cls.__name__ if self.index_cls is not None else "none"
            )
            label = f"{self.kind}:{index_name}:{self.r_tuples}"
            if self.window_bytes:
                label += f":w{self.window_bytes}"
            if self.zipf_theta:
                label += f":z{self.zipf_theta:g}"
        if self.spec != V100_NVLINK2:
            label += f"@{self.spec.interconnect.name}"
        return label


#: Band point kinds and the variant their labels name.
_BAND_VARIANTS = {"band": "naive", "windowed-band": "windowed"}

#: The operator each point kind prices, built over the point's environment.
_OPERATORS = {
    "inlj": lambda env, point: IndexNestedLoopJoin(env.index),
    "partitioned": lambda env, point: PartitionedINLJ(
        env.index, default_partitioner(env.column)
    ),
    "windowed": lambda env, point: WindowedINLJ(
        env.index, default_partitioner(env.column), point.window_bytes
    ),
    "hash": lambda env, point: HashJoin(env.relation),
    "band": lambda env, point: BandJoin(
        env.index, band_epsilon_for_matches(env.column, point.matches)
    ),
    "windowed-band": lambda env, point: WindowedBandJoin(
        env.index,
        default_partitioner(env.column),
        band_epsilon_for_matches(env.column, point.matches),
        point.window_bytes,
    ),
}


def run_point(point: Point):
    """Price one sweep point; returns ``("ok", cost) | ("skip", message)``.

    The single code path behind every figure, serial or pooled.  A point
    that does not fit the machine (:class:`CapacityError`) is a skip, as
    the paper drops B+tree/Harmonia points past their memory limit
    (Section 3.2).  Band points add their band half-width to the cost's
    breakdown as ``band_epsilon``.

    The ``point`` fault site fires first, with the point's label, so
    injected raises and worker crashes (see :mod:`repro.resilience.faults`)
    happen in exactly the process -- serial parent or pool worker --
    pricing the point.
    """
    faults.check("point", point.label)
    build = _OPERATORS.get(point.kind)
    if build is None:
        raise ConfigurationError(f"unknown point kind: {point.kind!r}")
    try:
        env = make_environment(
            point.spec, point.r_tuples, point.index_cls, point.sim,
            point.zipf_theta,
        )
        join = build(env, point)
        cost = join.estimate(env)
    except CapacityError as error:
        return ("skip", str(error))
    if point.kind in _BAND_VARIANTS:
        cost.breakdown["band_epsilon"] = float(join.epsilon)
    return ("ok", cost)


def price_points(
    result: ExperimentResult,
    points: Sequence[Tuple[Hashable, str, Point]],
    workers: int = 1,
) -> Iterator[Tuple[Hashable, Optional[QueryCost]]]:
    """Price ``(key, label, point)`` triples in one sweep; yield ``(key, cost)``.

    A skipped point yields ``(key, None)`` and appends ``"<label>: skipped
    (<reason>)"`` to ``result.notes`` as the caller reaches it, so skips
    interleave with the caller's own notes in sweep order.
    """
    outcomes = map_tasks(run_point, [point for _, _, point in points], workers)
    for (key, label, _), (status, value) in zip(points, outcomes):
        if status == "skip":
            result.notes.append(f"{label}: skipped ({value})")
            value = None
        yield key, value


def r_size_sweep(
    kind: str,
    throughput: ExperimentResult,
    requests: ExperimentResult,
    spec: SystemSpec,
    r_sizes_gib: Sequence[float],
    sim: SimulationConfig,
    index_types: Sequence[Type],
    include_hash_join: bool = True,
    workers: int = 1,
) -> None:
    """The R x index sweep of one INLJ ``kind``, plus the hash join.

    Behind Figs. 3/4 (``inlj``) and 5/6 (``partitioned``): fills
    ``throughput`` with one Q/s series per index (then ``hash join``)
    and ``requests`` with each index's translation requests per lookup.
    """
    index_series = {cls: Series(cls.name) for cls in index_types}
    request_series = {cls: Series(cls.name) for cls in index_types}
    hash_series = Series("hash join")
    points = []
    for gib in r_sizes_gib:
        r_tuples = gib_to_tuples(gib)
        for index_cls in index_types:
            point = Point(kind, spec, r_tuples, index_cls, sim)
            points.append(((gib, index_cls), f"{index_cls.name} @ {gib} GiB", point))
        if include_hash_join:
            point = Point("hash", spec, r_tuples, sim=sim)
            points.append(((gib, None), f"hash join @ {gib} GiB", point))
    for (gib, index_cls), cost in price_points(throughput, points, workers):
        if cost is None:
            continue
        if index_cls is None:
            hash_series.append(gib, cost.queries_per_second)
            continue
        index_series[index_cls].append(gib, cost.queries_per_second)
        request_series[index_cls].append(
            gib, cost.counters.translation_requests_per_lookup
        )
    throughput.series = [index_series[cls] for cls in index_types]
    if include_hash_join:
        throughput.series.append(hash_series)
    requests.series = [request_series[cls] for cls in index_types]


def validate_workers(workers) -> int:
    """Reject nonsense ``--workers`` values before they reach a pool."""
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ConfigurationError(
            f"workers must be an integer, got {workers!r}"
        )
    if workers < 1:
        raise ConfigurationError(
            f"workers must be >= 1, got {workers} "
            "(1 = serial, N = N sweep processes)"
        )
    return workers


def resolve_workers(workers) -> int:
    """Worker count with ``0``/``None`` meaning auto: one per CPU core."""
    if workers is None:
        workers = 0
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ConfigurationError(
            f"workers must be an integer, got {workers!r}"
        )
    if workers == 0:
        import os

        return max(1, os.cpu_count() or 1)
    return validate_workers(workers)


#: Sweep diagnostics of this process since the last ``clear()``: points
#: submitted to :func:`map_tasks` and points completed, summed over its
#: calls (the runner clears it per experiment, so an experiment that runs
#: two sweeps reports both).  Read by the runner's failure reports; never
#: consulted for control flow.
LAST_SWEEP: dict = {}


def map_tasks(run_task, tasks: Sequence, workers: int = 1) -> list:
    """Run picklable tasks serially or across processes, in task order.

    The one engine behind every figure's points (:func:`run_point`) and
    the serve-bench sweep.  Each task runs through the same ``run_task``
    function either way, so serial and pooled runs produce bit-identical
    output -- provided ``run_task`` is a pure function of its task
    (derive every RNG stream from the task itself).

    ``run_task`` must be a module-level function (pool workers receive
    it by pickle).

    A failure is loud, never recovered: a task that raises fails the
    sweep with its own exception, and a worker that dies fails it with
    :class:`concurrent.futures.process.BrokenProcessPool`.  The runner
    isolates either per experiment.
    """
    tasks = list(tasks)
    if workers is not None:
        validate_workers(workers)
    LAST_SWEEP["points"] = LAST_SWEEP.get("points", 0) + len(tasks)
    LAST_SWEEP.setdefault("computed", 0)
    results: list = []
    # Pooled workers collect obs counters in their own process and do not
    # report them back; traced sweeps that must account every op (e.g. the
    # CI bench-smoke manifest) run serially.
    with obs.span("sweep.map", points=len(tasks), workers=workers or 1):
        if workers is None or workers <= 1 or len(tasks) <= 1:
            for task in tasks:
                results.append(run_task(task))
                LAST_SWEEP["computed"] += 1
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                min(workers, len(tasks)), initializer=faults.reset_for_worker
            ) as pool:
                for outcome in pool.map(run_task, tasks):
                    results.append(outcome)
                    LAST_SWEEP["computed"] += 1
    if obs.enabled() and tasks:
        # Every task completed, or its exception ended the sweep above.
        obs.add("sweep.points", float(len(tasks)))
        obs.add("sweep.computed", float(len(results)))
    return results

