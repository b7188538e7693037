"""Shared experiment scaffolding.

The paper's standard setup (Section 3.2): S fixed at 2^26 tuples, R scaled
from 2^26 to 2^33.9 tuples (0.5-120 GiB), V100 + NVLink 2.0, 2048-way
radix partitioning ignoring the 4 least significant bits, throughput over
the whole query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

from .. import obs
from ..config import (
    DEFAULT_IGNORED_LSB,
    DEFAULT_NUM_PARTITIONS,
    SimulationConfig,
)
from ..data.column import Column
from ..data.generator import WorkloadConfig
from ..errors import CapacityError, ConfigurationError
from ..hardware.spec import SystemSpec
from ..join.base import QueryEnvironment
from ..partition.bits import choose_partition_bits
from ..partition.radix import RadixPartitioner
from ..perf.report import Series, format_series_table
from ..resilience import faults
from ..units import GIB, KEY_BYTES
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


def run_point_or_skip(result: ExperimentResult, label: str, func) -> Optional[float]:
    """Execute one data point, recording capacity-limit skips.

    The paper drops B+tree/Harmonia points past their memory limit
    (Section 3.2); this helper mirrors that by catching
    :class:`CapacityError` and noting the skip instead of failing the
    whole experiment.
    """
    try:
        return func()
    except CapacityError as error:
        result.notes.append(f"{label}: skipped ({error})")
        return None


# ----------------------------------------------------------------------
# Sweep points as picklable tasks (the parallel runner's unit of work).
# ----------------------------------------------------------------------

#: One standard sweep point: join kind, machine, R size, index, sim.
#: ``index_cls`` is None for the hash join.  Tasks are plain tuples of
#: picklable values so pool workers can receive them.
PointTask = Tuple[str, SystemSpec, int, Optional[Type], SimulationConfig]


def task_label(task: PointTask) -> str:
    """Short human/fault-matchable name for one sweep point."""
    kind, _spec, r_tuples, index_cls, _sim = task
    index_name = index_cls.__name__ if index_cls is not None else "none"
    return f"{kind}:{index_name}:{r_tuples}"


def run_standard_point(task: PointTask):
    """Simulate one sweep point; returns ``("ok", cost) | ("skip", msg)``.

    This is the single code path behind both the serial and the parallel
    sweep runners -- determinism across the two is by construction, since
    every point derives its RNG streams from the task's ``sim.seed``
    alone.  Points are memoized through the session cache under a key
    built only from the task, so identical (index, R size, sample
    config) points simulate once across figures.

    A fault-injection check precedes the computation: with a
    ``*@point`` plan installed (see :mod:`repro.resilience.faults`) this
    is where injected raises and worker crashes happen -- in exactly the
    process (serial parent or pool worker) executing the point, which is
    what makes every failure path reachable from tests.
    """
    kind, spec, r_tuples, index_cls, sim = task
    faults.check("point", task_label(task))

    def compute():
        if kind == "inlj":
            from ..join.inlj import IndexNestedLoopJoin

            env = make_environment(spec, r_tuples, index_cls=index_cls, sim=sim)
            return IndexNestedLoopJoin(env.index).estimate(env)
        if kind == "partitioned":
            from ..join.partitioned import PartitionedINLJ

            env = make_environment(spec, r_tuples, index_cls=index_cls, sim=sim)
            partitioner = default_partitioner(env.column)
            return PartitionedINLJ(env.index, partitioner).estimate(env)
        if kind == "hash":
            from ..join.hash_join import HashJoin

            env = make_environment(spec, r_tuples, sim=sim)
            return HashJoin(env.relation).estimate(env)
        raise ConfigurationError(f"unknown point kind: {kind!r}")

    try:
        cost = cache.point(("standard-point",) + task, compute)
    except CapacityError as error:
        return ("skip", str(error))
    return ("ok", cost)


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


#: Diagnostics from the most recent :func:`map_tasks` call in this
#: process: the sweep's point count and how many points completed.
#: Read by tests and by the runner's failure reports; never consulted
#: for control flow.
LAST_SWEEP: dict = {}


def _merge_into_cache(task: PointTask, outcome) -> None:
    """Re-insert a worker's result into this process's cache."""
    if outcome[0] == "ok":
        cache.point(
            ("standard-point",) + tuple(task),
            lambda value=outcome[1]: value,
        )


def map_tasks(run_task, tasks: Sequence, workers: int = 1, merge=None) -> list:
    """Run picklable tasks serially or across processes, in task order.

    The generic engine behind :func:`map_standard_points` (experiment
    sweeps), the non-equi sweep and the serve-bench sweep.  Each task
    runs through the same ``run_task`` function either way, so serial
    and pooled runs produce bit-identical output -- provided
    ``run_task`` is a pure function of its task (derive every RNG
    stream from the task itself).

    ``run_task`` must be a module-level function (pool workers receive
    it by pickle).  ``merge(task, outcome)`` runs in the parent for
    every pooled result, in task order, letting callers re-insert
    worker results into parent-process caches.

    A failure is loud, never recovered: a task that raises fails the
    sweep with its own exception, and a worker that dies fails it with
    :class:`concurrent.futures.process.BrokenProcessPool`.  The runner
    isolates either per experiment.
    """
    tasks = list(tasks)
    if workers is not None:
        validate_workers(workers)
    LAST_SWEEP.clear()
    LAST_SWEEP.update(points=len(tasks), computed=0)
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
                for task, outcome in zip(tasks, pool.map(run_task, tasks)):
                    results.append(outcome)
                    LAST_SWEEP["computed"] += 1
                    if merge is not None:
                        merge(task, outcome)
    if obs.enabled():
        for key in ("points", "computed"):
            if LAST_SWEEP[key]:
                obs.add(f"sweep.{key}", float(LAST_SWEEP[key]))
    return results


def map_standard_points(tasks: Sequence[PointTask], workers: int = 1) -> list:
    """Run standard sweep points; see :func:`map_tasks`.

    Each point is computed by :func:`run_standard_point` whichever
    execution path runs it, so serial and pooled runs produce
    bit-identical figures.  Worker processes each hold their own session
    cache; merged results are re-inserted into the parent's cache so
    later figures still get their hits.
    """
    return map_tasks(
        run_standard_point, tasks, workers=workers, merge=_merge_into_cache
    )
