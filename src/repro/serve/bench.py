"""``repro serve-bench``: sweep the serving layer, write BENCH JSON.

Sweeps shard count x window size x Zipf skew over a reduced relation and
reports, per sweep point, the serving simulation's makespan, throughput,
latency percentiles, admission tallies, and per-shard ``serve.*``
counters (including each shard's aggregated replay :class:`PerfCounters`).

Unlike ``repro bench`` -- which times the *host* and therefore reads the
wall clock -- every number here is simulated, so the payload carries no
platform fields and two runs with the same seed are **bit-identical**;
CI diffs the file directly.  Every request is also checked against the
workload generator's ground-truth positions (or, with updates in the
stream, the sorted-array-with-updates oracle), so the bench doubles as
an end-to-end differential test of the sharded path.

A :class:`ServePoint` is one serving workload, and every point serves
through one driver, :func:`serve_point`, which the chaos harness
(:mod:`repro.resilience.chaos`) shares: the plan always holds K copies
per range, with ``--replicas 1`` (the default) as the unreplicated
deployment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..data.generator import (
    ProbeSet,
    WorkloadConfig,
    make_build_relation,
    make_probe_keys,
)
from ..data.relation import Relation
from ..errors import ConfigurationError, SimulationError
from ..experiments.common import map_tasks, resolve_workers
from ..hardware.spec import SystemSpec
from ..resilience import faults
from ..resilience.chaos import ChaosController, ChaosSchedule
from ..indexes import (
    BinarySearchIndex,
    BPlusTreeIndex,
    HarmoniaIndex,
    RadixSplineIndex,
)
from ..ioutil import atomic_write_json
from ..perf.model import CostModel
from ..units import KEY_BYTES, KIB
from ..workloads.updates import (
    SortedArrayOracle,
    UpdateStream,
    make_update_stream,
)
from .executor import KERNELS_PER_WINDOW, ReplicatedShardExecutor
from .service import ProbeRequest, ServeReport, ShardedIndexService
from .shard import CALIBRATION_SIM, range_shard

#: CLI index names (the four paper indexes).
INDEX_BY_NAME: Dict[str, Type] = {
    "binary-search": BinarySearchIndex,
    "btree": BPlusTreeIndex,
    "harmonia": HarmoniaIndex,
    "radix-spline": RadixSplineIndex,
}

#: Default sweep axes: shard counts, window sizes (KiB), Zipf thetas.
DEFAULT_SHARDS = (1, 2, 4)
DEFAULT_WINDOW_KIB = (4, 16)
DEFAULT_ZIPF = (0.0, 1.0)

#: Default reduced workload: 2^16 R tuples, 64 requests x 512 keys.
DEFAULT_R_TUPLES = 2**16
DEFAULT_REQUESTS = 64
DEFAULT_REQUEST_TUPLES = 512

#: Fraction of modelled shard capacity the arrival schedule offers.
#: Below 1.0 queues stay bounded; the backlog bound handles bursts.
DEFAULT_UTILIZATION = 0.8

#: Per-shard backlog bound, in windows worth of tuples.
BACKLOG_WINDOWS = 8

#: Default update-fraction axis: the read-only sweep of PR 5.
DEFAULT_UPDATE_FRACTIONS = (0.0,)


def _arrival_interval(
    plan, window_tuples: int, request_tuples: int, spec: SystemSpec
) -> float:
    """Deterministic open-loop arrival spacing at the target load.

    Models the fleet's service rate from shard 0's calibrated window
    price on ``spec`` (all shards serve near-equal slices of R, so one
    shard is a good stand-in) and spaces arrivals so the offered tuple
    rate is ``DEFAULT_UTILIZATION`` of it.  Pass the executor's spec, so
    the calibration and the prices come from the machine that serves.
    """
    cost = CostModel(spec)
    window_seconds = (
        cost.probe_stage_time(
            plan.shards[0].window_counters(window_tuples, spec)
        )
        + KERNELS_PER_WINDOW * cost.constants.kernel_launch_seconds
    )
    tuples_per_second = (
        plan.num_shards * window_tuples / max(window_seconds, 1e-12)
    )
    return request_tuples / (tuples_per_second * DEFAULT_UTILIZATION)


def _latency_summary(report: ServeReport) -> Dict[str, float]:
    latencies = np.asarray(report.latencies, dtype=np.float64)
    if len(latencies) == 0:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    return {
        "p50": float(np.percentile(latencies, 50)),
        "p95": float(np.percentile(latencies, 95)),
        "p99": float(np.percentile(latencies, 99)),
        "max": float(latencies.max()),
    }


def _per_shard_metrics(report: ServeReport) -> Dict[str, Dict[str, object]]:
    """The ``serve.*`` metric block of one sweep point, per shard."""
    metrics: Dict[str, Dict[str, object]] = {}
    for shard_id, stats in sorted(report.shard_stats.items()):
        replay = {
            name: round(value, 6)
            for name, value in sorted(stats.counters.as_dict().items())
        }
        metrics[str(shard_id)] = {
            "serve.windows": stats.windows,
            "serve.full_windows": stats.full_windows,
            "serve.lookups": stats.lookups,
            "serve.matches": stats.matches,
            "serve.retries": stats.retries,
            "serve.degraded_windows": stats.degraded_windows,
            "serve.failovers": stats.failovers,
            "serve.deferred_windows": stats.deferred_windows,
            "serve.queue_wait_seconds": round(stats.queue_wait_seconds, 9),
            "serve.busy_seconds": round(stats.busy_seconds, 9),
            "serve.replay": replay,
        }
    return metrics


def _degraded_block(executor: ReplicatedShardExecutor) -> Dict[str, object]:
    """The per-row ``degraded`` payload: fallback traffic, failovers,
    recoveries, and the full per-replica health-transition timeline."""
    return {
        "fallback_windows": executor.fallback_windows,
        "failovers": executor.failovers,
        "recoveries": executor.recoveries,
        "deferred_windows": executor.deferrals,
        "health_transitions": executor.health.transitions(),
    }


def _check_against_oracle(
    report: ServeReport, requests: List[ProbeRequest], expected: np.ndarray
) -> None:
    """Assert every served request matches the generator ground truth."""
    for request, outcome in zip(requests, report.outcomes):
        if not outcome.admitted:
            continue
        truth = expected[
            request.request_id * len(request.keys) : (request.request_id + 1)
            * len(request.keys)
        ]
        if outcome.positions is None or not np.array_equal(
            outcome.positions, truth
        ):
            raise SimulationError(
                f"served positions diverge from the oracle for request "
                f"{request.request_id}"
            )


def _check_mixed_against_oracle(
    report: ServeReport, requests: List[ProbeRequest], base_keys: np.ndarray
) -> None:
    """Replay admitted requests against the sorted-array-with-updates
    oracle, in arrival order.

    Per-key ordering in the serve path equals arrival order (stable
    routing + kind-homogeneous FIFO windows), so applying admitted
    updates in request order and checking each probe against the
    oracle's state at that point is exact.  Rejected updates were never
    applied (admission is whole-request), so the oracle skips them too.
    """
    oracle = SortedArrayOracle(base_keys)
    for request, outcome in zip(requests, report.outcomes):
        if not outcome.admitted:
            continue
        if request.kind == "update":
            assert request.values is not None
            if outcome.positions is None or not np.array_equal(
                outcome.positions, request.values
            ):
                raise SimulationError(
                    f"update request {request.request_id} was not "
                    "acknowledged with its row ids"
                )
            oracle.apply(request.keys, request.values)
        else:
            expected = oracle.lookup(request.keys)
            if outcome.positions is None or not np.array_equal(
                outcome.positions, expected
            ):
                raise SimulationError(
                    "served positions diverge from the update oracle "
                    f"for request {request.request_id}"
                )


def _updates_block(executor: ReplicatedShardExecutor) -> Dict[str, object]:
    """The per-row ``updates`` payload block (zeros on read-only runs)."""
    by_strategy: Dict[str, int] = {}
    for event in executor.compactions:
        strategy = str(event["strategy"])
        by_strategy[strategy] = by_strategy.get(strategy, 0) + 1
    depths = {
        f"{shard_id}:{replica_id}": shard.delta.num_tuples
        for shard_id, copies in enumerate(executor.plan.replicas)
        for replica_id, shard in enumerate(copies)
    }
    return {
        "update_windows": executor.update_windows,
        "update_tuples": executor.update_tuples,
        "delta_depth": depths,
        "delta_peak": executor.delta_peak,
        "read_amplification_peak": round(executor.read_amplification_peak, 6),
        "compactions": list(executor.compactions),
        "compactions_by_strategy": dict(sorted(by_strategy.items())),
        "compactions_completed": executor.compactions_completed,
    }


def replica_index_names(
    index: str, replicas: int, replica_indexes: Optional[Sequence[str]]
) -> Tuple[str, ...]:
    """The index name of every replica level, replica 0 first.

    An explicit ``replica_indexes`` list must name exactly ``replicas``
    levels; without one, every level takes ``index``.
    :class:`ServePoint` checks the names themselves.
    """
    if replica_indexes and len(replica_indexes) != replicas:
        raise ConfigurationError(
            f"--replica-indexes names {len(replica_indexes)} replicas but "
            f"--replicas is {replicas}"
        )
    return tuple(replica_indexes or (index,) * replicas)


@dataclass(frozen=True)
class ServePoint:
    """One serving workload: a point of ``serve-bench``'s sweep, or the
    run the chaos harness replays a schedule against.

    It holds plain picklable values (a :class:`ChaosSchedule` is a
    frozen tuple of frozen events), so pool workers receive it as it
    is, and every row served from it is a pure function of the point.
    ``index_names`` names one paper index per replica level, replica 0
    first; one name is the unreplicated deployment.  ``chaos`` replays
    a scripted fault schedule inside the point, and
    ``max_backlog_tuples`` replaces the per-shard admission bound of
    ``BACKLOG_WINDOWS`` windows.  A value no workload can be built
    from, or a schedule aimed at a shard or replica the point lacks, is
    refused here, naming its flag, before any work starts.
    """

    shards: int
    window_kib: int
    zipf_theta: float
    index_names: Tuple[str, ...]
    r_tuples: int
    requests: int
    request_tuples: int
    update_fraction: float
    seed: int
    chaos: Optional[ChaosSchedule] = None
    max_backlog_tuples: Optional[int] = None

    def __post_init__(self) -> None:
        replicas = len(self.index_names)
        for flag, count in (
            ("--shards", self.shards),
            ("--window-kib", self.window_kib),
            ("--replicas", replicas),
            ("--r-tuples", self.r_tuples),
            ("--requests", self.requests),
            ("--request-tuples", self.request_tuples),
        ):
            if count < 1:
                raise ConfigurationError(f"{flag} must be >= 1, got {count}")
        theta = self.zipf_theta
        if not math.isfinite(theta) or theta < 0.0:
            raise ConfigurationError(
                f"zipf theta (--zipf) must be finite and >= 0, got {theta}"
            )
        if not 0.0 <= self.update_fraction <= 1.0:  # NaN fails every comparison
            raise ConfigurationError(
                "update fraction (--update-fraction) must be in [0, 1], "
                f"got {self.update_fraction}"
            )
        unknown = sorted(set(self.index_names) - set(INDEX_BY_NAME))
        if unknown:
            raise ConfigurationError(
                f"unknown index names {unknown} (--index, --replica-indexes); "
                f"choose from {', '.join(sorted(INDEX_BY_NAME))}"
            )
        if self.chaos is not None:
            # After the counts: a count below one is the count's fault,
            # not the schedule's.
            self.chaos.check_targets(self.shards, replicas)

    @property
    def label(self) -> str:
        """Short name that ``match=`` fault plans select points by.

        ``serve:<replica 0's index>:<shards>s:<window KiB>k:z<theta>``,
        then ``:r<replicas>`` past one replica and ``:u<fraction>`` on a
        mixed point.
        """
        replicas = len(self.index_names)
        suffix = f":r{replicas}" if replicas > 1 else ""
        if self.update_fraction > 0.0:
            suffix += f":u{self.update_fraction}"
        return (
            f"serve:{self.index_names[0]}:{self.shards}s:"
            f"{self.window_kib}k:z{self.zipf_theta}{suffix}"
        )


#: Per-process memo of generated serve workloads, keyed by the point
#: fields each part derives from: the (relation, probes) pair by R's
#: size, the probe count, the skew and the seed, and a mixed point's
#: (R's keys, request stream) by those plus the request width and the
#: update fraction.  The parent reuses one pair across every serial
#: point of a skew and one stream per update fraction, and each pool
#: worker generates them at most once for its share of the sweep.
_WORKLOAD_MEMO: Dict[tuple, tuple] = {}


def _workload(
    point: ServePoint,
) -> Tuple[Relation, ProbeSet, Optional[Tuple[np.ndarray, UpdateStream]]]:
    """The point's relation, probes and, on a mixed point, R's keys and
    its request stream (None when read-only), memoized."""
    s_tuples = point.requests * point.request_tuples
    key = (point.r_tuples, s_tuples, point.zipf_theta, point.seed)
    if key not in _WORKLOAD_MEMO:
        config = WorkloadConfig(
            r_tuples=point.r_tuples,
            s_tuples=s_tuples,
            zipf_theta=point.zipf_theta,
            seed=point.seed,
        )
        relation = make_build_relation(config)
        _WORKLOAD_MEMO[key] = (
            relation,
            make_probe_keys(relation.column, config),
        )
    relation, probes = _WORKLOAD_MEMO[key]
    if point.update_fraction == 0.0:
        return relation, probes, None
    mixed_key = key + (point.request_tuples, point.update_fraction)
    if mixed_key not in _WORKLOAD_MEMO:
        base_keys = relation.column.key_at(
            np.arange(relation.num_tuples, dtype=np.int64)
        )
        _WORKLOAD_MEMO[mixed_key] = (
            base_keys,
            make_update_stream(
                base_keys,
                probes.keys,
                point.requests,
                point.request_tuples,
                point.update_fraction,
                point.seed,
            ),
        )
    return relation, probes, _WORKLOAD_MEMO[mixed_key]


def serve_point(
    point: ServePoint,
) -> Tuple[ReplicatedShardExecutor, ServeReport, float]:
    """Serve one point end to end and check every answer.

    The one serve driver of ``serve-bench`` and the chaos harness:
    range-shard R with one replica per entry of ``point.index_names``,
    build the executor (replaying ``point.chaos`` through a
    :class:`ChaosController`, if set) and the service, space arrivals at
    the target load, and serve ``point.requests`` requests of
    ``point.request_tuples`` keys -- ``point.update_fraction`` of them
    as updates.  Every admitted request is then checked against ground
    truth: the generator's expected positions on a read-only stream,
    the sorted-array-with-updates oracle on a mixed one.  Returns the
    executor, the service report and the arrival spacing (seconds).
    """
    relation, probes, mixed = _workload(point)
    width = point.request_tuples
    window_tuples = max(1, point.window_kib * KIB // KEY_BYTES)
    plan = range_shard(
        relation, point.shards, [INDEX_BY_NAME[name] for name in point.index_names]
    )
    executor = ReplicatedShardExecutor(
        plan,
        chaos=ChaosController(point.chaos) if point.chaos is not None else None,
    )
    service = ShardedIndexService(
        executor,
        window_bytes=point.window_kib * KIB,
        max_backlog_tuples=(
            BACKLOG_WINDOWS * window_tuples
            if point.max_backlog_tuples is None
            else point.max_backlog_tuples
        ),
    )
    interval = _arrival_interval(plan, window_tuples, width, executor.spec)
    if mixed is not None:
        base_keys, stream = mixed
        requests = [
            ProbeRequest(
                request_id=i,
                keys=stream.keys[i],
                arrival=i * interval,
                kind=stream.kinds[i],
                values=stream.values[i],
            )
            for i in range(point.requests)
        ]
        report = service.run(requests)
        _check_mixed_against_oracle(report, requests, base_keys)
    else:
        requests = [
            ProbeRequest(
                request_id=i,
                keys=probes.keys[i * width : (i + 1) * width],
                arrival=i * interval,
            )
            for i in range(point.requests)
        ]
        report = service.run(requests)
        _check_against_oracle(report, requests, probes.expected_positions)
    return executor, report, interval


def run_serve_point(point: ServePoint) -> dict:
    """Serve one sweep point and return its payload row; the process
    pool's unit of work.

    The ``point`` fault site fires first, with the point's label.  The
    row is a pure function of the point (the workload derives from its
    seed and the serving simulation reads no ambient state), so serial
    and pooled sweeps produce bit-identical rows.
    """
    faults.check("point", point.label)
    executor, report, interval = serve_point(point)
    return {
        "shards": point.shards,
        "window_kib": point.window_kib,
        "zipf_theta": point.zipf_theta,
        "update_fraction": point.update_fraction,
        "replicas": len(point.index_names),
        "requests": len(report.outcomes),
        "admitted": report.admitted_requests,
        "rejected": report.rejected_requests,
        "arrival_interval_seconds": round(interval, 12),
        "makespan_seconds": round(report.makespan_seconds, 9),
        "total_lookups": report.total_lookups,
        "throughput_lookups_per_second": round(
            report.throughput_lookups_per_second, 3
        ),
        "latency_seconds": {
            name: round(value, 9)
            for name, value in _latency_summary(report).items()
        },
        "failed_shards": executor.failed_shards,
        "degraded": _degraded_block(executor),
        "updates": _updates_block(executor),
        "per_shard": _per_shard_metrics(report),
    }


def run_serve_bench(
    shards: Sequence[int] = DEFAULT_SHARDS,
    window_kib: Sequence[int] = DEFAULT_WINDOW_KIB,
    zipf_thetas: Sequence[float] = DEFAULT_ZIPF,
    index: str = "binary-search",
    r_tuples: int = DEFAULT_R_TUPLES,
    requests: int = DEFAULT_REQUESTS,
    request_tuples: int = DEFAULT_REQUEST_TUPLES,
    seed: int = 42,
    workers: int = 0,
    replicas: int = 1,
    replica_indexes: Optional[Sequence[str]] = None,
    chaos_schedule: Optional[str] = None,
    update_fractions: Sequence[float] = DEFAULT_UPDATE_FRACTIONS,
) -> dict:
    """Run the full sweep; returns the JSON-ready payload.

    Sweep points fan out across the worker pool
    (:func:`repro.experiments.common.map_tasks`): ``workers=0`` (the
    default) resolves to one process per CPU core, ``1`` forces the
    serial path, and either way the payload is bit-identical -- rows
    come back in point order and every row is a pure function of its
    point.  The payload deliberately carries no worker-count field.

    Each range carries ``replicas`` copies (1, the default, is the
    unreplicated deployment), indexed per level by ``replica_indexes``
    or else by ``index``; ``chaos_schedule`` (a path) replays the same
    scripted fault schedule inside every sweep point.
    ``update_fractions`` adds the mixed read/write axis: each fraction
    re-runs the sweep with that share of requests as updates.  Every
    point is built, and so checked, before the first one is served.
    """
    names = replica_index_names(index, replicas, replica_indexes)
    chaos = ChaosSchedule.load(chaos_schedule) if chaos_schedule else None
    points = [
        ServePoint(
            shards=num_shards,
            window_kib=kib,
            zipf_theta=theta,
            index_names=names,
            r_tuples=r_tuples,
            requests=requests,
            request_tuples=request_tuples,
            update_fraction=float(fraction),
            seed=seed,
            chaos=chaos,
        )
        for fraction in update_fractions
        for theta in zipf_thetas
        for num_shards in shards
        for kib in window_kib
    ]
    sweeps = map_tasks(run_serve_point, points, workers=resolve_workers(workers))
    return {
        "benchmark": "repro-serve",
        "index": index,
        "replicas": replicas,
        "replica_indexes": list(names),
        "chaos_schedule": chaos_schedule or "",
        "update_fractions": [float(f) for f in update_fractions],
        "r_tuples": r_tuples,
        "requests": requests,
        "request_tuples": request_tuples,
        "seed": seed,
        "utilization": DEFAULT_UTILIZATION,
        "backlog_windows": BACKLOG_WINDOWS,
        "calibration_probe_sample": CALIBRATION_SIM.probe_sample,
        "sweeps": sweeps,
    }


def write_serve_bench(payload: dict, path: str) -> None:
    atomic_write_json(payload=payload, path=path, sort_keys=False)


def main(
    shards: Sequence[int] = DEFAULT_SHARDS,
    window_kib: Sequence[int] = DEFAULT_WINDOW_KIB,
    zipf_thetas: Sequence[float] = DEFAULT_ZIPF,
    index: str = "binary-search",
    seed: int = 42,
    json_path: Optional[str] = None,
    workers: int = 0,
    replicas: int = 1,
    replica_indexes: Optional[Sequence[str]] = None,
    chaos_schedule: Optional[str] = None,
    update_fractions: Sequence[float] = DEFAULT_UPDATE_FRACTIONS,
) -> dict:
    """CLI entry point: run the sweep, print a summary, optionally write."""
    payload = run_serve_bench(
        shards=shards,
        window_kib=window_kib,
        zipf_thetas=zipf_thetas,
        index=index,
        seed=seed,
        workers=workers,
        replicas=replicas,
        replica_indexes=replica_indexes,
        chaos_schedule=chaos_schedule,
        update_fractions=update_fractions,
    )
    for row in payload["sweeps"]:
        degraded = row["degraded"]
        updates = row["updates"]
        extras = ""
        if degraded["failovers"] or degraded["recoveries"]:
            extras = (
                f", failovers {degraded['failovers']}, "
                f"recoveries {degraded['recoveries']}"
            )
        if row["update_fraction"] > 0.0:
            extras += (
                f", updates {updates['update_tuples']}, "
                f"compactions {len(updates['compactions'])}"
            )
        print(
            f"shards={row['shards']} window={row['window_kib']}KiB "
            f"theta={row['zipf_theta']} uf={row['update_fraction']}: "
            f"{row['throughput_lookups_per_second']:.0f} lookups/s, "
            f"p99 {row['latency_seconds']['p99'] * 1e6:.1f}us, "
            f"admitted {row['admitted']}/{row['requests']}{extras}"
        )
    if json_path:
        write_serve_bench(payload, json_path)
    return payload
