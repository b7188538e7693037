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

Every point serves through one driver, :func:`serve_point`, which the
chaos harness (:mod:`repro.resilience.chaos`) shares: the plan always
holds K copies per range, with ``--replicas 1`` (the default) as the
unreplicated deployment.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Type

import numpy as np

from ..data.generator import WorkloadConfig, make_build_relation, make_probe_keys
from ..errors import ConfigurationError, SimulationError
from ..experiments.common import map_tasks, resolve_workers
from ..hardware.spec import SystemSpec
from ..resilience import faults
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
    """The validated index name of every replica level, replica 0 first.

    The one replica-index check ``serve-bench`` and ``chaos`` share:
    ``index`` and every ``replica_indexes`` entry must name a paper
    index, and an explicit list must name exactly ``replicas`` levels.
    Without a list, every level takes ``index``.
    """
    choices = ", ".join(sorted(INDEX_BY_NAME))
    if index not in INDEX_BY_NAME:
        raise ConfigurationError(
            f"unknown index {index!r}; choose from {choices}"
        )
    if replicas < 1:
        raise ConfigurationError(f"--replicas must be >= 1, got {replicas}")
    names = tuple(replica_indexes or ())
    unknown = sorted(set(names) - set(INDEX_BY_NAME))
    if unknown:
        raise ConfigurationError(
            f"unknown replica index names {unknown}; choose from {choices}"
        )
    if names and len(names) != replicas:
        raise ConfigurationError(
            f"--replica-indexes names {len(names)} replicas but "
            f"--replicas is {replicas}"
        )
    return names or (index,) * replicas


def serve_point(
    relation,
    probes,
    num_shards: int,
    window_kib: int,
    index_classes: Sequence[Type],
    request_tuples: int,
    update_fraction: float = 0.0,
    seed: int = 42,
    chaos: Optional[object] = None,
    max_backlog_tuples: Optional[int] = None,
) -> Tuple[ReplicatedShardExecutor, ServeReport, float]:
    """Serve one workload end to end and check every answer.

    The one serve driver of ``serve-bench`` and the chaos harness:
    range-shard ``relation`` with one replica per entry of
    ``index_classes`` (a single entry is the unreplicated deployment),
    build the executor (replaying ``chaos``, a
    :class:`~repro.resilience.chaos.ChaosController`, if given) and the
    service, space arrivals at the target load, and serve
    ``probes.keys`` as ``request_tuples``-wide requests --
    ``update_fraction`` of them as updates.  ``max_backlog_tuples``
    defaults to ``BACKLOG_WINDOWS`` windows per shard.  Every admitted
    request is then checked against ground truth: the generator's
    expected positions on a read-only stream, the
    sorted-array-with-updates oracle on a mixed one.  Returns the
    executor, the service report and the arrival spacing (seconds).
    """
    window_tuples = max(1, window_kib * KIB // KEY_BYTES)
    plan = range_shard(relation, num_shards, index_classes)
    executor = ReplicatedShardExecutor(plan, chaos=chaos)
    service = ShardedIndexService(
        executor,
        window_bytes=window_kib * KIB,
        max_backlog_tuples=(
            BACKLOG_WINDOWS * window_tuples
            if max_backlog_tuples is None
            else max_backlog_tuples
        ),
    )
    interval = _arrival_interval(
        plan, window_tuples, request_tuples, executor.spec
    )
    num_requests = len(probes.keys) // request_tuples
    if update_fraction > 0.0:
        base_keys, stream = _update_stream(
            relation, probes, request_tuples, update_fraction, seed
        )
        requests = [
            ProbeRequest(
                request_id=i,
                keys=stream.keys[i],
                arrival=i * interval,
                kind=stream.kinds[i],
                values=stream.values[i],
            )
            for i in range(num_requests)
        ]
        report = service.run(requests)
        _check_mixed_against_oracle(report, requests, base_keys)
    else:
        requests = [
            ProbeRequest(
                request_id=i,
                keys=probes.keys[
                    i * request_tuples : (i + 1) * request_tuples
                ],
                arrival=i * interval,
            )
            for i in range(num_requests)
        ]
        report = service.run(requests)
        _check_against_oracle(report, requests, probes.expected_positions)
    return executor, report, interval


def run_sweep_point(
    relation,
    probes,
    num_shards: int,
    window_kib: int,
    zipf_theta: float,
    index_classes: Sequence[Type],
    request_tuples: int,
    chaos_text: str = "",
    update_fraction: float = 0.0,
    seed: int = 42,
) -> dict:
    """Serve one (shards, window, skew) configuration; returns its row.

    ``index_classes`` names each replica level's index (one entry: the
    unreplicated deployment).  ``chaos_text`` carries a
    ``repro-chaos/1`` schedule as JSON text, so sweep tasks stay plain
    picklable tuples; the schedule replays inside the point.
    ``update_fraction > 0`` interleaves update requests into the stream.
    """
    controller = None
    if chaos_text:
        import json as _json

        from ..resilience.chaos import ChaosController, ChaosSchedule

        controller = ChaosController(
            ChaosSchedule.from_dict(_json.loads(chaos_text))
        )
    executor, report, interval = serve_point(
        relation,
        probes,
        num_shards,
        window_kib,
        index_classes,
        request_tuples,
        update_fraction=update_fraction,
        seed=seed,
        chaos=controller,
    )
    return {
        "shards": num_shards,
        "window_kib": window_kib,
        "zipf_theta": zipf_theta,
        "update_fraction": update_fraction,
        "replicas": len(index_classes),
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


#: One serve sweep point as a picklable task for the process pool:
#: (num_shards, window_kib, zipf_theta, index_name, r_tuples, requests,
#: request_tuples, seed, replicas, replica_indexes, chaos_text,
#: update_fraction); ``replica_indexes`` names every replica level.
ServeTask = Tuple[
    int, int, float, str, int, int, int, int,
    int, Tuple[str, ...], str, float,
]


def serve_task_label(task: ServeTask) -> str:
    """Short human/fault-matchable name for one serve sweep point."""
    num_shards, window_kib, theta, index = task[:4]
    replicas = task[8]
    update_fraction = task[11]
    suffix = f":r{replicas}" if replicas > 1 else ""
    if update_fraction > 0.0:
        suffix += f":u{update_fraction}"
    return f"serve:{index}:{num_shards}s:{window_kib}k:z{theta}{suffix}"


#: Per-process memo of generated serve workloads, keyed by workload
#: config, and of the update streams served over them.  The parent
#: reuses one (relation, probes) pair and one stream per update fraction
#: across every serial point of a theta, and each pool worker
#: regenerates them at most once for its share of the sweep.
_WORKLOAD_MEMO: Dict[tuple, tuple] = {}


def _update_stream(
    relation, probes, request_tuples: int, update_fraction: float, seed: int
) -> Tuple[np.ndarray, UpdateStream]:
    """R's keys and the mixed request stream over ``probes``, memoized.

    Every mixed point of a sweep over one (relation, probes) pair serves
    the same stream.  The entry keeps the pair alive, so the object ids
    in its key cannot be reused while it exists.
    """
    key = (
        "updates",
        id(relation),
        id(probes),
        request_tuples,
        update_fraction,
        seed,
    )
    if key not in _WORKLOAD_MEMO:
        base_keys = relation.column.key_at(
            np.arange(relation.num_tuples, dtype=np.int64)
        )
        stream = make_update_stream(
            base_keys,
            probes.keys,
            len(probes.keys) // request_tuples,
            request_tuples,
            update_fraction,
            seed,
        )
        _WORKLOAD_MEMO[key] = (relation, probes, base_keys, stream)
    _, _, base_keys, stream = _WORKLOAD_MEMO[key]
    return base_keys, stream


def _serve_workload(
    r_tuples: int, s_tuples: int, zipf_theta: float, seed: int
) -> tuple:
    key = (r_tuples, s_tuples, zipf_theta, seed)
    if key not in _WORKLOAD_MEMO:
        config = WorkloadConfig(
            r_tuples=r_tuples,
            s_tuples=s_tuples,
            zipf_theta=zipf_theta,
            seed=seed,
        )
        relation = make_build_relation(config)
        probes = make_probe_keys(relation.column, config)
        _WORKLOAD_MEMO[key] = (relation, probes)
    return _WORKLOAD_MEMO[key]


def run_serve_point_task(task: ServeTask) -> dict:
    """Serve one sweep task; the process pool's unit of work.

    Deterministic given the task alone: the workload derives from the
    task's seed and the serving simulation reads no ambient state, so
    serial and pooled sweeps produce bit-identical rows (the payload is
    diffed for exactly that in the serve tests).
    """
    (
        num_shards,
        window_kib,
        zipf_theta,
        _,
        r_tuples,
        requests,
        request_tuples,
        seed,
        _,
        replica_indexes,
        chaos_text,
        update_fraction,
    ) = task
    faults.check("point", serve_task_label(task))
    relation, probes = _serve_workload(
        r_tuples, requests * request_tuples, zipf_theta, seed
    )
    return run_sweep_point(
        relation,
        probes,
        num_shards=num_shards,
        window_kib=window_kib,
        zipf_theta=zipf_theta,
        index_classes=[INDEX_BY_NAME[name] for name in replica_indexes],
        request_tuples=request_tuples,
        chaos_text=chaos_text,
        update_fraction=update_fraction,
        seed=seed,
    )


def check_axis_values(
    zipf_thetas: Sequence[float],
    update_fractions: Sequence[float],
    counts: Mapping[str, Sequence[int]],
) -> None:
    """Reject a skew, update fraction or count no workload can be built
    from.  ``counts`` maps each count flag to its values, which must all
    be at least 1."""
    for flag, values in counts.items():
        for value in values:
            if value < 1:
                raise ConfigurationError(f"{flag} must be >= 1, got {value}")
    for theta in zipf_thetas:
        if not math.isfinite(theta) or theta < 0.0:
            raise ConfigurationError(
                f"zipf theta (--zipf) must be finite and >= 0, got {theta}"
            )
    for fraction in update_fractions:
        if not 0.0 <= fraction <= 1.0:  # NaN fails every comparison
            raise ConfigurationError(
                "update fraction (--update-fraction) must be in [0, 1], "
                f"got {fraction}"
            )


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
    come back in task order and every row is a pure function of its
    task.  The payload deliberately carries no worker-count field.

    Each range carries ``replicas`` copies (1, the default, is the
    unreplicated deployment), indexed per level by ``replica_indexes``
    or else by ``index``; ``chaos_schedule`` (a path) replays the same
    scripted fault schedule inside every sweep point.
    ``update_fractions`` adds the mixed read/write axis: each fraction
    re-runs the sweep with that share of requests as updates.
    """
    check_axis_values(
        zipf_thetas,
        update_fractions,
        {
            "--shards": shards,
            "--window-kib": window_kib,
            "--replicas": [replicas],
            "--r-tuples": [r_tuples],
            "--requests": [requests],
            "--request-tuples": [request_tuples],
        },
    )
    names = replica_index_names(index, replicas, replica_indexes)
    chaos_text = ""
    if chaos_schedule:
        # Validate eagerly (a bad file should fail the run, not every
        # worker) and ship the schedule as canonical JSON text so the
        # task tuples stay picklable.
        import json as _json

        from ..resilience.chaos import ChaosSchedule

        chaos_text = _json.dumps(
            ChaosSchedule.load(chaos_schedule).as_dict(), sort_keys=True
        )
    resolved = resolve_workers(workers)
    tasks: List[ServeTask] = [
        (
            num_shards,
            kib,
            theta,
            index,
            r_tuples,
            requests,
            request_tuples,
            seed,
            replicas,
            names,
            chaos_text,
            float(fraction),
        )
        for fraction in update_fractions
        for theta in zipf_thetas
        for num_shards in shards
        for kib in window_kib
    ]
    sweeps = map_tasks(run_serve_point_task, tasks, workers=resolved)
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
