"""Scripted chaos: declarative fault schedules for the serving layer.

A :class:`ChaosSchedule` is a JSON document of timed fault events
against the replicated serving simulation -- *kill replica r of shard s
at simulated time t*, *wedge shard s for d seconds*, *corrupt probe
batch b* -- replayable bit-identically because every event keys off
simulated quantities (the logical clock, the executor's window
sequence), never the host.

The harness around it (:func:`run_serve_under_chaos`,
:func:`check_invariance`, :func:`check_replay`) runs one serving
workload clean and under the schedule and asserts the serving layer's
central robustness contract:

* **Invariance** -- served positions under any schedule that leaves the
  fallback reachable are element-equal to the fault-free run (replicas
  and the fallback all answer in global R positions, so failover can
  reorder *work*, never *results*).  With ``update_fraction > 0`` the
  same contract covers mixed read/write traffic: updates are
  host-authoritative (applied to every replica and the fallback, never
  routed through a fault site), so a kill schedule stretches read
  latency but cannot lose a write -- and the chaotic run must still
  answer element-equal to both the fault-free run and the
  sorted-array-with-updates oracle.
* **Replay** -- the same seed and schedule reproduce the run
  bit-identically, including the simulated-clock timeline of
  failure/failover/rebuild/recovery transitions.

Determinism rules a schedule must respect (see TESTING.md):

* event times are simulated seconds, compared against the service's
  logical clock at dispatch;
* ``corrupt`` events name a window by the executor's global execution
  sequence (0-based), which is itself deterministic;
* the harness runs with an unbounded admission backlog, so chaos
  stretches latency without flipping admission decisions -- the one
  knob that could legitimately change *which* requests get served.

``repro chaos`` (see :mod:`repro.__main__`) runs a schedule file
through the harness and writes the event-log artifact CI uploads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ConfigurationError, InjectedFault
from ..ioutil import atomic_write_json

#: Schema tag of schedule documents (bump on incompatible change).
SCHEMA = "repro-chaos/1"
#: Schema tag of the event-log artifact the CLI writes.
LOG_SCHEMA = "repro-chaos-log/1"

_KINDS = ("kill", "wedge", "corrupt")


def _number(entry: Dict[str, Any], name: str, default: float) -> float:
    """``entry[name]`` as a JSON number (bools and strings rejected)."""
    value = entry.get(name, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"chaos event field {name!r} must be a number, got {value!r}"
        )
    return value


def _integral(entry: Dict[str, Any], name: str) -> int:
    """``entry[name]`` as an integer; ``1.0`` passes, ``1.7`` does not."""
    value = _number(entry, name, -1)
    if not float(value).is_integer():
        raise ConfigurationError(
            f"chaos event field {name!r} must be an integer, got {value!r}"
        )
    return int(value)


@dataclass(frozen=True)
class ChaosEvent:
    """One scripted fault.

    Attributes:
        kind: ``kill`` (replica fails every probe from ``at`` until it
            next completes a rebuild), ``wedge`` (every replica of the
            shard -- or one, if ``replica`` >= 0 -- fails probes during
            ``[at, at + duration)``), or ``corrupt`` (the probe of
            execution-sequence window ``batch`` fails once, modelling a
            corrupted batch the retry path must reissue).
        at: simulated time the fault arms, seconds.
        shard: target shard (kill/wedge).
        replica: target replica (kill; wedge optional, -1 = all).
        duration: wedge length in simulated seconds.
        batch: global window execution sequence targeted by corrupt.
    """

    kind: str
    at: float = 0.0
    shard: int = -1
    replica: int = -1
    duration: float = 0.0
    batch: int = -1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown chaos kind {self.kind!r}; expected one of {_KINDS}"
            )
        if not math.isfinite(self.at) or self.at < 0:
            raise ConfigurationError(
                f"chaos event 'at' must be a finite time >= 0, got {self.at}"
            )
        if math.isnan(self.duration):
            raise ConfigurationError("chaos event 'duration' must not be NaN")
        if self.kind == "kill" and (self.shard < 0 or self.replica < 0):
            raise ConfigurationError(
                "kill events need shard >= 0 and replica >= 0, got "
                f"shard={self.shard} replica={self.replica}"
            )
        if self.kind == "wedge":
            if self.shard < 0:
                raise ConfigurationError(
                    f"wedge events need shard >= 0, got {self.shard}"
                )
            if self.duration <= 0:
                raise ConfigurationError(
                    f"wedge duration must be positive, got {self.duration}"
                )
        if self.kind == "corrupt" and self.batch < 0:
            raise ConfigurationError(
                f"corrupt events need batch >= 0, got {self.batch}"
            )

    def as_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"kind": self.kind, "at": self.at}
        if self.shard >= 0:
            entry["shard"] = self.shard
        if self.replica >= 0:
            entry["replica"] = self.replica
        if self.kind == "wedge":
            entry["duration"] = self.duration
        if self.kind == "corrupt":
            entry["batch"] = self.batch
        return entry

    @staticmethod
    def from_dict(entry: Dict[str, Any]) -> "ChaosEvent":
        if not isinstance(entry, dict):
            raise ConfigurationError(
                f"chaos schedule 'events' entries must be JSON objects, "
                f"got {entry!r}"
            )
        known = {"kind", "at", "shard", "replica", "duration", "batch"}
        extra = sorted(set(entry) - known)
        if extra:
            raise ConfigurationError(
                f"unknown chaos event fields {extra} in {entry!r}"
            )
        if "kind" not in entry:
            raise ConfigurationError(f"chaos event missing 'kind': {entry!r}")
        return ChaosEvent(
            kind=str(entry["kind"]),
            at=float(_number(entry, "at", 0.0)),
            shard=_integral(entry, "shard"),
            replica=_integral(entry, "replica"),
            duration=float(_number(entry, "duration", 0.0)),
            batch=_integral(entry, "batch"),
        )


@dataclass(frozen=True)
class ChaosSchedule:
    """An ordered list of scripted fault events."""

    events: Tuple[ChaosEvent, ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "events": [event.as_dict() for event in self.events],
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "ChaosSchedule":
        schema = payload.get("schema")
        if schema != SCHEMA:
            raise ConfigurationError(
                f"chaos schedule schema {schema!r} != expected {SCHEMA!r}"
            )
        events = payload.get("events")
        if not isinstance(events, list):
            raise ConfigurationError(
                "chaos schedule needs an 'events' list"
            )
        return ChaosSchedule(
            events=tuple(ChaosEvent.from_dict(entry) for entry in events)
        )

    @staticmethod
    def load(path: str) -> "ChaosSchedule":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise ConfigurationError(
                f"cannot read chaos schedule {path}: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"chaos schedule {path} is not a JSON object"
            )
        return ChaosSchedule.from_dict(payload)

    def dump(self, path: str) -> str:
        return atomic_write_json(path=path, payload=self.as_dict())

    def check_targets(self, shards: int, replicas: int) -> None:
        """Reject an event aimed at a shard or replica the run lacks."""
        for event in self.events:
            if event.shard >= shards:
                raise ConfigurationError(
                    f"chaos event targets shard {event.shard}, but the run "
                    f"has {shards} shard(s)"
                )
            if event.replica >= replicas:
                raise ConfigurationError(
                    f"chaos event targets replica {event.replica}, but the "
                    f"run has {replicas} replica(s) per shard"
                )


class ChaosController:
    """Replays a schedule against the replicated executor's probes.

    The executor consults :meth:`check_probe` before every probe
    attempt and calls :meth:`on_restart` when a rebuilt replica
    rejoins; all decisions are pure functions of (simulated time,
    window sequence, restart history), so a schedule replays
    bit-identically.
    """

    def __init__(self, schedule: ChaosSchedule):
        self.schedule = schedule
        #: Kill events cleared by a completed rebuild of their target.
        self._cleared_kills: Set[int] = set()
        #: Corrupt events that already fired (they fire exactly once).
        self._fired_corrupts: Set[int] = set()
        #: (time, description) log of every injection, in fire order.
        self.injections: List[Tuple[float, str]] = []

    def check_probe(
        self, shard: int, replica: int, now: float, window_seq: int
    ) -> None:
        """Raise :class:`InjectedFault` if any scripted fault is due."""
        for index, event in enumerate(self.schedule.events):
            if event.kind == "kill":
                if (
                    index not in self._cleared_kills
                    and event.shard == shard
                    and event.replica == replica
                    and now >= event.at
                ):
                    self._inject(
                        now, f"kill[{index}] shard{shard}r{replica}"
                    )
            elif event.kind == "wedge":
                if (
                    event.shard == shard
                    and event.replica in (-1, replica)
                    and event.at <= now < event.at + event.duration
                ):
                    self._inject(
                        now, f"wedge[{index}] shard{shard}r{replica}"
                    )
            else:  # corrupt
                if (
                    index not in self._fired_corrupts
                    and event.batch == window_seq
                ):
                    self._fired_corrupts.add(index)
                    self._inject(
                        now,
                        f"corrupt[{index}] window{window_seq} "
                        f"shard{shard}r{replica}",
                    )

    def _inject(self, now: float, description: str) -> None:
        self.injections.append((now, description))
        raise InjectedFault(f"chaos {description} at t={now:.9f}")

    def on_restart(self, shard: int, replica: int, now: float) -> None:
        """A rebuilt replica rejoined: clear its armed kill events.

        A kill models a crashed replica; once recovery rebuilt it, the
        same event must not re-kill it forever (schedules wanting a
        re-kill script a second event at a later time).
        """
        for index, event in enumerate(self.schedule.events):
            if (
                event.kind == "kill"
                and event.shard == shard
                and event.replica == replica
                and event.at <= now
            ):
                self._cleared_kills.add(index)


# ----------------------------------------------------------------------
# The harness: one serving workload, with or without a schedule.
# ----------------------------------------------------------------------

#: Admission backlog used by the harness: effectively unbounded, so a
#: schedule can stretch latency but never flip an admission decision
#: (the determinism rule that makes result invariance well-defined).
UNBOUNDED_BACKLOG = 2**62


@dataclass
class ChaosRunResult:
    """Everything one harness run produced."""

    positions: np.ndarray
    makespan_seconds: float
    timeline: List[Dict[str, Any]]
    fallback_windows: int
    failovers: int
    recoveries: int
    deferrals: int
    injections: List[Tuple[float, str]] = field(default_factory=list)
    update_tuples: int = 0
    compactions: int = 0
    compactions_completed: int = 0

    def summary(self) -> Dict[str, Any]:
        return {
            "makespan_seconds": round(self.makespan_seconds, 9),
            "fallback_windows": self.fallback_windows,
            "failovers": self.failovers,
            "recoveries": self.recoveries,
            "deferred_windows": self.deferrals,
            "health_events": len(self.timeline),
            "injections": len(self.injections),
            "update_tuples": self.update_tuples,
            "compactions": self.compactions,
            "compactions_completed": self.compactions_completed,
        }


def run_serve_under_chaos(
    schedule: Optional[ChaosSchedule] = None,
    shards: int = 2,
    replicas: int = 2,
    index: str = "binary-search",
    replica_indexes: Optional[Sequence[str]] = None,
    r_tuples: int = 2**12,
    requests: int = 16,
    request_tuples: int = 256,
    window_kib: int = 4,
    zipf_theta: float = 0.0,
    seed: int = 42,
    update_fraction: float = 0.0,
) -> ChaosRunResult:
    """Serve one deterministic workload, optionally under a schedule.

    ``schedule=None`` is the fault-free reference run.  The point is
    served by ``serve-bench``'s own driver
    (:func:`repro.serve.bench.serve_point`) with an unbounded backlog,
    so the workload, plan, and arrival spacing are pure functions of
    the arguments and two calls with equal arguments are bit-identical
    -- the property :func:`check_replay` asserts.  The driver checks
    every served answer against ground truth: the generator's positions
    on a read-only stream, the sorted-array-with-updates oracle when
    ``update_fraction > 0`` interleaves updates (and priced compactions
    fire mid-schedule).
    """
    # Imported here, not at module top: bench imports this module
    # lazily for its --chaos-schedule flag, and the resilience package
    # must stay importable without the serve layer's numpy machinery.
    from ..serve.bench import (
        INDEX_BY_NAME,
        _serve_workload,
        check_axis_values,
        replica_index_names,
        serve_point,
    )

    check_axis_values(
        [zipf_theta], [update_fraction], r_tuples, requests, request_tuples
    )
    if schedule is not None:
        schedule.check_targets(shards, replicas)
    names = replica_index_names(index, replicas, replica_indexes)
    relation, probes = _serve_workload(
        r_tuples, requests * request_tuples, zipf_theta, seed
    )
    controller = (
        ChaosController(schedule) if schedule is not None else None
    )
    executor, report, _ = serve_point(
        relation,
        probes,
        shards,
        window_kib,
        [INDEX_BY_NAME[name] for name in names],
        request_tuples,
        update_fraction=update_fraction,
        seed=seed,
        chaos=controller,
        max_backlog_tuples=UNBOUNDED_BACKLOG,
    )
    parts = [
        outcome.positions
        for outcome in report.outcomes
        if outcome.positions is not None
    ]
    positions = (
        np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    )
    return ChaosRunResult(
        positions=positions,
        makespan_seconds=report.makespan_seconds,
        timeline=executor.health.transitions(),
        fallback_windows=executor.fallback_windows,
        failovers=executor.failovers,
        recoveries=executor.recoveries,
        deferrals=executor.deferrals,
        injections=list(controller.injections) if controller else [],
        update_tuples=executor.update_tuples,
        compactions=len(executor.compactions),
        compactions_completed=executor.compactions_completed,
    )


def check_invariance(
    schedule: ChaosSchedule, **harness_kwargs: Any
) -> Tuple[bool, ChaosRunResult, ChaosRunResult]:
    """Clean run vs. scheduled run: served positions must be equal.

    Returns (ok, clean_result, chaos_result); callers wanting the
    counterexample get both runs back rather than a bare boolean.
    """
    clean = run_serve_under_chaos(schedule=None, **harness_kwargs)
    chaotic = run_serve_under_chaos(schedule=schedule, **harness_kwargs)
    ok = bool(np.array_equal(clean.positions, chaotic.positions))
    return ok, clean, chaotic


def check_replay(
    schedule: Optional[ChaosSchedule], **harness_kwargs: Any
) -> Tuple[bool, ChaosRunResult, ChaosRunResult]:
    """Same schedule twice: results AND timeline must be bit-identical."""
    first = run_serve_under_chaos(schedule=schedule, **harness_kwargs)
    second = run_serve_under_chaos(schedule=schedule, **harness_kwargs)
    ok = (
        bool(np.array_equal(first.positions, second.positions))
        and first.makespan_seconds == second.makespan_seconds
        and first.timeline == second.timeline
        and first.injections == second.injections
    )
    return ok, first, second


def build_event_log(
    schedule: ChaosSchedule,
    result: ChaosRunResult,
    invariant: bool,
    source: str = "",
) -> Dict[str, Any]:
    """The JSON artifact one ``repro chaos`` run leaves behind."""
    return {
        "schema": LOG_SCHEMA,
        "source": source,
        "schedule": schedule.as_dict(),
        "invariant": invariant,
        "summary": result.summary(),
        "injections": [
            {"t": round(time, 9), "fault": description}
            for time, description in result.injections
        ],
        "timeline": result.timeline,
    }


def main(
    schedule_path: str,
    shards: int = 2,
    replicas: int = 2,
    index: str = "binary-search",
    replica_indexes: Optional[Sequence[str]] = None,
    r_tuples: int = 2**12,
    requests: int = 16,
    request_tuples: int = 256,
    window_kib: int = 4,
    seed: int = 42,
    event_log_path: Optional[str] = None,
    update_fraction: float = 0.0,
) -> int:
    """``repro chaos``: replay a schedule, gate on result invariance.

    Exit status 0 when the scheduled run served positions element-equal
    to the fault-free run *and* the run replays bit-identically; 1 on
    either violation (the event log, if requested, is written in every
    case so CI can upload the counterexample).  ``update_fraction > 0``
    replays the schedule under mixed read/write traffic -- each run
    additionally oracle-checks itself, so a lost or reordered write
    fails loudly rather than as a silent divergence.
    """
    schedule = ChaosSchedule.load(schedule_path)
    # The clean run goes first and ignores the schedule: check it now.
    schedule.check_targets(shards, replicas)
    kwargs: Dict[str, Any] = dict(
        shards=shards,
        replicas=replicas,
        index=index,
        replica_indexes=replica_indexes,
        r_tuples=r_tuples,
        requests=requests,
        request_tuples=request_tuples,
        window_kib=window_kib,
        seed=seed,
        update_fraction=update_fraction,
    )
    invariant, clean, chaotic = check_invariance(schedule, **kwargs)
    replayed, _, _ = check_replay(schedule, **kwargs)
    if event_log_path:
        atomic_write_json(
            path=event_log_path,
            payload=build_event_log(
                schedule, chaotic, invariant, source=schedule_path
            ),
        )
    updates_note = (
        f" updates={chaotic.update_tuples} "
        f"compactions={chaotic.compactions_completed}/{chaotic.compactions}"
        if update_fraction > 0.0
        else ""
    )
    print(
        f"chaos {schedule_path}: events={len(schedule.events)} "
        f"injections={len(chaotic.injections)} "
        f"failovers={chaotic.failovers} recoveries={chaotic.recoveries} "
        f"fallback_windows={chaotic.fallback_windows} "
        f"deferred={chaotic.deferrals}{updates_note}"
    )
    print(
        f"  clean makespan {clean.makespan_seconds:.9f}s, "
        f"chaotic {chaotic.makespan_seconds:.9f}s"
    )
    if not invariant:
        print("  FAIL: served positions diverge from the fault-free run")
    if not replayed:
        print("  FAIL: run is not bit-identical under replay")
    if invariant and replayed:
        print("  ok: results invariant, replay bit-identical")
        return 0
    return 1
