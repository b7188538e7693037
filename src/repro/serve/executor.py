"""Window execution: probe, price, retry, fail over, degrade.

The executor runs one closed window on its shard and answers two
questions: *what are the positions* (by actually probing the simulated
index) and *how long did it take* (by pricing the shard's replayed
window counters through the cost model -- simulated seconds, never wall
clock).  Failures are injected by a chaos schedule
(:class:`~repro.resilience.chaos.ChaosController`) and absorbed by the
executor's own fixed retry schedule (:data:`PROBE_ATTEMPTS`,
:func:`retry_backoff`); backoff is added to *simulated* delay instead
of sleeping, so fault schedules stretch latency without touching the
wall clock, and no environment variable can change it.

:class:`ReplicatedShardExecutor` serves K replicas per range behind a
cost-based router; an unreplicated deployment is simply K = 1.  A
window goes to the cheapest healthy replica (probation replicas first
-- the half-open trial).  Every transition to dead -- the failure
threshold tripping mid-retry, or a spent retry budget -- prices and
schedules exactly one rebuild on the simulated clock, and the window
fails over to the next candidate.  With every replica of a range down
(at K = 1: the only one is dead or compacting), the router weighs
*waiting for the earliest rebuild or merge* against *probing the
fallback* and either defers the window (:class:`WindowDeferred`) or
degrades.

A window's positions are identical no matter which replica or fallback
served it -- all copies return global R positions -- which is the
invariance the chaos harness checks.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .. import obs
from ..config import SimulationConfig
from ..errors import CapacityError, ConfigurationError
from ..hardware.counters import PerfCounters
from ..hardware.spec import SystemSpec, V100_NVLINK2
from ..perf.model import CostModel
from ..units import KEY_BYTES
from .batcher import Window
from .delta import (
    DEFAULT_COMPACTION_POLICY,
    CompactionPolicy,
    read_amplification,
)
from .health import DEFAULT_FAILURE_THRESHOLD, HealthTracker, PROBATION
from .recovery import (
    CompactionCost,
    RebuildCost,
    price_compaction,
    price_rebuild,
)
from .shard import CALIBRATION_SIM, Shard, ShardPlan

if TYPE_CHECKING:
    from ..resilience.chaos import ChaosController


#: A window executes as two serial kernels, mirroring the windowed
#: INLJ's partition-then-probe stage pair (Section 5).
KERNELS_PER_WINDOW = 2

#: A window defers to a pending rebuild at most this many times before
#: it must take the fallback -- the terminating backstop under fault
#: schedules that keep re-killing the recovering replica.
MAX_WINDOW_DEFERRALS = 2

#: Probe attempts one replica gets per window before it is declared
#: dead and the window fails over.
PROBE_ATTEMPTS = 3

#: Backoff before retry ``k`` is ``min(BASE * 2**(k-1), CAP)`` simulated
#: seconds, scaled by a jitter factor in [0.5, 1) (see
#: :func:`retry_backoff`).
BACKOFF_BASE_SECONDS = 0.05
BACKOFF_CAP_SECONDS = 2.0


def retry_backoff(shard_id: int, replica_id: int, attempt: int) -> float:
    """Simulated seconds a failed probe waits before retry ``attempt``.

    Exponential in the 1-based attempt number, capped, with jitter
    drawn from a generator seeded by the replica and the attempt: the
    same retry always waits the same time, while retries on different
    replicas decorrelate.  A str seed hashes stably (sha512), so the
    schedule reproduces across processes.
    """
    delay = min(BACKOFF_BASE_SECONDS * 2.0 ** (attempt - 1), BACKOFF_CAP_SECONDS)
    jitter = random.Random(f"0:serve.shard{shard_id}r{replica_id}:{attempt}")
    return delay * (0.5 + 0.5 * jitter.random())


@dataclass
class WindowResult:
    """Outcome of executing one window.

    ``service_seconds`` is pure simulated time: the cost model's price
    for the window's replayed counters, two kernel launches, and any
    retry backoff (:func:`retry_backoff`, added, not slept).
    """

    window: Window
    positions: np.ndarray
    service_seconds: float
    counters: PerfCounters
    retries: int = 0
    degraded: bool = False
    #: Filled in by the service: seconds the window sat queued.
    queue_wait: float = 0.0
    #: Replica that served the window (-1: the fallback or an update).
    replica: int = -1
    #: Replicas that died under this window before one answered.
    failovers: int = 0


@dataclass(frozen=True)
class WindowDeferred:
    """The router chose to wait for a rebuild instead of degrading.

    The service re-queues the window and retries it once the simulated
    clock reaches ``ready_at`` (the earliest pending rebuild of the
    window's shard).
    """

    window: Window
    ready_at: float


class _WindowCost(NamedTuple):
    """One copy's charge for one window (see ``_window_cost``)."""

    price: float
    counters: PerfCounters
    delta_seconds: float
    delta: Optional[PerfCounters]

    @property
    def seconds(self) -> float:
        """The routing price: base window plus delta stage."""
        return self.price + self.delta_seconds


def _fallback_probe(fallback: Shard, window: Window) -> np.ndarray:
    """Degraded-path probe, attributed to the ``serve_fallback`` phase.

    The fallback index bypasses the per-shard counters, so degraded
    traffic gets its own ``serve.fallback.*`` names -- visible in
    ``repro obs report`` instead of silently folded into healthy
    traffic.  The fallback spans all of R, so its positions are already
    global: identical to the healthy shard's answer.
    """
    with obs.phase("serve_fallback"):
        with obs.span("serve.fallback.probe", shard=window.shard_id):
            positions = fallback.probe(window.keys)
        if obs.enabled():
            obs.add("serve.fallback.windows", shard=window.shard_id)
            obs.add(
                "serve.fallback.lookups", len(window), shard=window.shard_id
            )
    return positions


def _update_window_values(window: Window) -> np.ndarray:
    """The row ids an update window writes; raises on a probe window."""
    if window.kind != "update" or window.values is None:
        raise ConfigurationError(
            f"window of kind {window.kind!r} is not an executable update"
        )
    if len(window.values) != len(window.keys):
        raise ConfigurationError(
            f"update window carries {len(window.keys)} keys but "
            f"{len(window.values)} values"
        )
    return window.values


def _update_counters(
    window_tuples: int, delta_tuples_after: int
) -> PerfCounters:
    """Replay counters of absorbing one update window into a delta.

    The window ships its ``(key, row id)`` pairs over the interconnect
    (sequential scan) and merges them into the sorted buffer -- a pass
    over the post-merge delta.  Pure in (window width, resulting delta
    depth), so update timelines replay bit-identically.
    """
    width = float(window_tuples)
    depth = float(max(0, delta_tuples_after))
    return PerfCounters(
        scan_bytes=width * 2 * KEY_BYTES,
        memory_accesses=width + depth,
        remote_accesses=width,
        simt_instructions=width + depth,
    )


@dataclass
class ReplicatedShardExecutor:
    """Cost-routed window execution over a plan's copies with recovery.

    The plan supplies every copy of every range and the fallback.
    ``chaos`` is an optional scripted fault source (a
    :class:`repro.resilience.chaos.ChaosController`): ``check_probe``
    is consulted before every replica probe attempt and ``on_restart``
    is notified when a rebuilt replica rejoins.
    """

    plan: ShardPlan
    spec: SystemSpec = V100_NVLINK2
    sim: SimulationConfig = CALIBRATION_SIM
    failure_threshold: int = DEFAULT_FAILURE_THRESHOLD
    chaos: Optional[ChaosController] = None
    compaction_policy: CompactionPolicy = DEFAULT_COMPACTION_POLICY
    _cost: CostModel = field(init=False)

    def __post_init__(self) -> None:
        self._cost = CostModel(self.spec)
        self.health = HealthTracker(
            self.plan.num_shards,
            self.plan.replicas_per_shard,
            failure_threshold=self.failure_threshold,
        )
        #: Simulated *base* window price and the counters it was priced
        #: from, per (shard, replica, window tuples), and per (-1, -1,
        #: window tuples) for the fallback; the delta reconciliation
        #: stage is priced fresh on top because delta depth changes with
        #: every update window.  A replica's entries live until its next
        #: compaction completes; the fallback never compacts.
        self._window_memo: Dict[
            Tuple[int, int, int], Tuple[float, PerfCounters]
        ] = {}
        #: Rebuild price per (shard, replica): invalidated only by a
        #: compaction, which changes the slice being rebuilt.
        self._rebuild_memo: Dict[Tuple[int, int], RebuildCost] = {}
        #: Newly scheduled simulated-clock completions for the service:
        #: (ready_at, key) where key is ``(shard, replica)`` for a
        #: rebuild or ``("compact", shard, replica)`` for a compaction.
        self._scheduled: List[Tuple[float, Tuple[Any, ...]]] = []
        #: Monotonic id of every executed window, chaos's batch handle.
        self._window_seq = 0
        #: In-flight compactions: (shard, replica) -> completion time.
        #: A compacting replica is unroutable until its merge lands.
        self._compacting: Dict[Tuple[int, int], float] = {}
        #: Simulated seconds each replica has spent reconciling probe
        #: windows against its delta -- the "rent" the priced
        #: compaction trigger weighs against the merge cost.
        self._delta_read_seconds: Dict[Tuple[int, int], float] = {}
        self.fallback_windows = 0
        self.failovers = 0
        self.recoveries = 0
        self.deferrals = 0
        self.update_windows = 0
        self.update_tuples = 0
        #: Scheduled compaction events, in schedule order (payload rows).
        self.compactions: List[Dict[str, object]] = []
        self.compactions_completed = 0
        self.delta_peak = 0
        self.read_amplification_peak = 0.0

    # ------------------------------------------------------------------
    # Pricing and routing.
    # ------------------------------------------------------------------

    def _window_cost(
        self, shard_id: int, replica_id: int, window_tuples: int
    ) -> _WindowCost:
        """What one copy charges for one window: the memoized base price
        and counters, plus a fresh delta-reconciliation stage.

        ``replica_id`` -1 is the fallback, memoized under (-1, -1,
        window tuples).  The delta stage is priced on every call because
        delta depth changes with every update window: a replica carrying
        a deep delta is genuinely more expensive to route to, which is
        how reads feel the pressure that the compaction policy relieves.
        The base counters are shared with the memo: copy before
        mutating.
        """
        if replica_id < 0:
            shard, key = self.plan.fallback, (-1, -1, window_tuples)
        else:
            shard = self.plan.replicas[shard_id][replica_id]
            key = (shard_id, replica_id, window_tuples)
        entry = self._window_memo.get(key)
        if entry is None:
            counters = shard.window_counters(
                window_tuples, self.spec, self.sim
            )
            price = (
                self._cost.probe_stage_time(counters)
                + KERNELS_PER_WINDOW
                * self._cost.constants.kernel_launch_seconds
            )
            entry = (price, counters)
            self._window_memo[key] = entry
        delta = shard.delta.read_counters(window_tuples)
        delta_seconds = (
            0.0 if delta is None else self._cost.probe_stage_time(delta)
        )
        return _WindowCost(entry[0], entry[1], delta_seconds, delta)

    def rebuild_cost(self, shard_id: int, replica_id: int) -> RebuildCost:
        key = (shard_id, replica_id)
        if key not in self._rebuild_memo:
            self._rebuild_memo[key] = price_rebuild(
                self.plan.replicas[shard_id][replica_id],
                self.spec,
                self._cost.constants,
            )
        return self._rebuild_memo[key]

    def route(
        self, shard_id: int, window_tuples: int
    ) -> List[Tuple[int, _WindowCost]]:
        """Serving candidates for one window and their costs, best first.

        Probation replicas lead (the half-open trial: a shard executes
        one window at a time, so probation-first ordering is exactly
        one in-flight trial); within a tier the cheapest priced replica
        wins, with replica id as the deterministic tiebreak.
        """
        ranked: List[Tuple[int, float, int, _WindowCost]] = []
        for replica_id in range(self.plan.replicas_per_shard):
            if self.health.is_dead(shard_id, replica_id):
                continue
            if (shard_id, replica_id) in self._compacting:
                # Mid-merge: the replica's index is being rewritten.
                continue
            tier = (
                0
                if self.health.state(shard_id, replica_id) == PROBATION
                else 1
            )
            cost = self._window_cost(shard_id, replica_id, window_tuples)
            ranked.append((tier, cost.seconds, replica_id, cost))
        ranked.sort(key=lambda entry: entry[:3])
        return [(replica_id, cost) for _, _, replica_id, cost in ranked]

    # ------------------------------------------------------------------
    # Failure, recovery, and the service-facing hooks.
    # ------------------------------------------------------------------

    def _on_dead(self, shard_id: int, replica_id: int, now: float) -> None:
        """Price and schedule the dead replica's background rebuild."""
        cost = self.rebuild_cost(shard_id, replica_id)
        ready_at = now + cost.seconds
        self.health.schedule_rebuild(
            shard_id, replica_id, now, ready_at, detail=cost.describe()
        )
        self._scheduled.append((ready_at, (shard_id, replica_id)))
        if obs.enabled():
            obs.add("serve.rebuilds", shard=shard_id, replica=replica_id)
            obs.observe(
                "serve.rebuild_seconds",
                cost.seconds,
                shard=shard_id,
                replica=replica_id,
            )

    def take_scheduled(self) -> List[Tuple[float, Tuple[Any, ...]]]:
        """Drain completions (rebuilds, compactions) since the last call."""
        scheduled = self._scheduled
        self._scheduled = []
        return scheduled

    def handle_recovery(self, key: Tuple[Any, ...], now: float) -> bool:
        """A scheduled completion event fired.

        ``(shard, replica)`` keys are rebuild completions (the replica
        rejoins); ``("compact", shard, replica)`` keys are compaction
        completions (the merge lands).  Returns True when state
        actually transitioned (a stale completion is a no-op).
        """
        if len(key) == 3 and key[0] == "compact":
            return self._complete_compaction(int(key[1]), int(key[2]), now)
        shard_id, replica_id = key
        if not self.health.complete_rebuild(shard_id, replica_id, now):
            return False
        self.recoveries += 1
        if self.chaos is not None:
            self.chaos.on_restart(shard_id, replica_id, now)
        if obs.enabled():
            obs.add("serve.recoveries", shard=shard_id, replica=replica_id)
        return True

    # ------------------------------------------------------------------
    # Compaction: the priced fold of a replica's delta into its base.
    # ------------------------------------------------------------------

    def _evaluate_compaction(self, shard_id: int, now: float) -> None:
        """Schedule compactions whose trigger fired, rolling per shard.

        At most all-but-one *routable* replica of a shard compacts at a
        time (replicas have identical deltas, so triggers fire together;
        rolling keeps the shard serving without degrading).  A
        single-replica shard compacts anyway -- its windows then face
        the genuine defer-or-fallback cost decision.  Dead replicas
        compact freely: the merge is a host-side content operation.
        """
        replicas = self.plan.replicas[shard_id]
        available = sum(
            1
            for replica_id in range(len(replicas))
            if not self.health.is_dead(shard_id, replica_id)
            and (shard_id, replica_id) not in self._compacting
        )
        for replica_id, shard in enumerate(replicas):
            key = (shard_id, replica_id)
            if key in self._compacting:
                continue
            depth = shard.delta.num_tuples
            if depth == 0:
                continue
            amp = read_amplification(depth, shard.index.height)
            self.delta_peak = max(self.delta_peak, depth)
            self.read_amplification_peak = max(
                self.read_amplification_peak, amp
            )
            cost = price_compaction(
                shard, depth, self.spec, self._cost.constants
            )
            if not self.compaction_policy.should_compact(
                depth,
                amp,
                self._delta_read_seconds.get(key, 0.0),
                cost.seconds,
            ):
                continue
            routable = not self.health.is_dead(shard_id, replica_id)
            if routable and available <= 1 and len(replicas) > 1:
                continue
            self._schedule_compaction(key, cost, depth, amp, now)
            if routable:
                available -= 1

    def _schedule_compaction(
        self,
        key: Tuple[int, int],
        cost: CompactionCost,
        depth: int,
        amp: float,
        now: float,
    ) -> None:
        shard_id, replica_id = key
        ready_at = now + cost.seconds
        self._compacting[key] = ready_at
        self._scheduled.append((ready_at, ("compact", shard_id, replica_id)))
        self.compactions.append(
            {
                "shard": shard_id,
                "replica": replica_id,
                "index": self.plan.replicas[shard_id][replica_id].index.name,
                "strategy": cost.strategy,
                "delta_tuples": depth,
                "read_amplification": round(amp, 6),
                "scheduled_at": round(now, 9),
                "seconds": round(cost.seconds, 9),
            }
        )
        self.health.note(
            now, shard_id, replica_id, "compaction_scheduled", cost.describe()
        )
        if obs.enabled():
            obs.add(
                "serve.compaction.scheduled",
                shard=shard_id,
                replica=replica_id,
            )
            obs.observe(
                "serve.compaction.seconds",
                cost.seconds,
                shard=shard_id,
                replica=replica_id,
            )

    def _complete_compaction(
        self, shard_id: int, replica_id: int, now: float
    ) -> bool:
        """A compaction event fired: fold the delta, reprice the slot."""
        key = (shard_id, replica_id)
        if self._compacting.pop(key, None) is None:
            return False
        merged = self.plan.replicas[shard_id][replica_id].compact()
        # The base slice changed: stale prices and counters must not
        # serve routing or a window's charge.
        self._window_memo = {
            memo_key: entry
            for memo_key, entry in self._window_memo.items()
            if memo_key[:2] != key
        }
        self._rebuild_memo.pop(key, None)
        self._delta_read_seconds.pop(key, None)
        self.compactions_completed += 1
        self.health.note(
            now, shard_id, replica_id, "compaction_complete",
            f"merged={merged}",
        )
        if obs.enabled():
            obs.add(
                "serve.compaction.completed",
                shard=shard_id,
                replica=replica_id,
            )
        return True

    @property
    def failed_shards(self) -> List[int]:
        """Shards whose every copy is currently dead."""
        return [
            shard_id
            for shard_id in range(self.plan.num_shards)
            if all(
                self.health.is_dead(shard_id, replica_id)
                for replica_id in range(self.plan.replicas_per_shard)
            )
        ]

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def execute(
        self, window: Window, now: float = 0.0
    ) -> Union[WindowResult, WindowDeferred]:
        """Serve one window at simulated time ``now``.

        Walks the routed candidates; each candidate gets
        :data:`PROBE_ATTEMPTS` tries, and one that spends them is
        declared dead (rebuild scheduled) before the window fails over
        to the next.  With no candidate left, the failover-vs-wait
        decision runs: defer to the earliest rebuild when waiting is
        priced cheaper than the fallback probe, else degrade.

        Update windows take their own path: host-authoritative delta
        application to every replica, no routing, no fault injection.
        """
        if window.kind == "update":
            return self._execute_update(window, now)
        seq = self._window_seq
        self._window_seq += 1
        shard_id = window.shard_id
        delays: List[float] = []
        failovers = 0
        positions: Optional[np.ndarray] = None
        served_by = -1

        for replica_id, cost in self.route(shard_id, len(window)):
            positions = self._probe(window, replica_id, now, seq, delays)
            if positions is not None:
                served_by = replica_id
                break
            if self.health.force_dead(shard_id, replica_id, now):
                self._on_dead(shard_id, replica_id, now)
            failovers += 1
            self.health.note(
                now, shard_id, replica_id, "failover", f"window={seq}"
            )
            if obs.enabled():
                obs.add(
                    "serve.failovers", shard=shard_id, replica=replica_id
                )

        self.failovers += failovers
        degraded = positions is None
        if positions is None:
            deferred = self._maybe_defer(window, now, seq)
            if deferred is not None:
                return deferred
            positions = _fallback_probe(self.plan.fallback, window)
            self.fallback_windows += 1
            self.health.note(now, shard_id, -1, "fallback", f"window={seq}")
            cost = self._window_cost(shard_id, -1, len(window))

        # ``cost`` is the serving copy's: the fallback's, or the routed
        # replica's (probing changes neither its memo entry nor its
        # delta depth, so the routing cost still holds).
        counters = copy.copy(cost.counters)
        service = cost.price + sum(delays)
        if cost.delta is not None:
            # Serial reconciliation stage; its seconds are the "rent"
            # the compaction policy's priced trigger accumulates.
            service += cost.delta_seconds
            counters.add(cost.delta)
            if not degraded:
                key = (shard_id, served_by)
                self._delta_read_seconds[key] = (
                    self._delta_read_seconds.get(key, 0.0)
                    + cost.delta_seconds
                )
            self._evaluate_compaction(shard_id, now)
        if obs.enabled():
            if delays:
                obs.add("serve.retries", len(delays), shard=shard_id)
            if degraded:
                obs.add("serve.degraded_windows", shard=shard_id)
        return WindowResult(
            window=window,
            positions=positions,
            service_seconds=service,
            counters=counters,
            retries=len(delays),
            degraded=degraded,
            replica=served_by,
            failovers=failovers,
        )

    def _probe(
        self,
        window: Window,
        replica_id: int,
        now: float,
        seq: int,
        delays: List[float],
    ) -> Optional[np.ndarray]:
        """Probe one replica with retries; None once its attempts are spent.

        Each retry's backoff is appended to ``delays``.  Every failure
        counts toward the replica's health threshold, which can trip
        mid-retry: a later attempt may still answer, but the replica
        stays dead until the rebuild scheduled here brings it back.
        :class:`CapacityError` and :class:`ConfigurationError` propagate
        at once -- retrying cannot fix them.
        """
        shard_id = window.shard_id
        shard = self.plan.replicas[shard_id][replica_id]
        for attempt in range(PROBE_ATTEMPTS):
            if attempt:
                delays.append(retry_backoff(shard_id, replica_id, attempt))
            try:
                if self.chaos is not None:
                    self.chaos.check_probe(shard_id, replica_id, now, seq)
                positions = shard.probe(window.keys)
            except Exception as error:
                if self.health.record_failure(shard_id, replica_id, now):
                    self._on_dead(shard_id, replica_id, now)
                if isinstance(error, (CapacityError, ConfigurationError)):
                    raise
                continue
            self.health.record_success(shard_id, replica_id, now)
            return positions
        return None

    def _execute_update(
        self, window: Window, now: float
    ) -> WindowResult:
        """Absorb one update window into every replica's delta tier.

        Updates are host-authoritative: the buffered pairs live in host
        memory, so they apply to every replica (dead or alive -- a dead
        replica's rebuild starts from current host state) and to the
        fallback, unconditionally.  No chaos check, no retries: a kill
        schedule stretches read latency, never loses a write, which is
        what keeps the chaos invariance gate meaningful under mixed
        traffic.
        """
        self._window_seq += 1
        values = _update_window_values(window)
        shard_id = window.shard_id
        depth = 0
        for shard in self.plan.replicas[shard_id]:
            shard.apply_updates(window.keys, values)
            depth = shard.delta.num_tuples
        self.plan.fallback.apply_updates(window.keys, values)
        self.update_windows += 1
        self.update_tuples += len(window)
        self.delta_peak = max(self.delta_peak, depth)
        counters = _update_counters(len(window), depth)
        service = (
            self._cost.probe_stage_time(counters)
            + KERNELS_PER_WINDOW * self._cost.constants.kernel_launch_seconds
        )
        if obs.enabled():
            obs.add("serve.delta.applied", len(window), shard=shard_id)
            obs.observe("serve.delta.depth", depth, shard=shard_id)
        self._evaluate_compaction(shard_id, now)
        return WindowResult(
            window=window,
            positions=values.copy(),
            service_seconds=service,
            counters=counters,
        )

    def _maybe_defer(
        self, window: Window, now: float, seq: int
    ) -> Optional[WindowDeferred]:
        """The failover-vs-wait decision once no replica is routable.

        Waiting wins when (time until the earliest rebuild *or*
        compaction completes) plus (that replica's window price)
        undercuts the fallback probe -- both sides in the same
        simulated currency.  Deferrals per window are capped so fault
        schedules that keep re-killing the recovering replica still
        terminate.
        """
        if window.deferrals >= MAX_WINDOW_DEFERRALS:
            return None
        candidates: List[Tuple[float, int]] = []
        pending = self.health.next_rebuild_ready(window.shard_id)
        if pending is not None:
            candidates.append(pending)
        for (shard_id, replica_id), compact_ready in sorted(
            self._compacting.items()
        ):
            if shard_id == window.shard_id and not self.health.is_dead(
                shard_id, replica_id
            ):
                candidates.append((compact_ready, replica_id))
        if not candidates:
            return None
        ready_at, replica_id = min(candidates)
        wait = max(0.0, ready_at - now)
        rebuilt = self._window_cost(window.shard_id, replica_id, len(window))
        fallback = self._window_cost(window.shard_id, -1, len(window))
        if wait + rebuilt.seconds >= fallback.seconds:
            return None
        window.deferrals += 1
        self.deferrals += 1
        self.health.note(
            now,
            window.shard_id,
            replica_id,
            "deferred",
            f"window={seq} ready_at={ready_at:.9f}",
        )
        if obs.enabled():
            obs.add("serve.deferred_windows", shard=window.shard_id)
        return WindowDeferred(window=window, ready_at=ready_at)
