"""Sharded index serving: batched, admission-controlled, simulated-clock.

:class:`ShardedIndexService` ties the serving layer together.  Probe
requests arrive on a simulated timeline; each is routed to the shards
owning its keys, admitted whole or rejected whole by the backlog bound,
and buffered into per-shard tumbling windows.  Closed windows queue FIFO
per shard; each shard is one simulated GPU that executes one window at a
time, its service time priced by the cost model.  Every range is a
replica set -- K = 1 for an unreplicated deployment -- executed by
:class:`~repro.serve.executor.ReplicatedShardExecutor`.  The event loop
is a plain discrete-event simulation over a :class:`SimulatedClock` --
the executor's scheduled rebuilds and compactions, completions and
arrivals interleave on the heap; at equal timestamps recoveries run
first, then completions, so a draining shard frees backlog before the
next arrival is admitted.

Everything is deterministic: no wall clock (DET002), no unseeded
randomness (DET001), no unordered-set iteration (DET003).  Two runs over
the same requests produce bit-identical reports.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..errors import ConfigurationError, SimulationError
from ..hardware.counters import PerfCounters
from .admission import AdmissionController
from .batcher import ShardBatcher, Window
from .clock import SimulatedClock
from .executor import ReplicatedShardExecutor, WindowDeferred, WindowResult
from .replica import ReplicatedPlan

#: Heap ranks: recoveries before completions before arrivals at equal
#: timestamps.  A replica rejoining at time t must be visible to a
#: window dispatched at t (the deferral path relies on it), and a
#: draining shard must free backlog before the next arrival is
#: admitted.
_RECOVERY = -1
_COMPLETION = 0
_ARRIVAL = 1


@dataclass(frozen=True)
class _Recovery:
    """Heap payload: a scheduled rebuild or compaction completes."""

    key: Tuple[Any, ...]


@dataclass(frozen=True)
class _ShardKick:
    """Heap payload: re-dispatch a shard parked on a deferred window."""

    shard_id: int


@dataclass(frozen=True)
class ProbeRequest:
    """One client request: a batch of keys at an arrival time.

    ``kind`` is ``"probe"`` (read the keys' positions) or ``"update"``
    (write: ``values`` carries the global row id each key takes, and
    the served positions echo those row ids back as the write
    acknowledgement).
    """

    request_id: int
    keys: np.ndarray
    arrival: float
    kind: str = "probe"
    values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if len(self.keys) == 0:
            raise ConfigurationError(
                f"request {self.request_id} carries no keys"
            )
        if self.arrival < 0:
            raise ConfigurationError(
                f"request {self.request_id} arrives before time zero"
            )
        if self.kind not in ("probe", "update"):
            raise ConfigurationError(
                f"request {self.request_id} has unknown kind {self.kind!r}"
            )
        if self.kind == "update":
            if self.values is None or len(self.values) != len(self.keys):
                raise ConfigurationError(
                    f"update request {self.request_id} needs one value "
                    "per key"
                )
        elif self.values is not None:
            raise ConfigurationError(
                f"probe request {self.request_id} must not carry values"
            )


@dataclass
class RequestOutcome:
    """Served (or rejected) state of one request.

    ``positions`` are global R positions aligned with the request's
    keys, -1 for misses; ``None`` iff the request was rejected.
    """

    request_id: int
    arrival: float
    admitted: bool
    positions: Optional[np.ndarray] = None
    completion: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        if self.completion is None:
            return None
        return self.completion - self.arrival


@dataclass
class ShardStats:
    """Per-shard serving tallies, aggregated over the run."""

    windows: int = 0
    full_windows: int = 0
    lookups: int = 0
    matches: int = 0
    update_windows: int = 0
    update_tuples: int = 0
    retries: int = 0
    degraded_windows: int = 0
    failovers: int = 0
    deferred_windows: int = 0
    queue_wait_seconds: float = 0.0
    busy_seconds: float = 0.0
    counters: PerfCounters = field(default_factory=PerfCounters)


@dataclass
class ServeReport:
    """Everything one :meth:`ShardedIndexService.run` produced."""

    outcomes: List[RequestOutcome]
    shard_stats: Dict[int, ShardStats]
    makespan_seconds: float
    admitted_requests: int
    rejected_requests: int

    @property
    def total_lookups(self) -> int:
        return sum(stats.lookups for stats in self.shard_stats.values())

    @property
    def throughput_lookups_per_second(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return self.total_lookups / self.makespan_seconds

    @property
    def latencies(self) -> List[float]:
        """Latencies of served requests, in request order."""
        return [
            outcome.latency
            for outcome in self.outcomes
            if outcome.latency is not None
        ]

    def total_counters(self) -> PerfCounters:
        total = PerfCounters()
        for _, stats in sorted(self.shard_stats.items()):
            total.add(stats.counters)
        return total


class ShardedIndexService:
    """Discrete-event serving simulation over a shard plan."""

    def __init__(
        self,
        plan: ReplicatedPlan,
        executor: ReplicatedShardExecutor,
        window_bytes: int,
        max_backlog_tuples: int,
    ):
        self.plan = plan
        self.executor = executor
        self.batcher = ShardBatcher(plan.num_shards, window_bytes)
        self.admission = AdmissionController(
            plan.num_shards, max_backlog_tuples
        )
        self.clock = SimulatedClock()
        self._queues: List[Deque[Tuple[Window, float]]] = [
            deque() for _ in range(plan.num_shards)
        ]
        self._busy: List[bool] = [False] * plan.num_shards
        self._seq = 0
        #: Makespan excludes trailing recovery events: a rebuild that
        #: completes after the last tuple was served extends the event
        #: timeline, not the serving time.
        self._makespan = 0.0
        self._stats: Dict[int, ShardStats] = {}
        #: Global-stream row-id values of admitted update tuples
        #: (-1 for probe tuples), indexed by stream position; grown
        #: geometrically.  Windows slice it by their stream indices.
        self._stream_values = np.full(0, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Event loop.
    # ------------------------------------------------------------------

    def run(self, requests: List[ProbeRequest]) -> ServeReport:
        """Serve ``requests`` to completion; returns the full report.

        Requests must be sorted by arrival time (a serving front door
        sees its clients in order); the loop raises otherwise rather
        than silently reordering.
        """
        for earlier, later in zip(requests, requests[1:]):
            if later.arrival < earlier.arrival:
                raise ConfigurationError(
                    "requests must be sorted by arrival: "
                    f"{later.request_id} before {earlier.request_id}"
                )
        outcomes = {
            request.request_id: RequestOutcome(
                request_id=request.request_id,
                arrival=request.arrival,
                admitted=False,
            )
            for request in requests
        }
        stats = {
            shard.shard_id: ShardStats() for shard in self.plan.shards
        }
        self._stats = stats
        # Global stream bookkeeping: admitted requests occupy contiguous
        # stream-index ranges, so a searchsorted over their start
        # offsets maps any window index back to its owning request.
        admitted_ids: List[int] = []
        admitted_starts: List[int] = []
        remaining: Dict[int, int] = {}
        stream_length = 0

        heap: List[Tuple[float, int, int, object]] = []
        for request in requests:
            self._push(heap, request.arrival, _ARRIVAL, request)
        pending_arrivals = len(requests)

        with obs.span("serve.run", shards=self.plan.num_shards):
            while heap:
                timestamp, rank, _, payload = heapq.heappop(heap)
                self.clock.advance_to(timestamp)
                if rank == _RECOVERY:
                    assert isinstance(payload, _Recovery)
                    self.executor.handle_recovery(payload.key, self.clock.now)
                    continue
                if isinstance(payload, _ShardKick):
                    # The deferred window's rebuild deadline arrived;
                    # the recovery at the same timestamp already ran
                    # (rank -1), so the rejoined replica is routable.
                    self._busy[payload.shard_id] = False
                    self._start_next(heap, payload.shard_id)
                    continue
                if rank == _ARRIVAL:
                    request = payload
                    pending_arrivals -= 1
                    self._makespan = self.clock.now
                    parts = self.plan.split(
                        request.keys,
                        np.arange(
                            stream_length,
                            stream_length + len(request.keys),
                            dtype=np.int64,
                        ),
                    )
                    if self.admission.try_admit(parts):
                        outcome = outcomes[request.request_id]
                        outcome.admitted = True
                        outcome.positions = np.full(
                            len(request.keys), -1, dtype=np.int64
                        )
                        remaining[request.request_id] = len(request.keys)
                        admitted_ids.append(request.request_id)
                        admitted_starts.append(stream_length)
                        self._record_stream_values(stream_length, request)
                        stream_length += len(request.keys)
                        if obs.enabled():
                            obs.add("serve.requests.admitted")
                        for shard_id, keys, indices in parts:
                            self._enqueue(
                                heap,
                                self.batcher.push(
                                    shard_id,
                                    keys,
                                    indices,
                                    kind=request.kind,
                                ),
                            )
                    elif obs.enabled():
                        obs.add("serve.requests.rejected")
                    if pending_arrivals == 0:
                        # End of stream: close every open partial window
                        # ("no more tuples are available", Section 5.1).
                        self._enqueue(heap, self.batcher.flush_all())
                else:
                    result = payload
                    self._makespan = self.clock.now
                    self._complete(
                        result,
                        outcomes,
                        stats,
                        remaining,
                        np.asarray(admitted_ids, dtype=np.int64),
                        np.asarray(admitted_starts, dtype=np.int64),
                    )
                    shard_id = result.window.shard_id
                    self._busy[shard_id] = False
                    self._start_next(heap, shard_id)

        leftover = [
            request_id
            for request_id, count in sorted(remaining.items())
            if count > 0
        ]
        if leftover:
            raise SimulationError(
                f"service drained with unserved tuples for {leftover}"
            )
        report = ServeReport(
            outcomes=[outcomes[request.request_id] for request in requests],
            shard_stats=stats,
            makespan_seconds=self._makespan,
            admitted_requests=self.admission.admitted_requests,
            rejected_requests=self.admission.rejected_requests,
        )
        if obs.enabled():
            obs.add_perf_counters("serve", report.total_counters())
        return report

    # ------------------------------------------------------------------
    # Shard scheduling.
    # ------------------------------------------------------------------

    def _push(
        self, heap: list, timestamp: float, rank: int, payload: object
    ) -> None:
        self._seq += 1
        heapq.heappush(heap, (timestamp, rank, self._seq, payload))

    def _record_stream_values(
        self, start: int, request: ProbeRequest
    ) -> None:
        """Land an admitted request's row-id values in the stream array."""
        end = start + len(request.keys)
        if end > len(self._stream_values):
            grown = np.full(
                max(end, 2 * max(1, len(self._stream_values))),
                -1,
                dtype=np.int64,
            )
            grown[: len(self._stream_values)] = self._stream_values
            self._stream_values = grown
        if request.kind == "update":
            assert request.values is not None  # __post_init__ checked
            self._stream_values[start:end] = request.values

    def _enqueue(self, heap: list, windows: List[Window]) -> None:
        """Queue closed windows; start any idle shard immediately."""
        for window in windows:
            shard_id = window.shard_id
            if window.kind == "update" and window.values is None:
                window.values = self._stream_values[window.indices]
            self._queues[shard_id].append((window, self.clock.now))
            if not self._busy[shard_id]:
                self._dispatch(heap, shard_id)

    def _start_next(self, heap: list, shard_id: int) -> None:
        if self._queues[shard_id]:
            self._dispatch(heap, shard_id)

    def _dispatch(self, heap: list, shard_id: int) -> None:
        """Execute the shard's next queued window on the simulated GPU."""
        window, enqueued = self._queues[shard_id].popleft()
        self._busy[shard_id] = True
        wait = self.clock.now - enqueued
        with obs.span(
            "serve.window", shard=shard_id, tuples=len(window)
        ):
            result = self.executor.execute(window, now=self.clock.now)
        self._drain_scheduled(heap)
        if isinstance(result, WindowDeferred):
            # Failover-vs-wait chose to wait: park the window at the
            # queue head (original enqueue time intact, so its queue
            # wait keeps accruing) and hold the shard busy until the
            # rebuild deadline kicks it.
            self._queues[shard_id].appendleft((window, enqueued))
            if shard_id in self._stats:
                self._stats[shard_id].deferred_windows += 1
            self._push(
                heap, result.ready_at, _COMPLETION, _ShardKick(shard_id)
            )
            return
        result.queue_wait = wait
        self._push(
            heap,
            self.clock.now + result.service_seconds,
            _COMPLETION,
            result,
        )

    def _drain_scheduled(self, heap: list) -> None:
        """Turn newly scheduled rebuilds into simulated-clock events."""
        for ready_at, key in self.executor.take_scheduled():
            self._push(heap, ready_at, _RECOVERY, _Recovery(key))

    def _complete(
        self,
        result: WindowResult,
        outcomes: Dict[int, RequestOutcome],
        stats: Dict[int, ShardStats],
        remaining: Dict[int, int],
        admitted_ids: np.ndarray,
        admitted_starts: np.ndarray,
    ) -> None:
        """Scatter a window's positions back to its requests."""
        window = result.window
        shard_id = window.shard_id
        shard_stats = stats[shard_id]
        is_update = window.kind == "update"
        if is_update:
            # Writes are tallied apart from reads: lookup/match rates
            # (and throughput, which divides lookups) stay read-only
            # quantities, directly comparable to a zero-update run.
            shard_stats.update_windows += 1
            shard_stats.update_tuples += len(window)
        else:
            shard_stats.windows += 1
            if window.full:
                shard_stats.full_windows += 1
            shard_stats.lookups += len(window)
            matches = int(np.count_nonzero(result.positions >= 0))
            shard_stats.matches += matches
        shard_stats.retries += result.retries
        shard_stats.failovers += result.failovers
        if result.degraded:
            shard_stats.degraded_windows += 1
        wait = result.queue_wait
        shard_stats.queue_wait_seconds += wait
        shard_stats.busy_seconds += result.service_seconds
        shard_stats.counters.add(result.counters)
        # Window counters use names disjoint from PerfCounters fields:
        # the run-total replay counters land as ``serve.<field>`` via
        # add_perf_counters, and one obs name must keep one label set.
        if obs.enabled():
            if is_update:
                obs.add("serve.update_windows", shard=shard_id)
                obs.add(
                    "serve.update_tuples", len(window), shard=shard_id
                )
            else:
                obs.add("serve.windows", shard=shard_id)
                obs.add(
                    "serve.window_lookups", len(window), shard=shard_id
                )
                obs.add(
                    "serve.window_matches", matches, shard=shard_id
                )
            obs.observe("serve.queue_wait", wait, shard=shard_id)
        self.admission.drain(shard_id, len(window))

        slot = (
            np.searchsorted(admitted_starts, window.indices, side="right")
            - 1
        )
        owners = admitted_ids[slot]
        offsets = window.indices - admitted_starts[slot]
        for request_id in np.unique(owners):
            mask = owners == request_id
            outcome = outcomes[int(request_id)]
            assert outcome.positions is not None
            outcome.positions[offsets[mask]] = result.positions[mask]
            remaining[int(request_id)] -= int(np.count_nonzero(mask))
            if remaining[int(request_id)] == 0:
                outcome.completion = self.clock.now
                if obs.enabled():
                    obs.observe("serve.latency", outcome.latency)
