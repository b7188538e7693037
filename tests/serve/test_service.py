"""End-to-end serving: oracle equality, determinism, backpressure,
fault degradation, and the ``serve.*`` observability contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.data.generator import WorkloadConfig, make_build_relation, make_probe_keys
from repro.errors import ConfigurationError
from repro.indexes import BinarySearchIndex, RadixSplineIndex
from repro.resilience import faults
from repro.resilience.faults import FaultPlan
from repro.serve import (
    ProbeRequest,
    ReplicatedShardExecutor,
    ShardedIndexService,
    range_shard,
)
from repro.units import KEY_BYTES


@pytest.fixture(autouse=True)
def clean_faults():
    faults.clear()
    yield
    faults.clear()


def build_workload(theta=0.0, r_tuples=2**12, probe_count=2**11, seed=3):
    config = WorkloadConfig(
        r_tuples=r_tuples,
        s_tuples=probe_count,
        match_rate=0.9,
        zipf_theta=theta,
        seed=seed,
    )
    relation = make_build_relation(config)
    probes = make_probe_keys(relation.column, config)
    return relation, probes


def build_service(
    relation,
    num_shards=4,
    window_tuples=64,
    index_cls=BinarySearchIndex,
    max_backlog_tuples=10_000,
    replicas=1,
):
    plan = range_shard(relation, num_shards, [index_cls] * replicas)
    executor = ReplicatedShardExecutor(plan)
    return ShardedIndexService(
        executor,
        window_bytes=window_tuples * KEY_BYTES,
        max_backlog_tuples=max_backlog_tuples,
    )


def as_requests(probes, request_tuples=128, interval=1e-3):
    count = len(probes.keys) // request_tuples
    return [
        ProbeRequest(
            request_id=i,
            keys=probes.keys[i * request_tuples : (i + 1) * request_tuples],
            arrival=i * interval,
        )
        for i in range(count)
    ]


class TestShardedIndexService:
    @pytest.mark.parametrize("theta", [0.0, 1.0])
    @pytest.mark.parametrize("index_cls", [BinarySearchIndex, RadixSplineIndex])
    def test_served_positions_match_generator_truth(
        self, theta, index_cls, monkeypatch
    ):
        relation, probes = build_workload(theta=theta)
        service = build_service(relation, index_cls=index_cls)
        windows = []
        complete = service._complete

        def spy(result, *args):
            windows.append((result.window.shard_id, result.window.indices))
            return complete(result, *args)

        monkeypatch.setattr(service, "_complete", spy)
        requests = as_requests(probes)
        report = service.run(requests)
        assert report.rejected_requests == 0
        for request, outcome in zip(requests, report.outcomes):
            truth = probes.expected_positions[
                request.request_id * 128 : (request.request_id + 1) * 128
            ]
            np.testing.assert_array_equal(outcome.positions, truth)
            assert outcome.latency is not None and outcome.latency > 0
        # 128-key requests over 4 shards and 64-tuple windows: windows
        # span several requests, and a request splits across shards and
        # across windows -- every run of a window lands at its own
        # request's offsets.  Request i owns stream [128 i, 128 i + 128).
        owners = [(shard, set((indices // 128).tolist())) for shard, indices in windows]
        assert any(len(ids) > 1 for _, ids in owners)
        served_by = {}
        for number, (shard, ids) in enumerate(owners):
            for request_id in ids:
                served_by.setdefault(request_id, set()).add((shard, number))
        assert any(
            len({shard for shard, _ in where}) > 1 and len(where) > 2
            for where in served_by.values()
        )

    def test_report_is_deterministic(self):
        relation, probes = build_workload()
        first = build_service(relation).run(as_requests(probes))
        second = build_service(relation).run(as_requests(probes))
        assert first.makespan_seconds == second.makespan_seconds
        assert first.latencies == second.latencies
        for shard_id, stats in first.shard_stats.items():
            other = second.shard_stats[shard_id]
            assert stats.windows == other.windows
            assert stats.busy_seconds == other.busy_seconds
            assert stats.counters.as_dict() == other.counters.as_dict()

    def test_partial_windows_flush_at_end_of_stream(self):
        """Tuples short of a full window must still be served."""
        relation, probes = build_workload(probe_count=2**10)
        # 96-tuple requests against 64-tuple windows: every request
        # leaves a 32-tuple remainder that only a flush can serve.
        service = build_service(relation, window_tuples=64)
        report = service.run(as_requests(probes, request_tuples=96))
        assert all(o.completion is not None for o in report.outcomes)
        partial = sum(
            stats.windows - stats.full_windows
            for stats in report.shard_stats.values()
        )
        assert partial > 0

    def test_backpressure_rejects_whole_requests(self):
        relation, probes = build_workload()
        service = build_service(
            relation, window_tuples=64, max_backlog_tuples=256
        )
        # Simultaneous arrivals: the backlog bound must trip.
        requests = as_requests(probes, interval=0.0)
        report = service.run(requests)
        assert report.rejected_requests > 0
        assert (
            report.admitted_requests + report.rejected_requests
            == len(requests)
        )
        for outcome in report.outcomes:
            if not outcome.admitted:
                assert outcome.positions is None
                assert outcome.latency is None
            else:
                assert outcome.completion is not None

    def test_bursty_arrivals_queue_but_do_not_change_results(self):
        relation, probes = build_workload()
        spaced = build_service(relation).run(
            as_requests(probes, interval=1.0)
        )
        bursty = build_service(relation).run(
            as_requests(probes, interval=0.0)
        )
        assert bursty.admitted_requests == spaced.admitted_requests
        for a, b in zip(spaced.outcomes, bursty.outcomes):
            np.testing.assert_array_equal(a.positions, b.positions)
        # A burst piles windows up behind busy shards; spaced arrivals
        # find the shards idle (their latency is window-fill time, not
        # queueing -- a window only closes once later tuples fill it).
        def total_wait(report):
            return sum(
                stats.queue_wait_seconds
                for stats in report.shard_stats.values()
            )

        assert total_wait(bursty) > total_wait(spaced)
        assert spaced.makespan_seconds > bursty.makespan_seconds

    def test_transient_fault_is_retried_and_results_unchanged(self):
        relation, probes = build_workload()
        requests = as_requests(probes)
        for replicas in (1, 2):
            faults.clear()
            baseline = build_service(relation, replicas=replicas).run(
                requests
            )
            faults.install(
                FaultPlan(kind="raise", site="replica", at=1, count=2)
            )
            report = build_service(relation, replicas=replicas).run(requests)
            total_retries = sum(
                stats.retries for stats in report.shard_stats.values()
            )
            assert total_retries > 0, replicas
            assert sum(
                s.degraded_windows for s in report.shard_stats.values()
            ) == 0, replicas
            for a, b in zip(baseline.outcomes, report.outcomes):
                np.testing.assert_array_equal(a.positions, b.positions)
            # Backoff is simulated time: the faulted run takes longer.
            assert report.makespan_seconds > baseline.makespan_seconds

    def test_permanent_shard_failure_degrades_to_fallback(self):
        relation, probes = build_workload()
        requests = as_requests(probes)
        for replicas in (1, 2):
            faults.clear()
            baseline = build_service(relation, replicas=replicas).run(
                requests
            )
            # Labels are shard{n}r{k}: the match selects every copy of
            # shard 2, so no replica of it can ever answer.
            faults.install(
                FaultPlan(
                    kind="raise",
                    site="replica",
                    at=0,
                    count=10_000,
                    match="shard2",
                )
            )
            service = build_service(relation, replicas=replicas)
            report = service.run(requests)
            stats = report.shard_stats
            assert stats[2].windows > 0
            assert stats[2].degraded_windows == stats[2].windows, replicas
            assert all(
                stats[shard_id].degraded_windows == 0
                for shard_id in (0, 1, 3)
            ), replicas
            # A dead copy is rebuilt and rejoins (then dies again on
            # its probation trial): the failure is never terminal.
            rebuilt = [
                event["shard"]
                for event in service.executor.health.transitions()
                if event["kind"] == "rebuild_complete"
            ]
            assert rebuilt and set(rebuilt) == {2}, replicas
            # Degraded answers are identical: the fallback spans all of R.
            for a, b in zip(baseline.outcomes, report.outcomes):
                np.testing.assert_array_equal(a.positions, b.positions)

    def test_rejects_unsorted_arrivals(self):
        relation, probes = build_workload()
        requests = as_requests(probes)[:2][::-1]
        with pytest.raises(ConfigurationError):
            build_service(relation).run(requests)

    def test_serve_metrics_recorded_when_tracing(self):
        relation, probes = build_workload()
        service = build_service(relation, num_shards=2)
        obs.enable()
        obs.reset()
        try:
            report = service.run(as_requests(probes))
            windows = sum(
                obs.counter("serve.windows", shard=shard_id)
                for shard_id in (0, 1)
            )
            lookups = sum(
                obs.counter("serve.window_lookups", shard=shard_id)
                for shard_id in (0, 1)
            )
            assert windows == sum(
                stats.windows for stats in report.shard_stats.values()
            )
            assert lookups == report.total_lookups
            assert obs.counter("serve.requests.admitted") == (
                report.admitted_requests
            )
            # The aggregated replay counters land under the manifest's
            # perf-counter scheme (serve.<field>); their names are kept
            # disjoint from the labelled per-shard window counters.
            assert obs.counter("serve.lookups") == pytest.approx(
                report.total_counters().lookups
            )
            assert obs.counter("serve.memory_accesses") > 0
        finally:
            obs.reset()
            obs.disable()

    def test_untraced_run_records_nothing(self):
        relation, probes = build_workload()
        obs.reset()
        build_service(relation).run(as_requests(probes))
        assert obs.counter("serve.windows", shard=0) == 0.0
