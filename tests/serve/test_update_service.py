"""Mixed read/write serving end to end: kind-homogeneous windows,
host-authoritative updates, priced compaction events on the simulated
clock, oracle equality, chaos invariance, and the ``updates`` payload
block's bit-identity."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.data.column import KEY_DTYPE
from repro.data.generator import WorkloadConfig, make_build_relation, make_probe_keys
from repro.errors import ConfigurationError
from repro.indexes import BinarySearchIndex, BPlusTreeIndex
from repro.resilience import faults
from repro.resilience.chaos import (
    UNBOUNDED_BACKLOG,
    ChaosEvent,
    ChaosSchedule,
    check_invariance,
    check_replay,
    run_serve_under_chaos,
)
from repro.serve import (
    CompactionPolicy,
    ProbeRequest,
    ReplicatedShardExecutor,
    ShardBatcher,
    ShardedIndexService,
    range_shard,
)
from repro.serve.bench import ServePoint, run_serve_bench, run_serve_point
from repro.units import KEY_BYTES
from repro.workloads.updates import SortedArrayOracle, make_update_stream


@pytest.fixture(autouse=True)
def clean_faults():
    faults.clear()
    yield
    faults.clear()


def build_workload(r_tuples=2**12, probe_count=2**11, seed=3, theta=0.0):
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


def mixed_requests(relation, probes, num_requests, request_tuples,
                   update_fraction=0.5, seed=42, spacing=1e-6):
    base_keys = relation.column.key_at(
        np.arange(relation.num_tuples, dtype=np.int64)
    )
    stream = make_update_stream(
        base_keys,
        probes.keys,
        num_requests,
        request_tuples,
        update_fraction,
        seed,
    )
    requests = [
        ProbeRequest(
            request_id=i,
            keys=stream.keys[i],
            arrival=i * spacing,
            kind=stream.kinds[i],
            values=stream.values[i],
        )
        for i in range(num_requests)
    ]
    return base_keys, stream, requests


def replay_against_oracle(base_keys, requests, report):
    oracle = SortedArrayOracle(base_keys)
    for request, outcome in zip(requests, report.outcomes):
        if not outcome.admitted:
            continue
        if request.kind == "update":
            np.testing.assert_array_equal(
                outcome.positions, request.values
            )
            oracle.apply(request.keys, request.values)
        else:
            np.testing.assert_array_equal(
                outcome.positions, oracle.lookup(request.keys)
            )


class TestBatcherKindCuts:
    def test_kind_change_cuts_the_open_window(self):
        batcher = ShardBatcher(num_shards=1, window_bytes=8 * KEY_BYTES)
        batcher.push(
            0,
            np.asarray([1, 2], dtype=KEY_DTYPE),
            np.asarray([0, 1], dtype=np.int64),
        )
        windows = batcher.push(
            0,
            np.asarray([3], dtype=KEY_DTYPE),
            np.asarray([2], dtype=np.int64),
            kind="update",
        )
        assert len(windows) == 1
        assert windows[0].kind == "probe"
        assert not windows[0].full
        flushed = batcher.flush(0)
        assert len(flushed) == 1
        assert flushed[0].kind == "update"

    def test_same_kind_stream_never_cuts_early(self):
        batcher = ShardBatcher(num_shards=1, window_bytes=4 * KEY_BYTES)
        out = []
        for start in range(0, 8, 2):
            out.extend(
                batcher.push(
                    0,
                    np.asarray([start, start + 1], dtype=KEY_DTYPE),
                    np.arange(start, start + 2, dtype=np.int64),
                    kind="update",
                )
            )
        assert [window.full for window in out] == [True, True]
        assert all(window.kind == "update" for window in out)

    def test_rejects_unknown_kind(self):
        batcher = ShardBatcher(num_shards=1, window_bytes=4 * KEY_BYTES)
        with pytest.raises(ConfigurationError):
            batcher.push(
                0,
                np.asarray([1], dtype=KEY_DTYPE),
                np.asarray([0], dtype=np.int64),
                kind="delete",
            )


class TestProbeRequestValidation:
    def test_update_requires_matching_values(self):
        with pytest.raises(ConfigurationError):
            ProbeRequest(
                request_id=0,
                keys=np.asarray([1, 2], dtype=KEY_DTYPE),
                arrival=0.0,
                kind="update",
                values=np.asarray([7], dtype=np.int64),
            )
        with pytest.raises(ConfigurationError):
            ProbeRequest(
                request_id=0,
                keys=np.asarray([1], dtype=KEY_DTYPE),
                arrival=0.0,
                kind="update",
            )

    def test_probe_must_not_carry_values(self):
        with pytest.raises(ConfigurationError):
            ProbeRequest(
                request_id=0,
                keys=np.asarray([1], dtype=KEY_DTYPE),
                arrival=0.0,
                values=np.asarray([7], dtype=np.int64),
            )


class TestMixedServiceSingleCopy:
    """One replica per range (K = 1): the unreplicated deployment."""

    def test_mixed_stream_matches_oracle(self):
        relation, probes = build_workload()
        executor = ReplicatedShardExecutor(
            range_shard(relation, 2, BinarySearchIndex)
        )
        service = ShardedIndexService(
            executor, window_bytes=512, max_backlog_tuples=10_000
        )
        base_keys, stream, requests = mixed_requests(
            relation, probes, num_requests=16, request_tuples=64
        )
        report = service.run(requests)
        replay_against_oracle(base_keys, requests, report)
        assert executor.update_windows > 0
        assert executor.update_tuples == stream.update_tuples

    def test_probe_stats_exclude_update_traffic(self):
        relation, probes = build_workload()
        executor = ReplicatedShardExecutor(
            range_shard(relation, 1, BinarySearchIndex)
        )
        service = ShardedIndexService(
            executor, window_bytes=512, max_backlog_tuples=10_000
        )
        _, stream, requests = mixed_requests(
            relation, probes, num_requests=16, request_tuples=64
        )
        report = service.run(requests)
        stats = report.shard_stats[0]
        probe_tuples = sum(
            len(r.keys) for r in requests if r.kind == "probe"
        )
        assert stats.lookups == probe_tuples
        assert stats.update_tuples == stream.update_tuples
        assert report.total_lookups == probe_tuples


class TestMixedServiceReplicated:
    def run_mixed(self, replicas=2, policy=None, num_requests=24,
                  update_fraction=0.5, index_cls=BPlusTreeIndex):
        relation, probes = build_workload()
        plan = range_shard(relation, 2, [index_cls] * replicas)
        kwargs = {} if policy is None else {"compaction_policy": policy}
        executor = ReplicatedShardExecutor(plan, **kwargs)
        service = ShardedIndexService(
            executor, window_bytes=512, max_backlog_tuples=10_000
        )
        base_keys, stream, requests = mixed_requests(
            relation, probes, num_requests=num_requests,
            request_tuples=64, update_fraction=update_fraction,
        )
        report = service.run(requests)
        return base_keys, stream, requests, report, executor, plan

    def test_mixed_stream_matches_oracle_and_compacts(self):
        base_keys, stream, requests, report, executor, plan = (
            self.run_mixed()
        )
        replay_against_oracle(base_keys, requests, report)
        assert executor.update_tuples == stream.update_tuples
        assert len(executor.compactions) > 0
        assert executor.compactions_completed > 0
        assert executor.delta_peak > 0

    def test_single_replica_compacts_and_matches_oracle(self):
        """K = 1: the only copy merges its delta, and every answer
        around the merges stays exact."""
        base_keys, _, requests, report, executor, _ = self.run_mixed(
            replicas=1
        )
        replay_against_oracle(base_keys, requests, report)
        assert len(executor.compactions) > 0
        assert executor.compactions_completed == len(executor.compactions)

    def test_compaction_events_are_priced_and_attributed(self):
        _, _, _, _, executor, _ = self.run_mixed()
        for event in executor.compactions:
            assert event["seconds"] > 0
            assert event["strategy"] == "absorb"
            assert event["index"] == BPlusTreeIndex.name
            assert event["delta_tuples"] > 0
            assert event["scheduled_at"] >= 0.0

    def test_replicas_compact_rolling_but_converge(self):
        """Every replica of a shard eventually compacts to identical
        content (the merge is content-determined)."""
        _, _, _, _, executor, plan = self.run_mixed()
        assert executor.compactions_completed > 0
        for copies in plan.replicas:
            probe = np.asarray([copies[0].lower_key], dtype=KEY_DTYPE)
            answers = {int(shard.probe(probe.copy())[0]) for shard in copies}
            assert len(answers) == 1

    def test_size_cap_policy_forces_early_compaction(self):
        tight = CompactionPolicy(
            max_delta_tuples=16, max_read_amplification=1e9, cost_ratio=1e9
        )
        _, _, _, _, tight_exec, _ = self.run_mixed(policy=tight)
        loose = CompactionPolicy(
            max_delta_tuples=10**6,
            max_read_amplification=1e9,
            cost_ratio=1e9,
        )
        _, _, _, _, loose_exec, _ = self.run_mixed(policy=loose)
        assert len(tight_exec.compactions) > len(loose_exec.compactions)
        assert loose_exec.delta_peak > tight_exec.delta_peak

    def test_loose_policy_still_matches_oracle(self):
        loose = CompactionPolicy(
            max_delta_tuples=10**6,
            max_read_amplification=1e9,
            cost_ratio=1e9,
        )
        base_keys, _, requests, report, executor, _ = self.run_mixed(
            policy=loose
        )
        replay_against_oracle(base_keys, requests, report)
        assert len(executor.compactions) == 0

    def test_mixed_run_is_deterministic(self):
        first = self.run_mixed()
        second = self.run_mixed()
        assert first[4].compactions == second[4].compactions
        assert (
            first[3].makespan_seconds == second[3].makespan_seconds
        )

    def test_update_obs_metrics_recorded_when_tracing(self):
        obs.enable()
        obs.reset()
        try:
            self.run_mixed()
            snapshot = obs.snapshot()
        finally:
            obs.reset()
            obs.disable()
        recorded = set(snapshot["counters"]) | set(snapshot["histograms"])
        names = {entry.split("{", 1)[0] for entry in recorded}
        assert "serve.delta.applied" in names
        assert "serve.delta.depth" in names
        assert "serve.compaction.scheduled" in names
        assert "serve.compaction.seconds" in names
        assert "serve.compaction.completed" in names
        assert "serve.update_windows" in names
        assert "serve.update_tuples" in names


#: A mixed chaos-harness point: two B+tree replicas per shard, half the
#: requests updates, served with the unbounded backlog ``repro chaos``
#: uses.
MIXED_CHAOS_POINT = ServePoint(
    shards=2,
    window_kib=4,
    zipf_theta=0.0,
    index_names=("btree", "btree"),
    r_tuples=2**12,
    requests=16,
    request_tuples=256,
    update_fraction=0.5,
    seed=42,
    max_backlog_tuples=UNBOUNDED_BACKLOG,
)


class TestChaosUnderMixedTraffic:
    def test_kill_schedule_preserves_positions_and_oracle(self):
        point = replace(
            MIXED_CHAOS_POINT,
            request_tuples=128,
            chaos=ChaosSchedule(
                events=(
                    ChaosEvent(kind="kill", at=1e-05, shard=0, replica=0),
                )
            ),
        )
        ok, clean, chaotic = check_invariance(point)
        assert ok, "mixed-traffic positions diverge under the schedule"
        assert chaotic.update_tuples == clean.update_tuples > 0
        assert clean.compactions > 0
        replayed, _, _ = check_replay(point)
        assert replayed

    def test_summary_carries_update_and_compaction_tallies(self):
        result = run_serve_under_chaos(MIXED_CHAOS_POINT)
        summary = result.summary()
        assert summary["update_tuples"] == result.update_tuples > 0
        assert summary["compactions"] == result.compactions > 0
        assert (
            summary["compactions_completed"]
            == result.compactions_completed
        )


#: A small sweep point: 1 KiB windows over 2^12 tuples, 32 requests of
#: 64 keys.
SWEEP_POINT = ServePoint(
    shards=1,
    window_kib=1,
    zipf_theta=0.0,
    index_names=("binary-search",),
    r_tuples=2**12,
    requests=32,
    request_tuples=64,
    update_fraction=0.0,
    seed=42,
)


class TestBenchUpdatesPayload:
    def test_updates_block_zero_for_read_only_rows(self):
        row = run_serve_point(SWEEP_POINT)
        updates = row["updates"]
        assert updates["update_windows"] == 0
        assert updates["update_tuples"] == 0
        assert updates["compactions"] == []
        assert set(updates["delta_depth"]) == {"0:0"}

    def test_mixed_row_reports_compactions_and_depths(self):
        row = run_serve_point(
            replace(
                SWEEP_POINT,
                shards=2,
                index_names=("btree", "btree"),
                update_fraction=0.5,
            )
        )
        updates = row["updates"]
        assert updates["update_tuples"] > 0
        assert updates["compactions_by_strategy"].get("absorb", 0) > 0
        assert updates["compactions_completed"] > 0
        assert updates["read_amplification_peak"] > 0
        assert set(updates["delta_depth"]) == {"0:0", "0:1", "1:0", "1:1"}

    def test_payload_bit_identical_across_worker_counts(self):
        kwargs = dict(
            shards=(2,),
            window_kib=(4,),
            zipf_thetas=(0.0,),
            r_tuples=2**12,
            requests=8,
            request_tuples=128,
            index="btree",
            update_fractions=(0.0, 0.5),
        )
        serial = run_serve_bench(workers=1, **kwargs)
        pooled = run_serve_bench(workers=2, **kwargs)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_update_fraction_axis_is_validated(self):
        with pytest.raises(ConfigurationError):
            run_serve_bench(
                shards=(1,),
                window_kib=(4,),
                zipf_thetas=(0.0,),
                r_tuples=2**10,
                requests=2,
                request_tuples=32,
                update_fractions=(1.5,),
            )
