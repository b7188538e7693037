"""Rebuild pricing and the failover-vs-wait decision."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.indexes import (
    BinarySearchIndex,
    BPlusTreeIndex,
    HarmoniaIndex,
    RadixSplineIndex,
)
from repro.resilience import faults
from repro.resilience.faults import FaultPlan
from repro.serve.batcher import Window
from repro.serve.executor import (
    MAX_WINDOW_DEFERRALS,
    ReplicatedShardExecutor,
    WindowDeferred,
    WindowResult,
    retry_backoff,
)
from repro.serve.recovery import price_rebuild
from repro.serve.service import ProbeRequest, ShardedIndexService
from repro.serve.shard import range_shard
from repro.units import KEY_BYTES


def shard_for(relation, index_cls):
    return range_shard(relation, 1, index_cls).shards[0]


class TestPriceRebuild:
    @pytest.mark.parametrize(
        "index_cls, kind",
        [
            (BinarySearchIndex, "slice_copy"),
            (BPlusTreeIndex, "bulk_load"),
            (HarmoniaIndex, "bulk_load"),
            (RadixSplineIndex, "retrain"),
        ],
    )
    def test_kind_per_index_type(self, small_relation, index_cls, kind):
        cost = price_rebuild(shard_for(small_relation, index_cls))
        assert cost.kind == kind
        assert cost.seconds > 0

    def test_unknown_index_prices_as_hash_rebuild(self):
        # price_rebuild only touches num_tuples and the index's
        # name/footprint, so a stub exercises the default path.
        stub = SimpleNamespace(
            num_tuples=2**12,
            index=SimpleNamespace(name="cuckoo", footprint_bytes=2**16),
        )
        cost = price_rebuild(stub)
        assert cost.kind == "hash_rebuild"
        assert "scatter" in cost.breakdown

    def test_breakdown_sums_to_total(self, small_relation):
        cost = price_rebuild(shard_for(small_relation, BPlusTreeIndex))
        assert sum(cost.breakdown.values()) == pytest.approx(
            cost.seconds, rel=0, abs=0
        )
        assert "launches" in cost.breakdown

    def test_prices_are_distinct_and_ordered(self, small_relation):
        prices = {
            cls.__name__: price_rebuild(shard_for(small_relation, cls))
            for cls in (
                BinarySearchIndex,
                BPlusTreeIndex,
                RadixSplineIndex,
            )
        }
        seconds = {
            name: cost.seconds for name, cost in prices.items()
        }
        assert len(set(seconds.values())) == 3
        # A slice copy is one scan; bulk load and retrain add structure
        # writes and compute passes on top, so the ordering is fixed.
        assert (
            seconds["BinarySearchIndex"]
            < seconds["BPlusTreeIndex"]
        )
        assert (
            seconds["BinarySearchIndex"]
            < seconds["RadixSplineIndex"]
        )

    def test_pure_and_deterministic(self, small_relation):
        shard = shard_for(small_relation, RadixSplineIndex)
        first = price_rebuild(shard)
        second = price_rebuild(shard)
        assert first == second

    def test_describe_carries_kind_and_seconds(self, small_relation):
        cost = price_rebuild(shard_for(small_relation, BinarySearchIndex))
        assert cost.describe().startswith("slice_copy:")
        assert cost.describe().endswith("s")


class TestFailoverVersusWait:
    """The router defers only when waiting is priced cheaper."""

    @pytest.fixture
    def dead_shard_setup(self, small_relation, small_probes):
        plan = range_shard(small_relation, 2, BinarySearchIndex)
        executor = ReplicatedShardExecutor(plan)
        keys = small_probes.keys[:256]
        shard_id, shard_keys, indices = plan.split(
            keys, np.arange(len(keys))
        )[0]
        window = Window(
            shard_id=shard_id, keys=shard_keys, indices=indices, full=True
        )
        executor.health.force_dead(shard_id, 0, 0.0)
        executor._on_dead(shard_id, 0, 0.0)
        return executor, window, shard_id

    def test_waiting_near_ready_defers(self, dead_shard_setup):
        executor, window, shard_id = dead_shard_setup
        ready_at, _ = executor.health.next_rebuild_ready(shard_id)
        # Just shy of the rebuild completing: the residual wait plus the
        # rebuilt replica's price undercuts the whole-R fallback probe.
        outcome = executor.execute(window, now=ready_at - 1e-9)
        assert isinstance(outcome, WindowDeferred)
        assert outcome.ready_at == ready_at
        assert window.deferrals == 1
        assert executor.deferrals == 1
        assert executor.health.count("deferred") == 1

    def test_waiting_from_scratch_degrades(self, dead_shard_setup):
        # At t=0 the full rebuild still lies ahead; wait + rebuilt price
        # exceeds the fallback, so the window degrades immediately.
        executor, window, _ = dead_shard_setup
        outcome = executor.execute(window, now=0.0)
        assert isinstance(outcome, WindowResult)
        assert outcome.degraded
        assert window.deferrals == 0
        assert executor.fallback_windows == 1

    def test_deferral_cap_forces_fallback(self, dead_shard_setup):
        executor, window, shard_id = dead_shard_setup
        ready_at, _ = executor.health.next_rebuild_ready(shard_id)
        window.deferrals = MAX_WINDOW_DEFERRALS
        outcome = executor.execute(window, now=ready_at - 1e-9)
        assert isinstance(outcome, WindowResult)
        assert outcome.degraded

    def test_no_pending_rebuild_degrades(
        self, small_relation, small_probes
    ):
        plan = range_shard(small_relation, 2, BinarySearchIndex)
        executor = ReplicatedShardExecutor(plan)
        keys = small_probes.keys[:256]
        shard_id, shard_keys, indices = plan.split(
            keys, np.arange(len(keys))
        )[0]
        window = Window(
            shard_id=shard_id, keys=shard_keys, indices=indices, full=True
        )
        # Dead without a scheduled rebuild: nothing to wait for.
        executor.health.force_dead(shard_id, 0, 0.0)
        outcome = executor.execute(window, now=0.0)
        assert isinstance(outcome, WindowResult)
        assert outcome.degraded

    def test_fallback_answers_match_the_replica(self, dead_shard_setup):
        executor, window, shard_id = dead_shard_setup
        degraded = executor.execute(window, now=0.0)
        truth = executor.plan.replicas[shard_id][0].probe(window.keys)
        assert np.array_equal(degraded.positions, truth)

    def test_rebuild_completion_restores_routing(self, dead_shard_setup):
        executor, window, shard_id = dead_shard_setup
        scheduled = executor.take_scheduled()
        assert len(scheduled) == 1
        ready_at, key = scheduled[0]
        assert key == (shard_id, 0)
        assert executor.handle_recovery(key, ready_at)
        assert executor.recoveries == 1
        # Probation replica leads the route; a served window heals it.
        assert [
            replica for replica, _ in executor.route(shard_id, len(window))
        ] == [0]
        result = executor.execute(window, now=ready_at)
        assert isinstance(result, WindowResult)
        assert not result.degraded
        assert result.replica == 0
        assert executor.health.state(shard_id, 0) == "healthy"


class TestRetrySchedule:
    """The serve executor's fixed retry schedule, in simulated seconds."""

    #: (shard, replica, retry) -> backoff, as the schedule has priced
    #: it since serving first retried: min(0.05 * 2**(k-1), 2) scaled
    #: by a jitter factor in [0.5, 1).
    PINNED = {
        (0, 0, 1): 0.029563110481471356,
        (0, 0, 2): 0.09022494390916809,
        (1, 0, 1): 0.047374276990844115,
        (1, 1, 2): 0.09039174438457634,
        (3, 1, 1): 0.044956541251366146,
        (2, 0, 7): 1.7950393450859088,
    }

    def test_backoff_is_pinned(self):
        for key, seconds in self.PINNED.items():
            assert retry_backoff(*key) == seconds, key

    @pytest.mark.parametrize("retry", [1, 2, 3, 6, 7, 40])
    def test_backoff_stays_in_its_jitter_band(self, retry):
        delay = min(0.05 * 2.0 ** (retry - 1), 2.0)
        for shard_id in range(4):
            seconds = retry_backoff(shard_id, 1, retry)
            assert 0.5 * delay <= seconds < delay

    def test_configuration_errors_are_not_retried(
        self, small_relation, small_probes, monkeypatch
    ):
        executor = ReplicatedShardExecutor(
            range_shard(small_relation, 1, BinarySearchIndex)
        )
        calls = []

        def broken(keys):
            calls.append(len(keys))
            raise ConfigurationError("unservable window")

        monkeypatch.setattr(executor.plan.replicas[0][0], "probe", broken)
        keys = small_probes.keys[:64]
        window = Window(
            shard_id=0, keys=keys, indices=np.arange(len(keys)), full=True
        )
        with pytest.raises(ConfigurationError):
            executor.execute(window)
        assert calls == [64]


class TestDeathMidRetry:
    """The failure threshold (2) can trip inside one window's retry
    budget (3 attempts); a later attempt then answers, but the replica
    is dead and must still be rebuilt."""

    @pytest.fixture(autouse=True)
    def clean_faults(self):
        faults.clear()
        yield
        faults.clear()

    def two_transient_faults(self, shard_id=0):
        faults.install(
            FaultPlan(
                kind="raise",
                site="replica",
                at=0,
                count=2,
                match=f"shard{shard_id}r0",
            )
        )

    def two_replica_executor(self, relation):
        return ReplicatedShardExecutor(
            range_shard(relation, 2, [BinarySearchIndex] * 2)
        )

    def test_death_schedules_exactly_one_rebuild(
        self, small_relation, small_probes
    ):
        executor = self.two_replica_executor(small_relation)
        keys = small_probes.keys[:256]
        shard_id, shard_keys, indices = executor.plan.split(
            keys, np.arange(len(keys))
        )[0]
        window = Window(
            shard_id=shard_id, keys=shard_keys, indices=indices, full=True
        )
        clean = self.two_replica_executor(small_relation).execute(window)
        self.two_transient_faults(shard_id)
        result = executor.execute(window, now=0.0)
        # The third attempt answered from the (already dead) replica.
        assert isinstance(result, WindowResult)
        assert (result.replica, result.retries) == (0, 2)
        # Both retries' backoff is charged in simulated time.
        assert result.service_seconds == clean.service_seconds + (
            retry_backoff(shard_id, 0, 1) + retry_backoff(shard_id, 0, 2)
        )
        assert not result.degraded and result.failovers == 0
        assert executor.health.is_dead(shard_id, 0)
        assert [key for _, key in executor.take_scheduled()] == [
            (shard_id, 0)
        ]
        assert [
            event["kind"] for event in executor.health.transitions()
        ] == ["failure", "failure", "dead", "rebuild_scheduled"]

    def test_two_transient_faults_at_two_replicas_recover(
        self, small_relation, small_probes
    ):
        executor = self.two_replica_executor(small_relation)
        service = ShardedIndexService(
            executor,
            window_bytes=64 * KEY_BYTES,
            max_backlog_tuples=10_000,
        )
        requests = [
            ProbeRequest(
                request_id=i,
                keys=small_probes.keys[i * 64 : (i + 1) * 64],
                arrival=i * 1e-5,
            )
            for i in range(len(small_probes.keys) // 64)
        ]
        self.two_transient_faults(0)
        report = service.run(requests)
        own = [
            event["kind"]
            for event in executor.health.transitions()
            if (event["shard"], event["replica"]) == (0, 0)
        ]
        assert own == [
            "failure",
            "failure",
            "dead",
            "rebuild_scheduled",
            "rebuild_complete",
            "recovered",
        ]
        assert executor.health.state(0, 0) == "healthy"
        assert executor.recoveries == 1
        assert executor.fallback_windows == 0
        for request, outcome in zip(requests, report.outcomes):
            truth = small_probes.expected_positions[
                request.request_id * 64 : (request.request_id + 1) * 64
            ]
            np.testing.assert_array_equal(outcome.positions, truth)
