"""The executor's memoized base windows: price and counters per replica.

``ReplicatedShardExecutor`` prices a (shard, replica, window width) once
and keeps the replayed counters it priced from beside the price.  A
served window copies those counters and adds its own delta stage, so the
charge must equal a fresh ``Shard.window_counters`` derivation, the memo
must never see a window's delta, and a completed compaction must drop
its replica's entries so the next window prices the recalibrated shard.
The delta stage priced at routing is also the served replica's
compaction rent, and it counts on both sides of the wait-or-degrade
decision.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.generator import WorkloadConfig, make_build_relation, make_probe_keys
from repro.indexes import BPlusTreeIndex
from repro.serve import (
    CompactionPolicy,
    ReplicatedShardExecutor,
    range_shard,
)
from repro.serve.batcher import Window
from repro.serve.executor import (
    KERNELS_PER_WINDOW,
    WindowDeferred,
    WindowResult,
)

WIDTH = 256

#: Never compacts: the delta only grows.
NEVER = CompactionPolicy(
    max_delta_tuples=2**30, max_read_amplification=1e9, cost_ratio=1e9
)


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig(
        r_tuples=2**12, s_tuples=2**11, match_rate=0.9, seed=3
    )
    relation = make_build_relation(config)
    return relation, make_probe_keys(relation.column, config)


def executor_for(relation, replicas, policy):
    return ReplicatedShardExecutor(
        range_shard(relation, 1, [BPlusTreeIndex] * replicas),
        compaction_policy=policy,
    )


def probe_window(probes, start):
    keys = probes.keys[start : start + WIDTH]
    return Window(
        shard_id=0,
        keys=keys,
        indices=np.arange(start, start + WIDTH),
        full=True,
    )


def update_window(keys, first_row):
    return Window(
        shard_id=0,
        keys=keys,
        indices=np.arange(len(keys)),
        full=True,
        kind="update",
        values=np.arange(first_row, first_row + len(keys), dtype=np.int64),
    )


def test_equal_windows_charge_the_base_plus_their_own_delta(workload):
    relation, probes = workload
    executor = executor_for(relation, replicas=1, policy=NEVER)
    shard = executor.plan.replicas[0][0]
    cost = executor._cost
    base_keys = relation.column.key_at(np.arange(relation.num_tuples))
    for step, count in enumerate((16, 200)):
        # A deeper delta each time: the two windows' delta stages differ.
        executor.execute(
            update_window(base_keys[:count] + np.uint64(1), 10**6 * (step + 1))
        )
        delta = shard.delta.read_counters(WIDTH)
        assert delta is not None
        result = executor.execute(probe_window(probes, WIDTH * step))
        assert isinstance(result, WindowResult) and result.replica == 0
        base = shard.window_counters(WIDTH)
        expected = shard.window_counters(WIDTH).add(delta)
        assert result.counters.as_dict() == expected.as_dict()
        # The charge, summed in the order the executor has always used.
        assert result.service_seconds == (
            cost.probe_stage_time(base)
            + KERNELS_PER_WINDOW * cost.constants.kernel_launch_seconds
            + sum([])
            + cost.probe_stage_time(delta)
        )
        # The memo holds the base window only; the delta never leaks in.
        price, memo_counters = executor._window_memo[(0, 0, WIDTH)]
        assert memo_counters is not result.counters
        assert memo_counters.as_dict() == base.as_dict()
        assert price == (
            cost.probe_stage_time(base)
            + KERNELS_PER_WINDOW * cost.constants.kernel_launch_seconds
        )


def test_completed_compaction_reprices_the_recalibrated_shard(workload):
    relation, probes = workload
    executor = executor_for(
        relation, replicas=2, policy=CompactionPolicy(max_delta_tuples=1)
    )
    shard = executor.plan.replicas[0][0]
    executor.execute(probe_window(probes, 0))
    stale = executor._window_memo[(0, 0, WIDTH)][1].as_dict()
    # Inserting a new key beside every member doubles the shard, which
    # moves its replayed per-window counters.
    base_keys = relation.column.key_at(np.arange(relation.num_tuples))
    executor.execute(update_window(base_keys + np.uint64(1), 10**6))
    (ready_at, key), = executor.take_scheduled()
    assert key == ("compact", 0, 0)
    assert executor.handle_recovery(key, ready_at)
    assert (0, 0, WIDTH) not in executor._window_memo
    assert (0, 1, WIDTH) in executor._window_memo
    # Replica 1 still carries the delta; route the next window to 0.
    executor.health.force_dead(0, 1, ready_at)
    result = executor.execute(probe_window(probes, WIDTH), now=ready_at)
    assert isinstance(result, WindowResult) and result.replica == 0
    fresh = shard.window_counters(WIDTH).as_dict()
    assert fresh != stale
    assert result.counters.as_dict() == fresh
    assert executor._window_memo[(0, 0, WIDTH)][1].as_dict() == fresh


def test_served_delta_stage_accrues_as_compaction_rent(workload):
    relation, probes = workload
    executor = executor_for(relation, replicas=1, policy=NEVER)
    shard = executor.plan.replicas[0][0]
    base_keys = relation.column.key_at(np.arange(relation.num_tuples))
    executor.execute(update_window(base_keys[:64] + np.uint64(1), 10**6))
    stage = executor._cost.probe_stage_time(shard.delta.read_counters(WIDTH))
    rent = 0.0
    for step in range(3):
        result = executor.execute(probe_window(probes, WIDTH * step))
        assert isinstance(result, WindowResult) and result.replica == 0
        rent += stage
        assert executor._delta_read_seconds[(0, 0)] == rent


def test_waiting_weighs_the_fallback_delta_stage(workload):
    """Only the fallback carries a delta (replicas compact, it never
    does): waiting must beat it once its delta stage counts, even where
    its base window alone would be cheaper than the wait."""
    relation, probes = workload
    executor = executor_for(relation, replicas=1, policy=NEVER)
    base_keys = relation.column.key_at(np.arange(relation.num_tuples))
    executor.plan.fallback.apply_updates(
        base_keys + np.uint64(1),
        np.arange(len(base_keys), dtype=np.int64) + 10**6,
    )
    executor.health.force_dead(0, 0, 0.0)
    executor._on_dead(0, 0, 0.0)
    ready_at, _ = executor.health.next_rebuild_ready(0)
    rebuilt = executor._window_cost(0, 0, WIDTH)
    degraded = executor._window_cost(0, -1, WIDTH)
    assert rebuilt.delta is None and degraded.delta_seconds > 0
    # Halfway between the fallback's base price and its full price.
    wait = (degraded.price + degraded.seconds) / 2 - rebuilt.seconds
    assert wait > 0
    outcome = executor.execute(probe_window(probes, 0), now=ready_at - wait)
    assert isinstance(outcome, WindowDeferred)
