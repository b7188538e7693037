"""``repro serve-bench``: payload shape, determinism, CLI wiring."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.resilience.chaos import ChaosEvent, ChaosSchedule
from repro.serve import bench
from repro.serve.bench import ServePoint, run_serve_bench, write_serve_bench
from repro.workloads.updates import make_update_stream

BENCH_KWARGS = dict(
    shards=(1, 2),
    window_kib=(4,),
    zipf_thetas=(0.0,),
    r_tuples=2**12,
    requests=8,
    request_tuples=128,
)


class TestServeBench:
    def test_payload_shape(self):
        payload = run_serve_bench(**BENCH_KWARGS)
        assert payload["benchmark"] == "repro-serve"
        assert len(payload["sweeps"]) == 2
        row = payload["sweeps"][-1]
        assert row["shards"] == 2
        assert set(row["per_shard"]) == {"0", "1"}
        shard = row["per_shard"]["0"]
        assert shard["serve.windows"] > 0
        assert shard["serve.lookups"] > 0
        assert shard["serve.replay"]["memory_accesses"] > 0
        assert row["admitted"] + row["rejected"] == row["requests"]
        assert row["throughput_lookups_per_second"] > 0
        assert row["latency_seconds"]["p99"] >= row["latency_seconds"]["p50"]
        assert row["failed_shards"] == []

    def test_payload_is_bit_identical_across_runs(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_serve_bench(run_serve_bench(**BENCH_KWARGS), str(first))
        write_serve_bench(run_serve_bench(**BENCH_KWARGS), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_payload(self):
        base = run_serve_bench(**BENCH_KWARGS)
        other = run_serve_bench(seed=43, **BENCH_KWARGS)
        assert base != other
        assert other["seed"] == 43

    def test_unknown_index_rejected(self):
        with pytest.raises(ConfigurationError):
            run_serve_bench(index="fractal-tree", **BENCH_KWARGS)

    @pytest.mark.parametrize(
        "axes,field_name",
        [
            (dict(zipf_thetas=(float("nan"),)), "zipf theta"),
            (dict(zipf_thetas=(0.0, float("inf"))), "zipf theta"),
            (dict(zipf_thetas=(-1.0,)), "zipf theta"),
            (dict(update_fractions=(float("nan"),)), "update fraction"),
            (dict(update_fractions=(0.0, 1.5)), "update fraction"),
            (dict(requests=0), "--requests"),
            (dict(request_tuples=0), "--request-tuples"),
            (dict(r_tuples=0), "--r-tuples"),
            (dict(shards=(0,)), "--shards"),
            (dict(shards=(1, -2)), "--shards"),
            (dict(window_kib=(0,)), "--window-kib"),
            (dict(window_kib=(4, -1)), "--window-kib"),
            (dict(replicas=0), "--replicas"),
        ],
    )
    def test_bad_axis_values_rejected_before_any_work(
        self, axes, field_name, monkeypatch
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("sweep started despite a bad axis value")

        monkeypatch.setattr("repro.serve.bench.map_tasks", no_work)
        with pytest.raises(ConfigurationError, match=field_name):
            run_serve_bench(**dict(BENCH_KWARGS, **axes))

    @pytest.mark.parametrize(
        "index", ["btree", "harmonia", "radix-spline"]
    )
    def test_all_indexes_serve_correctly(self, index):
        # run_serve_bench asserts every served request against the
        # workload generator's ground truth internally.
        payload = run_serve_bench(index=index, **BENCH_KWARGS)
        assert payload["index"] == index

    def test_cli_writes_json(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "BENCH_serve.json"
        status = main(
            [
                "serve-bench",
                "--shards", "2",
                "--window-kib", "4",
                "--zipf", "0.0",
                "--index", "binary-search",
                "--json", str(out),
            ]
        )
        assert status == 0
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "repro-serve"
        assert [row["shards"] for row in payload["sweeps"]] == [2]
        captured = capsys.readouterr()
        assert "lookups/s" in captured.out


#: A small mixed point of the serve sweep.
MIXED_POINT = ServePoint(
    shards=1,
    window_kib=4,
    zipf_theta=0.0,
    index_names=("binary-search",),
    r_tuples=2**12,
    requests=8,
    request_tuples=128,
    update_fraction=0.5,
    seed=42,
)


def test_update_streams_are_memoized_per_workload(monkeypatch):
    """Points with equal workload fields share one generated relation,
    probe stream and update stream; a different skew, seed, update
    fraction or request width gets its own stream, equal to a fresh
    ``make_update_stream``, and the (relation, probes) pair is shared
    while R's size, the probe count, the skew and the seed agree."""
    monkeypatch.setattr(bench, "_WORKLOAD_MEMO", {})
    relation, probes, (_, first) = bench._workload(MIXED_POINT)
    # Fields the workload does not derive from share every entry.
    served = replace(
        MIXED_POINT, shards=2, window_kib=16, index_names=("btree",) * 2
    )
    rel, prb, (_, stream) = bench._workload(served)
    assert rel is relation and prb is probes and stream is first
    rel, prb, mixed = bench._workload(replace(MIXED_POINT, update_fraction=0.0))
    assert rel is relation and prb is probes and mixed is None
    for fields, same_pair in (
        (dict(zipf_theta=1.0), False),
        (dict(seed=43), False),
        (dict(update_fraction=0.25), True),
        (dict(requests=16, request_tuples=64), True),
    ):
        point = replace(MIXED_POINT, **fields)
        rel, prb, (base_keys, stream) = bench._workload(point)
        assert stream is not first
        assert (rel is relation and prb is probes) == same_pair
        np.testing.assert_array_equal(
            base_keys, rel.column.key_at(np.arange(rel.num_tuples))
        )
        expected = make_update_stream(
            base_keys,
            prb.keys,
            point.requests,
            point.request_tuples,
            point.update_fraction,
            point.seed,
        )
        assert stream.kinds == expected.kinds
        for keys, want in zip(stream.keys, expected.keys):
            np.testing.assert_array_equal(keys, want)


class TestServePoint:
    """The one serve point: its label and its checks."""

    def sweep_points(self, monkeypatch, **axes):
        """The points ``run_serve_bench`` builds, none of them served."""
        points = []
        monkeypatch.setattr(
            "repro.serve.bench.map_tasks",
            lambda run, tasks, workers: points.extend(tasks) or [],
        )
        run_serve_bench(**dict(BENCH_KWARGS, **axes))
        return points

    def test_labels_keep_their_strings(self, monkeypatch):
        plain = self.sweep_points(monkeypatch)
        assert [point.label for point in plain] == [
            "serve:binary-search:1s:4k:z0.0",
            "serve:binary-search:2s:4k:z0.0",
        ]
        mixed = self.sweep_points(
            monkeypatch, index="btree", replicas=2, update_fractions=(0.5,)
        )
        assert mixed[0].label == "serve:btree:1s:4k:z0.0:r2:u0.5"

    def test_label_names_replica_zeros_index(self, monkeypatch):
        points = self.sweep_points(
            monkeypatch,
            index="binary-search",
            replicas=2,
            replica_indexes=["btree", "binary-search"],
        )
        assert points[0].label == "serve:btree:1s:4k:z0.0:r2"

    @pytest.mark.parametrize(
        "event",
        [
            ChaosEvent(kind="kill", shard=2, replica=0),
            ChaosEvent(kind="kill", shard=0, replica=2),
            ChaosEvent(kind="wedge", shard=5, duration=1.0),
        ],
    )
    def test_schedule_outside_the_point_rejected_before_any_work(
        self, event, tmp_path, monkeypatch
    ):
        schedule = ChaosSchedule(events=(event,))
        with pytest.raises(ConfigurationError, match="targets"):
            replace(
                MIXED_POINT,
                shards=2,
                index_names=("btree",) * 2,
                chaos=schedule,
            )

        def no_work(*args, **kwargs):
            raise AssertionError("sweep started despite a bad schedule")

        monkeypatch.setattr("repro.serve.bench.map_tasks", no_work)
        monkeypatch.setattr("repro.serve.bench._workload", no_work)
        path = str(tmp_path / "schedule.json")
        schedule.dump(path)
        with pytest.raises(ConfigurationError, match="targets"):
            run_serve_bench(replicas=2, chaos_schedule=path, **BENCH_KWARGS)


#: The default sweep's simulated peak (binary search, 12 points, seed
#: 42), as committed in BENCH_2.json.  Every serve number is simulated,
#: so the peak moves only when the serve cost model or workload does.
DEFAULT_PEAK_LOOKUPS_PER_SECOND = 175_372_430.111

#: The floor the default peak was gated at in CI before it was pinned.
DEFAULT_PEAK_FLOOR = 150_000_000


def test_default_sweep_peak_is_pinned():
    rows = run_serve_bench(workers=1)["sweeps"]
    assert len(rows) == 12
    assert sum(row["total_lookups"] for row in rows) == 393_216
    peak = max(row["throughput_lookups_per_second"] for row in rows)
    assert peak == pytest.approx(DEFAULT_PEAK_LOOKUPS_PER_SECOND, rel=1e-9)
    assert peak >= DEFAULT_PEAK_FLOOR


class TestReplicatedServeBench:
    """``--replicas`` / ``--chaos-schedule``: the payload's degraded block."""

    DEGRADED_KEYS = {
        "fallback_windows",
        "failovers",
        "recoveries",
        "deferred_windows",
        "health_transitions",
    }

    def test_degraded_block_zero_on_clean_single_copy_run(self):
        payload = run_serve_bench(**BENCH_KWARGS)
        assert payload["replicas"] == 1
        for row in payload["sweeps"]:
            block = row["degraded"]
            assert set(block) == self.DEGRADED_KEYS
            assert block["fallback_windows"] == 0
            assert block["failovers"] == 0
            assert block["health_transitions"] == []
            assert row["per_shard"]["0"]["serve.failovers"] == 0
            assert row["per_shard"]["0"]["serve.deferred_windows"] == 0

    def test_replicated_payload_deterministic(self):
        first = run_serve_bench(replicas=2, **BENCH_KWARGS)
        second = run_serve_bench(replicas=2, **BENCH_KWARGS)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert first["replicas"] == 2
        assert first["replica_indexes"] == [
            "binary-search",
            "binary-search",
        ]

    def test_divergent_replicas_serve_correctly(self):
        # The oracle check inside run_serve_bench asserts every served
        # request against ground truth, whichever replica answered.
        payload = run_serve_bench(
            replicas=2,
            replica_indexes=["binary-search", "btree"],
            **BENCH_KWARGS,
        )
        assert payload["replica_indexes"] == ["binary-search", "btree"]

    def test_replica_index_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            run_serve_bench(
                replicas=3, replica_indexes=["btree"], **BENCH_KWARGS
            )
        with pytest.raises(ConfigurationError):
            run_serve_bench(
                replicas=2,
                replica_indexes=["btree", "fractal-tree"],
                **BENCH_KWARGS,
            )
        with pytest.raises(ConfigurationError):
            run_serve_bench(replicas=0, **BENCH_KWARGS)

    def test_chaos_schedule_flows_into_degraded_block(self, tmp_path):
        schedule = tmp_path / "kill.json"
        ChaosSchedule(
            events=(ChaosEvent(kind="kill", at=0.0, shard=0, replica=0),)
        ).dump(str(schedule))
        payload = run_serve_bench(
            replicas=2, chaos_schedule=str(schedule), **BENCH_KWARGS
        )
        assert payload["chaos_schedule"] == str(schedule)
        blocks = [row["degraded"] for row in payload["sweeps"]]
        # Homogeneous replicas tie on price, so replica 0 leads the
        # route and the kill fires: at least one row records the
        # failover and its priced rebuild.
        assert any(block["failovers"] >= 1 for block in blocks)
        transitions = [
            event
            for block in blocks
            for event in block["health_transitions"]
        ]
        assert any(
            event["kind"] == "rebuild_scheduled" for event in transitions
        )
        # Chaos stretches time, never results: the same sweep re-run
        # under the same schedule stays bit-identical.
        again = run_serve_bench(
            replicas=2, chaos_schedule=str(schedule), **BENCH_KWARGS
        )
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )


class TestServeBenchWorkers:
    """The sweep's pooled path is bit-identical to the serial one."""

    def test_serial_and_pooled_payloads_bit_identical(self):
        serial = run_serve_bench(workers=1, **BENCH_KWARGS)
        pooled = run_serve_bench(workers=2, **BENCH_KWARGS)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_chaos_schedule_crosses_the_pool(self, tmp_path):
        """A point's schedule reaches pool workers by pickle: the pooled
        chaotic sweep equals the serial one."""
        path = str(tmp_path / "kill.json")
        ChaosSchedule(
            events=(ChaosEvent(kind="kill", at=0.0, shard=0, replica=0),)
        ).dump(path)
        kwargs = dict(BENCH_KWARGS, replicas=2, chaos_schedule=path)
        serial = run_serve_bench(workers=1, **kwargs)
        pooled = run_serve_bench(workers=2, **kwargs)
        assert any(row["degraded"]["failovers"] for row in serial["sweeps"])
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_payload_carries_no_worker_count(self):
        # Worker count is an execution detail; the payload stays
        # comparable (and CI-diffable) across machines.
        payload = run_serve_bench(workers=2, **BENCH_KWARGS)
        assert "workers" not in payload

    def test_auto_workers_accepted(self):
        payload = run_serve_bench(workers=0, **BENCH_KWARGS)
        assert len(payload["sweeps"]) == 2

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            run_serve_bench(workers=-2, **BENCH_KWARGS)
