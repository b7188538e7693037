"""``repro serve-bench``: payload shape, determinism, CLI wiring."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.serve.bench import run_serve_bench, write_serve_bench

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
        from repro.resilience.chaos import ChaosEvent, ChaosSchedule

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
