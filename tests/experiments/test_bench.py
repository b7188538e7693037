"""``repro bench``: payload shape, JSON round trip, CLI wiring."""

from __future__ import annotations

import functools
import json

import pytest

from repro.__main__ import main
from repro.experiments import bench, cache
from repro.experiments.bench import (
    BENCH_NAIVE_SIM,
    BENCH_ORDERED_SIM,
    run_bench,
    write_bench,
)


@pytest.fixture(scope="module")
def payload():
    # One R size through the serial pool: the whole Fig. 3 + Fig. 5 path.
    return run_bench(r_sizes_gib=(1.0,), workers=1)


class TestBenchPayload:
    def test_top_level_keys(self, payload):
        assert list(payload) == [
            "benchmark",
            "r_sizes_gib",
            "probe_samples",
            "platform",
            "python",
            "fast",
        ]
        assert payload["benchmark"] == "repro-sweeps"
        assert payload["r_sizes_gib"] == [1.0]

    def test_probe_samples_are_the_bench_configs(self, payload):
        assert payload["probe_samples"] == {
            "naive": BENCH_NAIVE_SIM.probe_sample,
            "ordered": BENCH_ORDERED_SIM.probe_sample,
        }

    def test_fast_block_times_both_sweeps(self, payload):
        fast = payload["fast"]
        assert fast["cache"] is True
        assert fast["workers"] == 1
        assert fast["fig3_seconds"] > 0
        assert fast["fig5_seconds"] > 0
        assert fast["total_seconds"] > 0
        assert fast["total_seconds"] == pytest.approx(
            fast["fig3_seconds"] + fast["fig5_seconds"], abs=2e-3
        )

    def test_cache_stats_come_from_the_session(self, payload):
        stats = payload["fast"]["cache_stats"]
        assert set(stats) == set(cache.stats())
        assert stats["enabled"] is True
        assert stats["environments"] > 0

    def test_series_endpoints_sit_at_the_one_size(self, payload):
        fast = payload["fast"]
        for block in (
            "fig3_queries_per_second",
            "fig4_requests_per_lookup",
            "fig5_queries_per_second",
        ):
            assert fast[block], block
            for summary in fast[block].values():
                assert summary["x"] == [1.0, 1.0]

    def test_write_bench_round_trips_through_json(self, payload, tmp_path):
        target = tmp_path / "BENCH_1.json"
        write_bench(payload, str(target))
        assert json.loads(target.read_text()) == payload


def test_cli_writes_json(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        bench, "run_bench", functools.partial(run_bench, r_sizes_gib=(1.0,))
    )
    target = tmp_path / "BENCH_1.json"
    assert main(["bench", "--workers", "1", "--json", str(target)]) == 0
    written = json.loads(target.read_text())
    assert written["benchmark"] == "repro-sweeps"
    assert written["r_sizes_gib"] == [1.0]
    assert written["fast"]["workers"] == 1
    out = capsys.readouterr().out
    assert "fast sweep:" in out
    assert f"wrote {target}" in out
