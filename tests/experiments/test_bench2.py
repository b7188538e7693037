"""``repro bench2``: payload shape and baseline logic."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.experiments.bench2 import (
    TARGET_SPEEDUP,
    _baseline_block,
    _read_bench1_total,
    run_bench2,
    write_bench2,
)

#: Tiny-but-complete configuration: one sweep size, no serve phase
#: (covered by tests/serve), serial pool.
TINY = dict(r_sizes_gib=(1.0,), workers=1, baseline_path=None, serve=False)


@pytest.fixture(scope="module")
def payload():
    return run_bench2(**TINY)


class TestBench2Payload:
    def test_top_level_shape(self, payload):
        assert payload["benchmark"] == "repro-bench2"
        assert payload["workers"] == 1
        assert payload["serve"] is None
        assert payload["sweeps"]["total_seconds"] > 0

    def test_attribution_has_phase_wall_clocks(self, payload):
        phases = payload["attribution"]["phase_wall_seconds"]
        assert set(phases) == {"bench2_sweeps"}
        assert phases["bench2_sweeps"] >= 0

    def test_obs_state_restored(self, payload):
        # run_bench2 enables obs internally and its sweeps replay traces;
        # the caller's state and registry must come back untouched.
        assert obs.enabled() is False
        assert obs.counter("replay.batches") == 0.0

    def test_payload_is_json_serializable(self, payload, tmp_path):
        target = tmp_path / "BENCH_2.json"
        write_bench2(payload, str(target))
        assert json.loads(target.read_text())["benchmark"] == "repro-bench2"


class TestBaselineBlock:
    def test_missing_baseline_documented(self, payload):
        assert payload["baseline"]["speedup"] is None
        assert payload["baseline"]["met"] is False
        assert "no BENCH_1 baseline" in payload["baseline"]["note"]

    def test_read_bench1_total(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        path.write_text(json.dumps({"fast": {"total_seconds": 7.5}}))
        assert _read_bench1_total(str(path)) == 7.5
        assert _read_bench1_total(str(tmp_path / "missing.json")) is None
        assert _read_bench1_total(None) is None

    def test_single_core_ceiling_is_documented(self):
        block = _baseline_block(10.0, 9.0, cpu_count=1)
        assert block["met"] is False
        assert "single-core" in block["note"]
        assert "attribution.phase_wall_seconds" in block["note"]

    def test_multi_core_target_met(self):
        block = _baseline_block(10.0, 1.5, cpu_count=8)
        assert block["speedup"] == round(10.0 / 1.5, 3)
        assert block["met"] is (block["speedup"] >= TARGET_SPEEDUP)
        assert block["met"] is True
