"""MetricsRegistry: counters, gauges, histograms, snapshot/diff."""

from __future__ import annotations

import json
import math

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    bucket_label,
    metric_key,
)


class TestMetricKey:
    def test_plain_name(self):
        assert metric_key("replay.lookups") == "replay.lookups"
        assert metric_key("replay.lookups", {}) == "replay.lookups"

    def test_labels_sorted(self):
        key = metric_key("index.lookups", {"index": "B+tree", "a": 1})
        assert key == "index.lookups{a=1,index=B+tree}"

    def test_label_order_irrelevant(self):
        assert metric_key("x", {"b": 2, "a": 1}) == metric_key(
            "x", {"a": 1, "b": 2}
        )


class TestBucketLabel:
    def test_non_positive(self):
        assert bucket_label(0.0) == "<=0"
        assert bucket_label(-3.5) == "<=0"

    def test_power_of_two_boundaries_exact(self):
        # The boundary value belongs to its own bucket, never the next.
        assert bucket_label(1.0) == "<=2^0"
        assert bucket_label(2.0) == "<=2^1"
        assert bucket_label(2.5) == "<=2^2"
        assert bucket_label(1024.0) == "<=2^10"
        assert bucket_label(1025.0) == "<=2^11"

    def test_non_finite(self):
        assert bucket_label(math.inf) == "inf"
        assert bucket_label(math.nan) == "inf"


class TestHistogram:
    def test_summary_exact(self):
        histogram = Histogram()
        for value in (1.0, 3.0, 3.0, 1024.0):
            histogram.observe(value)
        summary = histogram.to_dict()
        assert summary["count"] == 4
        assert summary["sum"] == 1031.0
        assert summary["min"] == 1.0
        assert summary["max"] == 1024.0
        assert summary["buckets"] == {"<=2^0": 1, "<=2^10": 1, "<=2^2": 2}


class TestRegistry:
    def test_add_and_read(self):
        registry = MetricsRegistry()
        registry.add("hits", 2.0)
        registry.add("hits", 3.0)
        registry.add("hits", 1.0, labels={"index": "btree"})
        assert registry.counter("hits") == 5.0
        assert registry.counter("hits", {"index": "btree"}) == 1.0
        assert registry.counter("never") == 0.0

    def test_phase_attribution(self):
        registry = MetricsRegistry()
        registry.add("ops", 1.0, phase="fig5")
        registry.add("ops", 4.0, phase="fig7")
        registry.add("ops", 2.0)  # no phase: run total only
        assert registry.counter("ops") == 7.0
        assert registry.phase_counter("fig5", "ops") == 1.0
        assert registry.phase_counter("fig7", "ops") == 4.0
        assert registry.phases() == ("fig5", "fig7")

    def test_gauge_last_value_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("occupancy", 10)
        registry.set_gauge("occupancy", 3)
        assert registry.snapshot()["gauges"] == {"occupancy": 3.0}

    def test_snapshot_is_deterministic_across_insertion_order(self):
        forward, backward = MetricsRegistry(), MetricsRegistry()
        entries = [("a", 1.0), ("z", 2.0), ("m", 3.0)]
        for name, value in entries:
            forward.add(name, value, phase="p")
            forward.observe("h", value)
        for name, value in reversed(entries):
            backward.add(name, value, phase="p")
        for _, value in reversed(entries):
            backward.observe("h", value)
        assert json.dumps(forward.snapshot(), sort_keys=False) == json.dumps(
            backward.snapshot(), sort_keys=False
        )

    def test_clear(self):
        registry = MetricsRegistry()
        registry.add("x")
        registry.observe("h", 1.0)
        registry.set_gauge("g", 1.0)
        registry.clear()
        snapshot = registry.snapshot()
        assert snapshot == {
            "counters": {},
            "gauges": {},
            "histograms": {},
            "phases": {},
        }


class TestDiff:
    def make(self, ops=10.0, with_histogram=True):
        registry = MetricsRegistry()
        registry.add("replay.ops", ops, phase="fig5")
        registry.set_gauge("wall", 123.456)  # must never participate
        if with_histogram:
            registry.observe("batch", 100.0)
        return registry.snapshot()

    def test_identical_snapshots_clean(self):
        assert MetricsRegistry.diff(self.make(), self.make()) == []

    def test_counter_drift_detected(self):
        drifts = MetricsRegistry.diff(self.make(10.0), self.make(11.0))
        sections = {drift.section for drift in drifts}
        # The drift shows up both in the run total and in its phase.
        assert "counter" in sections
        assert "phase:fig5" in sections
        assert all("replay.ops" in drift.key for drift in drifts)

    def test_missing_key_drifts(self):
        base = self.make()
        current = self.make(with_histogram=False)
        drifts = MetricsRegistry.diff(base, current)
        assert any(drift.section == "histogram" for drift in drifts)

    def test_gauges_never_diff(self):
        base, current = self.make(), self.make()
        current["gauges"]["wall"] = 999.0
        assert MetricsRegistry.diff(base, current) == []

    def test_rel_tol_absorbs_libm_noise(self):
        base, current = self.make(), self.make()
        noisy = base["counters"]["replay.ops"] * (1 + 1e-12)
        current["counters"]["replay.ops"] = noisy
        current["phases"]["fig5"]["replay.ops"] = noisy
        assert MetricsRegistry.diff(base, current, rel_tol=1e-9) == []
        assert MetricsRegistry.diff(base, current, rel_tol=0.0) != []

    def test_drift_renders(self):
        drifts = MetricsRegistry.diff(self.make(10.0), self.make(11.0))
        text = drifts[0].to_text()
        assert "replay.ops" in text
        assert "baseline=" in text and "current=" in text
