"""Tracer: spans, phases, aggregates, overflow bounding."""

from __future__ import annotations


from repro import obs
from repro.obs.tracing import NULL_SPAN, NullSpan, Tracer


class TestDisabledPath:
    def test_span_returns_shared_null_span(self):
        assert obs.span("anything", attr=1) is NULL_SPAN
        assert obs.span("other") is NULL_SPAN

    def test_null_span_is_reusable_and_silent(self):
        with NULL_SPAN as span:
            span.set("key", "value")  # dropped, no error
        with NULL_SPAN:
            pass
        assert isinstance(NULL_SPAN, NullSpan)
        assert obs.tracer().finished_spans() == ()

    def test_recording_calls_are_noops(self):
        obs.add("counter", 5.0)
        obs.gauge("gauge", 1.0)
        obs.observe("histogram", 2.0)
        snapshot = obs.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"] == {}

    def test_phase_wall_time_measured_even_while_disabled(self):
        # The runner's exit summary needs phase timings unconditionally.
        with obs.phase("fig5"):
            pass
        assert obs.tracer().phase_wall_seconds("fig5") is not None
        assert obs.phase_wall_seconds()["fig5"] >= 0.0


class TestSpans:
    def test_span_records_with_phase_and_attrs(self, traced):
        with obs.phase("fig5"):
            with obs.span("replay.simulate", lookups=64) as span:
                span.set("steps", 3)
        (record,) = obs.tracer().finished_spans()
        assert record["name"] == "replay.simulate"
        assert record["phase"] == "fig5"
        assert record["depth"] == 0
        assert record["wall_seconds"] >= 0.0
        assert record["attrs"] == {"lookups": 64, "steps": 3}

    def test_nesting_depth_and_seq(self, traced):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = obs.tracer().finished_spans()
        assert (inner["name"], inner["depth"]) == ("inner", 1)
        assert (outer["name"], outer["depth"]) == ("outer", 0)
        assert inner["seq"] < outer["seq"]  # completion order

    def test_counter_attribution_follows_current_phase(self, traced):
        with obs.phase("fig5"):
            obs.add("ops", 2.0)
        obs.add("ops", 1.0)
        assert obs.counter("ops") == 3.0
        assert obs.registry().phase_counter("fig5", "ops") == 2.0


class TestPhaseTable:
    def test_first_entered_order_and_reentry(self, traced):
        with obs.phase("b"):
            pass
        with obs.phase("a"):
            pass
        with obs.phase("b"):
            pass
        tracer = obs.tracer()
        assert tracer.phase_order() == ("b", "a")
        table = tracer.phase_table()
        assert list(table) == ["b", "a"]
        assert table["b"]["entered"] == 2
        assert table["a"]["entered"] == 1


class TestAggregateAndExport:
    def fill(self):
        with obs.phase("fig5"):
            with obs.span("replay.simulate"):
                pass
            with obs.span("replay.simulate"):
                pass
        with obs.phase("fig7"):
            with obs.span("partition.fanout"):
                pass

    def test_span_aggregate(self, traced):
        self.fill()
        aggregate = obs.tracer().span_aggregate()
        assert list(aggregate) == ["partition.fanout", "replay.simulate"]
        assert aggregate["replay.simulate"]["count"] == 2

    def test_span_aggregate_phase_filter(self, traced):
        self.fill()
        only_fig7 = obs.tracer().span_aggregate(phase="fig7")
        assert list(only_fig7) == ["partition.fanout"]


class TestOverflow:
    def test_dropped_spans_counted_not_stored(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.finished_spans()) == 2
        assert tracer.dropped_spans == 3

    def test_clear_resets_everything(self, traced):
        with obs.phase("p"):
            with obs.span("s"):
                pass
        obs.reset()
        tracer = obs.tracer()
        assert tracer.finished_spans() == ()
        assert tracer.phase_order() == ()
        assert tracer.phase_wall_seconds("p") is None
