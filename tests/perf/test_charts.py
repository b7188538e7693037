"""Terminal chart rendering."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentResult
from repro.perf.charts import ascii_chart, chart_experiment
from repro.perf.report import Series


def make_series(label, points):
    series = Series(label)
    for x, y in points:
        series.append(x, y)
    return series


class TestAsciiChart:
    def test_contains_markers_and_legend(self):
        a = make_series("alpha", [(1, 1), (10, 2)])
        b = make_series("beta", [(1, 3), (10, 1)])
        text = ascii_chart([a, b], width=20, height=6)
        assert "o alpha" in text and "x beta" in text
        assert "o" in text.split("\n")[0] or any(
            "o" in line for line in text.split("\n")
        )

    def test_axis_annotations(self):
        a = make_series("a", [(2, 5), (64, 50)])
        text = ascii_chart([a], width=20, height=6)
        assert "50" in text  # y max
        assert "2" in text and "64" in text  # x range

    def test_log_axes(self):
        a = make_series("a", [(1, 1), (10, 10), (100, 100)])
        text = ascii_chart([a], width=21, height=7, log_x=True, log_y=True)
        # On log-log a power law is a straight diagonal: the marker rows
        # step uniformly.
        rows = [
            i for i, line in enumerate(text.split("\n")) if "o" in line
        ]
        steps = [b - a for a, b in zip(rows, rows[1:])]
        assert len(set(steps)) == 1

    def test_log_rejects_non_positive(self):
        a = make_series("a", [(0, 1), (10, 10)])
        with pytest.raises(ConfigurationError):
            ascii_chart([a], log_x=True)

    def test_title(self):
        a = make_series("a", [(1, 1)])
        text = ascii_chart([a], title="fig0")
        assert text.startswith("fig0")

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ascii_chart([])
        with pytest.raises(ConfigurationError):
            ascii_chart([Series("empty")])

    def test_rejects_tiny_grid(self):
        a = make_series("a", [(1, 1)])
        with pytest.raises(ConfigurationError):
            ascii_chart([a], width=4, height=2)


class TestChartExperiment:
    def test_renders_result(self):
        result = ExperimentResult(name="figX", title="demo", x_label="R")
        result.series.append(make_series("a", [(1, 2), (4, 8)]))
        result.series.append(Series("skipped"))  # empty -> dropped
        text = chart_experiment(result)
        assert "figX" in text
        assert "skipped" not in text

    def test_falls_back_from_log_on_zero(self):
        result = ExperimentResult(name="figY", title="demo", x_label="R")
        result.series.append(make_series("a", [(1, 0.0), (4, 8)]))
        text = chart_experiment(result)  # must not raise
        assert "figY" in text

    def test_all_empty_rejected(self):
        result = ExperimentResult(name="figZ", title="demo", x_label="R")
        result.series.append(Series("nothing"))
        with pytest.raises(ConfigurationError):
            chart_experiment(result)
