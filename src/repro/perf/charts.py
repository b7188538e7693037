"""Plain-text chart rendering for experiment results.

The benchmark harness prints figure-shaped tables; for quick visual
comparison against the paper's plots it also helps to *see* the curves.
:func:`ascii_chart` renders series as a multi-series scatter/line chart
on a character grid, with optional log axes (the paper's figures are
log-log), without any plotting dependency.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..errors import ConfigurationError
from .report import Series

#: Symbols assigned to series, in order.
_MARKERS = "ox+*#@%&"


def _transform(value: float, log: bool) -> float:
    if not log:
        return value
    if value <= 0:
        raise ConfigurationError("log axes need positive values")
    return math.log10(value)


def ascii_chart(
    series_list: Sequence[Series],
    width: int = 64,
    height: int = 16,
    log_x: bool = False,
    log_y: bool = False,
    title: str = "",
    y_label: str = "",
) -> str:
    """Render series on a character grid.

    Each series gets a marker (``o``, ``x``, ...); overlapping points show
    the later series' marker.  Axis extremes are annotated.  Useful for
    eyeballing the paper's log-log figures in a terminal.
    """
    if not series_list:
        raise ConfigurationError("need at least one series")
    if width < 8 or height < 4:
        raise ConfigurationError("chart must be at least 8x4 characters")
    points = [
        (series_index, x, y)
        for series_index, series in enumerate(series_list)
        for x, y in zip(series.x, series.y)
    ]
    if not points:
        raise ConfigurationError("no points to draw")
    xs = [_transform(x, log_x) for __, x, __ in points]
    ys = [_transform(y, log_y) for __, __, y in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = x_high - x_low or 1.0
    y_span = y_high - y_low or 1.0
    grid: List[List[str]] = [[" "] * width for __ in range(height)]
    for (series_index, x, y), tx, ty in zip(points, xs, ys):
        column = int((tx - x_low) / x_span * (width - 1))
        row = height - 1 - int((ty - y_low) / y_span * (height - 1))
        grid[row][column] = _MARKERS[series_index % len(_MARKERS)]
    lines = []
    if title:
        lines.append(title)
    raw_y_high = max(y for __, __, y in points)
    raw_y_low = min(y for __, __, y in points)
    top_label = f"{raw_y_high:.3g}"
    bottom_label = f"{raw_y_low:.3g}"
    label_width = max(len(top_label), len(bottom_label))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = top_label.rjust(label_width)
        elif row_index == height - 1:
            label = bottom_label.rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row)}")
    raw_x_low = min(x for __, x, __ in points)
    raw_x_high = max(x for __, x, __ in points)
    axis = f"{' ' * label_width} +{'-' * width}"
    lines.append(axis)
    x_annotation = (
        f"{' ' * label_width}  {raw_x_low:.3g}"
        f"{' ' * max(1, width - 16)}{raw_x_high:.3g}"
    )
    lines.append(x_annotation)
    legend = "  ".join(
        f"{_MARKERS[index % len(_MARKERS)]} {series.label}"
        for index, series in enumerate(series_list)
    )
    lines.append(f"{' ' * label_width}  {legend}")
    if y_label:
        lines.append(f"{' ' * label_width}  y: {y_label}"
                     f"{' (log)' if log_y else ''}")
    return "\n".join(lines)


def chart_experiment(
    result, log_x: bool = True, log_y: bool = True, **kwargs
) -> str:
    """Chart an :class:`~repro.experiments.common.ExperimentResult`.

    Series with no points (capacity-skipped) are dropped; log axes default
    on, matching the paper's figures.
    """
    populated = [series for series in result.series if len(series)]
    if not populated:
        raise ConfigurationError(f"{result.name} has no data to chart")
    safe_log_y = log_y and all(
        y > 0 for series in populated for y in series.y
    )
    safe_log_x = log_x and all(
        x > 0 for series in populated for x in series.x
    )
    return ascii_chart(
        populated,
        log_x=safe_log_x,
        log_y=safe_log_y,
        title=f"{result.name}: {result.title}",
        **kwargs,
    )
