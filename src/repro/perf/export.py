"""Export experiment results to CSV and JSON.

Downstream users replotting the figures (or diffing runs across model
changes) need machine-readable output; the runner's ``--output-dir``
writes one CSV and one JSON document per experiment through this module.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import List

from ..errors import ConfigurationError
from ..ioutil import atomic_write_text


def result_to_rows(result) -> List[dict]:
    """Flatten an ExperimentResult into one dict per (series, point)."""
    rows = []
    for series in result.series:
        for x_value, y_value in zip(series.x, series.y):
            rows.append(
                {
                    "experiment": result.name,
                    "series": series.label,
                    "x": x_value,
                    "y": y_value,
                }
            )
    return rows


def result_to_csv(result) -> str:
    """Render an ExperimentResult as CSV text."""
    rows = result_to_rows(result)
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=["experiment", "series", "x", "y"]
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def result_to_json(result) -> str:
    """Render an ExperimentResult (data + metadata) as JSON text."""
    document = {
        "name": result.name,
        "title": result.title,
        "x_label": result.x_label,
        "paper_expectation": result.paper_expectation,
        "notes": list(result.notes),
        "series": [
            {"label": series.label, "x": list(series.x), "y": list(series.y)}
            for series in result.series
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def write_result(result, output_dir) -> List[Path]:
    """Write ``<name>.csv`` and ``<name>.json`` under ``output_dir``."""
    directory = Path(output_dir)
    if directory.exists() and not directory.is_dir():
        raise ConfigurationError(f"{directory} exists and is not a directory")
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / f"{result.name}.csv"
    json_path = directory / f"{result.name}.json"
    atomic_write_text(str(csv_path), result_to_csv(result))
    atomic_write_text(str(json_path), result_to_json(result))
    return [csv_path, json_path]

