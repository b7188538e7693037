"""CSV/JSON export of experiment results."""

import csv
import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentResult
from repro.perf.export import (
    result_to_csv,
    result_to_json,
    result_to_rows,
    write_result,
)
from repro.perf.report import Series


@pytest.fixture
def result():
    result = ExperimentResult(
        name="fig0",
        title="demo",
        x_label="R (GiB)",
        paper_expectation="something",
    )
    a = Series("alpha")
    a.append(1.0, 2.0)
    a.append(4.0, 8.0)
    b = Series("beta")
    b.append(1.0, 3.0)
    result.series = [a, b]
    result.notes.append("a note")
    return result


class TestRows:
    def test_one_row_per_point(self, result):
        rows = result_to_rows(result)
        assert len(rows) == 3
        assert rows[0] == {
            "experiment": "fig0", "series": "alpha", "x": 1.0, "y": 2.0
        }


class TestCsv:
    def test_round_trips_through_csv_reader(self, result):
        text = result_to_csv(result)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 3
        assert parsed[2]["series"] == "beta"
        assert float(parsed[1]["y"]) == 8.0


class TestJson:
    def test_document_structure(self, result):
        document = result_to_json(result)
        import json

        data = json.loads(document)
        assert data["name"] == "fig0"
        assert data["paper_expectation"] == "something"
        assert data["notes"] == ["a note"]
        assert data["series"][0]["x"] == [1.0, 4.0]


class TestWrite:
    def test_writes_both_files(self, result, tmp_path):
        paths = write_result(result, tmp_path)
        assert {p.suffix for p in paths} == {".csv", ".json"}
        assert all(p.exists() for p in paths)

    def test_load_back(self, result, tmp_path):
        write_result(result, tmp_path)
        data = json.loads((tmp_path / "fig0.json").read_text())
        assert data["title"] == "demo"

    def test_creates_directory(self, result, tmp_path):
        target = tmp_path / "nested" / "dir"
        write_result(result, target)
        assert (target / "fig0.csv").exists()

    def test_rejects_file_target(self, result, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        with pytest.raises(ConfigurationError):
            write_result(result, blocker)
