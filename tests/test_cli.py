"""Command-line interface (python -m repro)."""

import os

import pytest

from repro.__main__ import main
from repro.indexes import ALL_INDEX_TYPES


class _Capture:
    """Adapter over pytest's capsys with the getvalue() interface."""

    def __init__(self, capsys):
        self._capsys = capsys
        self._seen = ""

    def getvalue(self):
        self._seen += self._capsys.readouterr().out
        return self._seen


@pytest.fixture
def capture(capsys):
    return _Capture(capsys)


class TestInfo:
    def test_lists_machines_and_indexes(self, capture):
        assert main(["info"]) == 0
        text = capture.getvalue()
        assert "v100" in text and "gh200" in text
        for index_cls in ALL_INDEX_TYPES:
            assert index_cls.name in text


class TestPlan:
    def test_selective_workload_picks_index_join(self, capture):
        assert main(["plan", "--r-gib", "48"]) == 0
        text = capture.getvalue()
        assert "chosen: windowed INLJ" in text
        assert "selectivity" in text

    def test_unselective_workload_picks_hash_join(self, capture):
        main(["plan", "--r-gib", "0.5"])
        assert "chosen: hash join" in capture.getvalue()

    def test_machine_selection(self, capture):
        main(["plan", "--r-gib", "8", "--machine", "gh200"])
        assert "GH200" in capture.getvalue()

    def test_require_updates(self, capture):
        main(["plan", "--r-gib", "48", "--require-updates"])
        text = capture.getvalue()
        assert "excluded" in text
        assert "RadixSpline" not in text.split("chosen:")[1].split("\n")[0]


class TestPlanBadInput:
    """Bad plan sizes and skews exit 2 naming the flag, never a traceback."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--r-gib", "nan"], "--r-gib"),
            (["--r-gib", "inf"], "--r-gib"),
            (["--r-gib", "1e300"], "--r-gib"),
            (["--r-gib", "-1"], "--r-gib"),
            (["--r-gib", "0"], "--r-gib"),
            (["--r-gib", "1e-9"], "--r-gib"),
            (["--r-gib", "1e6"], "--r-gib"),
            (["--zipf", "nan"], "--zipf"),
            (["--zipf", "-1"], "--zipf"),
            (["--zipf", "inf"], "--zipf"),
        ],
    )
    def test_exits_2_naming_the_flag(self, argv, flag, capsys):
        assert main(["plan", *argv]) == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "zero span" not in err


class TestExperiments:
    def test_table1_subset(self, capture):
        assert main(["experiments", "table1"]) == 0
        assert "NVLink" in capture.getvalue()


class TestDefault:
    def test_no_command_prints_help(self, capture):
        assert main([]) == 1
        assert "experiments" in capture.getvalue()


KILL_ONE = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "chaos", "kill-one.json"
)


class TestBadAxisValues:
    """Bad serve-bench/chaos axis values and fault specs exit 2 before
    any work starts."""

    @pytest.mark.parametrize(
        "argv,field_name",
        [
            (["serve-bench", "--workers", "1", "--zipf", "nan"], "--zipf"),
            (["serve-bench", "--workers", "1", "--zipf", "inf"], "--zipf"),
            (["serve-bench", "--workers", "1", "--zipf", "-1"], "--zipf"),
            (
                ["serve-bench", "--workers", "1", "--update-fraction", "nan"],
                "--update-fraction",
            ),
            (
                ["serve-bench", "--workers", "1", "--min-compactions", "-1"],
                "--min-compactions",
            ),
            (
                ["chaos", "--schedule", KILL_ONE, "--update-fraction", "nan"],
                "--update-fraction",
            ),
            (["chaos", "--schedule", KILL_ONE, "--requests", "0"], "--requests"),
            (["chaos", "--schedule", KILL_ONE, "--requests", "-2"], "--requests"),
            (
                ["chaos", "--schedule", KILL_ONE, "--request-tuples", "0"],
                "--request-tuples",
            ),
            (["chaos", "--schedule", KILL_ONE, "--r-tuples", "0"], "--r-tuples"),
            (["chaos", "--schedule", KILL_ONE, "--r-tuples", "-5"], "--r-tuples"),
            (["chaos", "--schedule", KILL_ONE, "--shards", "0"], "--shards"),
            (["chaos", "--schedule", KILL_ONE, "--shards", "-1"], "--shards"),
            (["chaos", "--schedule", KILL_ONE, "--replicas", "0"], "--replicas"),
            (
                ["chaos", "--schedule", KILL_ONE, "--window-kib", "0"],
                "--window-kib",
            ),
            (
                ["chaos", "--schedule", KILL_ONE, "--window-kib", "-4"],
                "--window-kib",
            ),
            (["serve-bench", "--workers", "1", "--shards", "0"], "--shards"),
            (
                ["serve-bench", "--workers", "1", "--shards", "2", "-1"],
                "--shards",
            ),
            (
                ["serve-bench", "--workers", "1", "--window-kib", "0"],
                "--window-kib",
            ),
            (
                ["serve-bench", "--workers", "1", "--window-kib", "4", "-16"],
                "--window-kib",
            ),
            (["serve-bench", "--workers", "1", "--replicas", "0"], "--replicas"),
        ],
    )
    def test_exits_2_naming_the_field(self, argv, field_name, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started despite a bad axis value")

        monkeypatch.setattr("repro.serve.bench.map_tasks", no_work)
        monkeypatch.setattr("repro.serve.bench._workload", no_work)
        assert main(argv) == 2
        assert field_name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value",
        [
            "garbage",
            "raise@batch:0",
            "raise@nowhere:0",
            "raise@replica:0",
            "raise@point:x",
            "raise@point:0,count=x",
            "hang@point:0,hang=nan",
        ],
    )
    @pytest.mark.parametrize(
        "argv", [["experiments", "table1", "--quick"], ["serve-bench"]]
    )
    def test_bad_faults_variable_exits_2(self, value, argv, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started despite a bad REPRO_FAULTS")

        monkeypatch.setenv("REPRO_FAULTS", value)
        monkeypatch.setattr("repro.experiments.runner.run_report", no_work)
        monkeypatch.setattr("repro.serve.bench.run_serve_bench", no_work)
        assert main(argv) == 2
        assert "REPRO_FAULTS" in capsys.readouterr().err
