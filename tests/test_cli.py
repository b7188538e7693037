"""Command-line interface (python -m repro)."""

import os

import pytest

from repro.__main__ import main


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
        assert "RadixSpline" in text and "FAST tree" in text

    def test_marks_extensions(self, capture):
        main(["info"])
        assert "[extension]" in capture.getvalue()


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
    """Bad serve-bench/chaos axis values exit 2 before any work starts."""

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
        ],
    )
    def test_exits_2_naming_the_field(self, argv, field_name, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work started despite a bad axis value")

        monkeypatch.setattr("repro.serve.bench.map_tasks", no_work)
        monkeypatch.setattr("repro.serve.bench._serve_workload", no_work)
        assert main(argv) == 2
        assert field_name in capsys.readouterr().err
