"""Failure isolation in the experiment runner and the CLI exit codes."""

import io

import pytest

from repro.__main__ import main as cli_main
from repro.experiments.runner import run_report
from repro.resilience import faults
from repro.resilience.faults import FaultPlan


class TestRunReportIsolation:
    def test_failing_experiment_does_not_stop_the_run(self):
        faults.install(
            FaultPlan(kind="raise", site="experiment", at=0, match="fig7")
        )
        stream = io.StringIO()
        report = run_report(["table1", "fig7"], quick=True, stream=stream)

        # The healthy experiment still ran and emitted its output.
        assert "table1" in report.results
        assert "NVLink" in stream.getvalue()
        # The failure is structured: name, type, traceback, elapsed.
        assert "fig7" not in report.results
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.name == "fig7"
        assert failure.stage == "experiment"
        assert failure.error_type == "InjectedFault"
        assert "InjectedFault" in failure.traceback_text
        assert failure.elapsed_seconds >= 0
        assert failure.fatal
        # The run reports the failure and a nonzero exit code.
        assert not report.ok()
        assert report.exit_code() == 1
        assert "FAILURE SUMMARY" in stream.getvalue()
        assert "fig7" in report.summary_text()

    def test_clean_run_reports_success(self):
        stream = io.StringIO()
        report = run_report(["table1"], quick=True, stream=stream)
        assert report.ok()
        assert report.exit_code() == 0
        assert report.summary_text() == ""
        assert "FAILURE SUMMARY" not in stream.getvalue()

    def test_points_completed_attributed_to_sweep_failures(self):
        # Fail the sweep itself (not the experiment guard) so the
        # failure report can see how far the sweep got.
        faults.install(FaultPlan(kind="raise", site="point", at=1))
        report = run_report(["fig3"], quick=True, stream=io.StringIO())
        assert not report.ok()
        failure = report.failures[0]
        assert failure.name == "fig3+fig4"
        assert failure.points_completed == 1

    def test_chart_failure_is_recorded_not_fatal(self, monkeypatch):
        from repro.experiments.common import ExperimentResult
        from repro.perf.report import Series

        dummy = ExperimentResult(name="fig9", title="demo", x_label="x")
        series = Series("a")
        series.append(1.0, 2.0)
        dummy.series.append(series)
        monkeypatch.setattr(
            "repro.experiments.fig9.run", lambda: dummy
        )

        def boom(_result):
            raise RuntimeError("no terminal")

        monkeypatch.setattr("repro.perf.charts.chart_experiment", boom)
        stream = io.StringIO()
        report = run_report(["fig9"], charts=True, stream=stream)
        assert "fig9" in report.results  # the figure itself succeeded
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.stage == "chart"
        assert not failure.fatal
        assert "RuntimeError" in failure.traceback_text
        # Chart failures are reported but do not fail the run.
        assert report.ok()
        assert report.exit_code() == 0
        assert "FAILURE SUMMARY" in stream.getvalue()

    def test_workers_validated(self):
        with pytest.raises(Exception) as excinfo:
            run_report(["table1"], workers=0, stream=io.StringIO())
        assert "workers" in str(excinfo.value)


class TestCliExitCodes:
    def test_clean_run_exits_zero(self, capsys):
        assert cli_main(["experiments", "table1"]) == 0
        capsys.readouterr()

    def test_failed_experiment_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setenv(
            faults.FAULTS_ENV, "raise@experiment:0,match=table1"
        )
        faults.clear()  # pick the plan up from the environment
        assert cli_main(["experiments", "table1"]) == 1
        out = capsys.readouterr().out
        assert "FAILURE SUMMARY" in out
        assert "InjectedFault" in out

    def test_bad_workers_is_a_usage_error(self, capsys):
        assert cli_main(["experiments", "table1", "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        ["--retries=2", "--point-timeout=30", "--checkpoint-dir=ckpt", "--resume"],
    )
    def test_recovery_flags_are_refused(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["experiments", "table1", flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_output_dir_and_charts(self, tmp_path, capsys):
        argv = [
            "experiments", "fig9", "--output-dir", str(tmp_path), "--charts",
        ]
        assert cli_main(argv) == 0
        assert (tmp_path / "fig9.csv").is_file()
        assert (tmp_path / "fig9.json").is_file()
        assert "o RadixSpline [NVLink 2.0]" in capsys.readouterr().out
