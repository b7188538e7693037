"""The loud-failure contract of the sweep runner.

A sweep is never recovered: a point that raises fails its experiment
with the point's own exception, and a worker that dies fails it with
``BrokenProcessPool``.  Either way the runner isolates the failure to
that experiment, reports how far its sweep got, and exits nonzero,
while every other experiment of the run still completes.
"""

import io
import multiprocessing

import pytest

from repro.__main__ import main as cli_main
from repro.experiments.runner import run_report
from repro.resilience import faults
from repro.resilience.faults import FaultPlan


@pytest.mark.parametrize("workers", [1, 2])
def test_raising_point_fails_only_its_experiment(workers):
    # Serially the first point raises; pooled, every worker's first
    # point does, so task 0 fails whichever worker takes it.
    faults.install(FaultPlan(kind="raise", site="point", at=0))
    stream = io.StringIO()
    report = run_report(
        ["table1", "fig3", "fig4"], quick=True, stream=stream, workers=workers
    )
    assert "table1" in report.results
    assert "fig3" not in report.results and "fig4" not in report.results
    [failure] = report.failures
    assert failure.name == "fig3+fig4"
    assert failure.error_type == "InjectedFault"
    assert failure.points_completed == 0
    assert report.exit_code() == 1
    assert "FAILURE SUMMARY" in stream.getvalue()


def test_raising_point_exits_one_from_the_cli(capsys, monkeypatch):
    monkeypatch.setenv(faults.FAULTS_ENV, "raise@point:0")
    faults.clear()  # pick the plan up from the environment
    argv = ["experiments", "table1", "fig3", "--quick", "--workers", "2"]
    assert cli_main(argv) == 1
    out = capsys.readouterr().out
    assert "FAILURE SUMMARY" in out
    assert "InjectedFault" in out


def test_dead_worker_fails_the_sweep_loudly():
    # Every worker exits on its first point; the pool must say so at once.
    faults.install(FaultPlan(kind="crash", site="point", at=0))
    stream = io.StringIO()
    report = run_report(["fig3"], quick=True, stream=stream, workers=2)
    [failure] = report.failures
    assert failure.name == "fig3+fig4"
    assert failure.error_type == "BrokenProcessPool"
    assert failure.elapsed_seconds < 30
    assert report.exit_code() == 1
    assert "BrokenProcessPool" in stream.getvalue()
    assert multiprocessing.active_children() == []


def test_point_plan_matching_a_fig7_point_fails_fig7():
    # Quick Fig. 7 prices 5 windows x 4 indexes, window by window; the
    # plan selects the first Harmonia point, the sweep's third.
    faults.install(
        FaultPlan(
            kind="raise", site="point", at=0, match="windowed:HarmoniaIndex"
        )
    )
    stream = io.StringIO()
    report = run_report(["table1", "fig7"], quick=True, stream=stream)
    assert "table1" in report.results and "fig7" not in report.results
    [failure] = report.failures
    assert failure.name == "fig7"
    assert failure.error_type == "InjectedFault"
    assert "windowed:HarmoniaIndex:13421772800:w2097152" in failure.message
    assert failure.points_completed == 2
    assert report.exit_code() == 1


def test_points_completed_sum_an_experiments_sweeps():
    # The claims price ten points in one sweep, then Fig. 9's sweep for
    # claim 3; the plan fails the first point of the second.
    faults.install(
        FaultPlan(
            kind="raise", site="point", at=0,
            match="windowed:RadixSplineIndex:268435456",
        )
    )
    report = run_report(["claims"], quick=True, stream=io.StringIO())
    [failure] = report.failures
    assert failure.name == "claims"
    assert failure.error_type == "InjectedFault"
    assert failure.points_completed == 10
