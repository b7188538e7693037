"""Run every experiment and render the paper-vs-measured report.

Usage::

    python -m repro experiments            # everything
    python -m repro experiments fig5 fig7  # a subset
    python -m repro experiments --quick    # reduced sweeps

The output is the text the benchmark harness and EXPERIMENTS.md are built
from: one figure-shaped table per experiment, with the paper's expectation
attached.

Failure isolation: each experiment runs inside a guard.  An experiment
that raises is captured as a structured
:class:`~repro.resilience.report.ExperimentFailure` (exception,
traceback, elapsed time, sweep points completed), every *other*
experiment still runs, and the run ends with a failure summary and -- via
the CLI -- a nonzero exit code.  Nothing is retried or resumed: a whole
run takes seconds, so a failure is cheaper to rerun than to recover.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .. import obs
from ..errors import ConfigurationError
from ..resilience import faults
from ..resilience.report import ExperimentFailure, RunReport
from . import (
    cache,
    claims,
    common,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    nonequi,
    table1,
)
from .common import DEFAULT_R_SIZES_GIB, NAIVE_SIM

#: Reduced sweeps for --quick mode.
QUICK_R_SIZES = (1.0, 16.0, 32.0, 48.0, 111.0)
QUICK_WINDOWS = tuple(2**exp for exp in (18, 20, 22, 24, 26))
QUICK_THETAS = (0.0, 0.5, 1.0, 1.5, 1.75)
QUICK_NAIVE_SIM = NAIVE_SIM.with_sample(2**15)

#: The experiment names :func:`run_report` accepts, in run order.
EXPERIMENT_NAMES = (
    "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "nonequi", "claims",
)


def run_report(
    names,
    quick: bool = False,
    stream=None,
    output_dir=None,
    charts: bool = False,
    workers: int = 1,
    trace: bool = None,
    trace_file=None,
) -> RunReport:
    """Run the named experiments (all if empty); returns a RunReport.

    An unknown name raises :class:`ConfigurationError` listing the valid
    ones (the CLIs exit 2) before anything runs.

    ``output_dir`` additionally writes each result as CSV + JSON;
    ``charts`` appends a terminal chart under every figure's table.
    ``stream`` defaults to the *current* sys.stdout (resolved per call,
    so redirected/captured stdout is honoured).  ``workers > 1`` fans
    every figure's points (and the claims') across that many processes;
    the figures are bit-identical to a serial run.

    ``trace=True`` enables the observability layer (:mod:`repro.obs`)
    for this run, ``trace=False`` disables it, and ``None`` keeps the
    ``REPRO_TRACE`` environment default.  A traced run writes a
    ``metrics.json`` run manifest to ``trace_file`` (default:
    ``REPRO_TRACE_FILE``, else ``metrics.json`` in ``output_dir`` or the
    working directory) plus one ``<name>.metrics.json`` per exported
    experiment.  Note pooled workers (``workers > 1``) keep their op
    counters local; fully-accounted manifests need a serial run.
    """
    if stream is None:
        stream = sys.stdout
    unknown = sorted(set(names or ()) - set(EXPERIMENT_NAMES))
    if unknown:
        raise ConfigurationError(
            f"unknown experiment(s): {' '.join(unknown)}; "
            f"valid names: {' '.join(EXPERIMENT_NAMES)}"
        )
    common.validate_workers(workers)
    if trace is not None:
        obs.enable(bool(trace))
    obs.reset()
    from ..perf.alloc import tune_allocator

    tune_allocator()
    report = RunReport()
    with cache.session():
        _run_all(names, quick, stream, output_dir, charts, workers, report)
    report.timings.update(obs.phase_wall_seconds())
    run_summary = report.run_summary_text()
    if run_summary:
        stream.write(run_summary + "\n")
        stream.flush()
    summary = report.summary_text()
    if summary:
        stream.write(summary + "\n")
        stream.flush()
    if obs.enabled():
        target = trace_file or os.environ.get(obs.TRACE_FILE_ENV)
        if not target:
            target = (
                os.path.join(output_dir, "metrics.json")
                if output_dir is not None
                else "metrics.json"
            )
        obs.write_manifest(
            target,
            run_info={
                "experiments": sorted(report.results),
                "quick": bool(quick),
                "workers": workers,
            },
        )
        stream.write(f"[trace manifest written to {target}]\n")
        stream.flush()
    return report


def _run_all(names, quick, stream, output_dir, charts, workers, report):
    wanted = set(names) if names else None
    results = report.results

    def selected(name: str) -> bool:
        return wanted is None or name in wanted

    def emit(text: str) -> None:
        stream.write(text + "\n\n")
        stream.flush()

    def took(name: str) -> float:
        """Wall seconds one experiment phase spent (span-sourced)."""
        seconds = obs.tracer().phase_wall_seconds(name)
        return 0.0 if seconds is None else seconds

    def guarded(name: str, func):
        """Run one experiment in isolation; capture any failure.

        Returns the experiment's value, or None when it failed (the
        failure lands in the report and the remaining experiments still
        run).  The ``experiment`` fault-injection site fires here, so
        tests can force any single experiment to fail by name.

        The whole experiment executes inside an ``obs.phase(name)``
        scope: its wall time is measured unconditionally (the exit
        summary and failure report use it), and while tracing is on
        every counter recorded inside lands in the phase's shadow
        section of the run manifest.
        """
        started = time.time()
        # Emptied here, so sweep progress is attributed to a failure
        # only if this experiment started a sweep.
        common.LAST_SWEEP.clear()
        try:
            with obs.phase(name):
                faults.check("experiment", name)
                return func()
        except Exception as error:  # isolated: the run continues
            completed = common.LAST_SWEEP.get("computed")
            elapsed = obs.tracer().phase_wall_seconds(name)
            if elapsed is None:
                elapsed = time.time() - started
            report.failures.append(
                ExperimentFailure.from_exception(
                    name,
                    "experiment",
                    error,
                    started,
                    points_completed=completed,
                    elapsed_seconds=elapsed,
                )
            )
            emit(
                f"  [{name} FAILED after {elapsed:.1f}s: "
                f"{type(error).__name__}: {error}; continuing -- see "
                "failure summary]"
            )
            return None

    def finish(result, phase=None) -> None:
        if output_dir is not None:
            from ..perf.export import write_result

            write_result(result, output_dir)
            if obs.enabled():
                obs.write_manifest(
                    os.path.join(output_dir, f"{result.name}.metrics.json"),
                    run_info={"experiment": result.name},
                    phase=phase or result.name,
                )
        if charts:
            from ..perf.charts import chart_experiment

            started = time.time()
            try:
                emit(chart_experiment(result))
            except Exception as error:
                # Charts are best-effort output, but their failures are
                # real bugs: keep the run alive, record the full
                # traceback in the failure report instead of swallowing
                # it into a one-liner.
                report.failures.append(
                    ExperimentFailure.from_exception(
                        f"{result.name} chart",
                        "chart",
                        error,
                        started,
                        fatal=False,
                    )
                )
                emit(
                    f"  [chart for {result.name} failed: "
                    f"{type(error).__name__}: {error}; traceback in "
                    "failure summary]"
                )

    def single(name: str, run, y_format: str = "{:.3f}") -> None:
        """Run, store, print and export a one-result experiment."""
        value = guarded(name, run)
        if value is not None:
            results[name] = value
            emit(value.to_text(y_format=y_format))
            finish(value)
            emit(f"  [{name} took {took(name):.1f}s]")

    r_sizes = QUICK_R_SIZES if quick else DEFAULT_R_SIZES_GIB
    naive_sim = QUICK_NAIVE_SIM if quick else NAIVE_SIM

    if selected("table1"):
        value = guarded("table1", table1.run)
        if value is not None:
            results["table1"] = value
            emit(value)
            emit(f"  [table1 took {took('table1'):.1f}s]")

    naive_requests = None
    if selected("fig3") or selected("fig4") or selected("fig6"):
        value = guarded(
            "fig3+fig4",
            lambda: fig3.run(r_sizes_gib=r_sizes, sim=naive_sim, workers=workers),
        )
        if value is not None:
            throughput, naive_requests = value
            results["fig3"] = throughput
            results["fig4"] = naive_requests
            if selected("fig3"):
                emit(throughput.to_text())
                finish(throughput, phase="fig3+fig4")
            if selected("fig4"):
                emit(naive_requests.to_text(y_format="{:.2f}"))
                finish(naive_requests, phase="fig3+fig4")
            emit(f"  [fig3+fig4 took {took('fig3+fig4'):.1f}s]")

    partitioned_requests = None
    if selected("fig5") or selected("fig6"):
        value = guarded(
            "fig5",
            lambda: fig5.run(r_sizes_gib=r_sizes, workers=workers),
        )
        if value is not None:
            throughput, partitioned_requests = value
            results["fig5"] = throughput
            if selected("fig5"):
                emit(throughput.to_text())
                finish(throughput, phase="fig5")
            emit(f"  [fig5 took {took('fig5'):.1f}s]")

    if selected("fig6"):
        single(
            "fig6",
            lambda: fig6.run(
                r_sizes_gib=r_sizes,
                naive_requests=naive_requests,
                partitioned_requests=partitioned_requests,
            ),
            y_format="{:.2f}",
        )

    if selected("fig7"):
        windows = QUICK_WINDOWS if quick else fig7.DEFAULT_WINDOW_TUPLES
        single(
            "fig7", lambda: fig7.run(window_tuples=windows, workers=workers)
        )

    if selected("fig8"):
        thetas = QUICK_THETAS if quick else fig8.DEFAULT_THETAS
        single("fig8", lambda: fig8.run(thetas=thetas, workers=workers))

    if selected("fig9"):
        single("fig9", lambda: fig9.run(workers=workers))

    if selected("nonequi"):
        thetas = (0.0,) if quick else nonequi.DEFAULT_THETAS
        single(
            "nonequi", lambda: nonequi.run(thetas=thetas, workers=workers)
        )

    if selected("claims"):
        measured = guarded("claims", lambda: claims.run(workers=workers))
        if measured is not None:
            results["claims"] = measured
            for claim in measured:
                emit(claim.to_text())
            emit(f"  [claims took {took('claims'):.1f}s]")


def add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared observability CLI flags."""
    parser.add_argument(
        "--trace", action="store_true",
        help="enable the observability layer: spans, op counters, and a "
             "metrics.json run manifest (same as REPRO_TRACE=1)",
    )
    parser.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help="run-manifest path for --trace (default REPRO_TRACE_FILE, "
             "else metrics.json next to the exported results)",
    )
