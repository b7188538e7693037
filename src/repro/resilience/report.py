"""Structured failure capture for the experiment runner.

One failing experiment used to abort the whole run with a bare
traceback; chart errors were swallowed into a one-line string.  This
module gives both a durable shape: an :class:`ExperimentFailure` records
what failed, how, and how far it got, and a :class:`RunReport` carries
every experiment's result *and* every failure to the CLI, which renders
a summary and turns fatal failures into a nonzero exit code.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class ExperimentFailure:
    """One captured failure inside a run.

    Attributes:
        name: experiment id (``fig5``) or artifact (``fig5 chart``).
        stage: ``experiment`` (fatal) or ``chart``/``export`` (best-effort
            output, non-fatal).
        error_type: exception class name.
        message: ``str(exception)``.
        traceback_text: full formatted traceback.
        elapsed_seconds: time spent before the failure.
        points_completed: sweep points finished before the failure, when
            the experiment's sweep ran far enough to know.
        fatal: whether this failure should fail the run's exit code.
    """

    name: str
    stage: str
    error_type: str
    message: str
    traceback_text: str
    elapsed_seconds: float
    points_completed: Optional[int] = None
    fatal: bool = True

    @classmethod
    def from_exception(
        cls,
        name: str,
        stage: str,
        error: BaseException,
        started: float,
        points_completed: Optional[int] = None,
        fatal: bool = True,
        elapsed_seconds: Optional[float] = None,
    ) -> "ExperimentFailure":
        """``elapsed_seconds`` overrides the wall clock when the caller has
        a better source (the runner passes the experiment's phase timing
        from :mod:`repro.obs`)."""
        return cls(
            name=name,
            stage=stage,
            error_type=type(error).__name__,
            message=str(error),
            traceback_text="".join(
                traceback.format_exception(type(error), error, error.__traceback__)
            ),
            elapsed_seconds=(
                elapsed_seconds
                if elapsed_seconds is not None
                else time.time() - started
            ),
            points_completed=points_completed,
            fatal=fatal,
        )

    def headline(self) -> str:
        points = (
            f", {self.points_completed} points completed"
            if self.points_completed is not None
            else ""
        )
        return (
            f"{self.name} [{self.stage}] failed after "
            f"{self.elapsed_seconds:.1f}s{points}: "
            f"{self.error_type}: {self.message}"
        )

    def to_text(self) -> str:
        lines = [self.headline()]
        lines.extend(
            "    " + line
            for line in self.traceback_text.rstrip().splitlines()
        )
        return "\n".join(lines)


@dataclass
class RunReport:
    """Everything one ``run_report`` produced: results, timings, failures.

    ``timings`` maps each experiment guard name to its wall time in
    seconds, sourced from the observability layer's always-on phase
    measurement (:func:`repro.obs.phase_wall_seconds`), in execution
    order.
    """

    results: Dict[str, object] = field(default_factory=dict)
    failures: List[ExperimentFailure] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)

    def ok(self) -> bool:
        return not any(failure.fatal for failure in self.failures)

    def exit_code(self) -> int:
        return 0 if self.ok() else 1

    def summary_text(self) -> str:
        """The end-of-run failure summary (empty string when clean)."""
        if not self.failures:
            return ""
        fatal = sum(1 for failure in self.failures if failure.fatal)
        lines = [
            "FAILURE SUMMARY: "
            f"{len(self.failures)} failure(s), {fatal} fatal"
        ]
        for failure in self.failures:
            lines.append("")
            lines.append(failure.to_text())
        return "\n".join(lines)

    def run_summary_text(self) -> str:
        """Per-experiment wall-time exit summary.

        Separate from :meth:`summary_text` on purpose: the failure
        summary stays empty (and absent from output) on clean runs --
        tests and the CI resilience smoke depend on that -- while this
        timing table renders whenever anything ran.
        """
        if not self.timings:
            return ""
        failed = {
            failure.name
            for failure in self.failures
            if failure.stage == "experiment"
        }
        width = max(len(name) for name in self.timings)
        lines = ["RUN SUMMARY:"]
        for name, seconds in self.timings.items():
            status = "FAILED" if name in failed else "ok"
            lines.append(f"  {name:<{width}}  {seconds:7.1f}s  {status}")
        total = sum(self.timings.values())
        fatal = sum(1 for failure in self.failures if failure.fatal)
        lines.append(
            f"  total {total:.1f}s, {len(self.results)} result(s), "
            f"{fatal} fatal failure(s)"
        )
        return "\n".join(lines)
