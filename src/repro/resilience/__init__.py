"""Resilience layer: fault injection, chaos replay, failure reports.

A sweep here runs for seconds, so a failure is cheaper to rerun than to
recover: the experiment stack makes every failure loud and keeps one
failing experiment from hiding the others.  The submodules each own one
concern:

* :mod:`~repro.resilience.faults` -- deterministic, seeded fault
  injection (``REPRO_FAULTS``) so every failure path is testable;
* :mod:`~repro.resilience.chaos` -- declarative, replayable fault
  schedules against the replicated serving layer, with the
  result-invariance checker behind ``repro chaos``;
* :mod:`~repro.resilience.report` -- :class:`ExperimentFailure` /
  :class:`RunReport`, the runner's structured failure summary.

Serving is the one place that recovers: a failed replica probe retries
on the serve executor's own fixed schedule in simulated time, then
fails over (:mod:`repro.serve.executor`).
"""

from . import chaos, faults, report
from .chaos import ChaosController, ChaosEvent, ChaosSchedule
from .faults import FaultPlan
from .report import ExperimentFailure, RunReport

__all__ = [
    "chaos",
    "faults",
    "report",
    "ChaosController",
    "ChaosEvent",
    "ChaosSchedule",
    "FaultPlan",
    "ExperimentFailure",
    "RunReport",
]
