"""Experiment harness: one module per table/figure of the paper.

Each module exposes ``run(...)`` with paper-default parameters that can
be scaled down (fewer sizes, smaller samples) for tests and quick
benchmarks, plus a module-level ``PAPER_EXPECTATION`` string recording
what the paper reports.  Every figure is a sweep of
:class:`~repro.experiments.common.Point` values priced by the one point
function, :func:`~repro.experiments.common.run_point`, through
:func:`~repro.experiments.common.map_tasks` (serial or pooled, with
identical results).  ``repro.experiments.runner`` executes everything and
renders EXPERIMENTS.md-style output.

| Module   | Paper artifact | What it reproduces                         |
|----------|----------------|--------------------------------------------|
| table1   | Table 1        | interconnect receive bandwidths             |
| fig3     | Figures 3, 4   | naive INLJ vs hash join; requests per lookup |
| fig5     | Figure 5       | partitioned-key INLJ throughput             |
| fig6     | Figure 6       | translation requests eliminated (%)         |
| fig7     | Figure 7       | window-size sweep                           |
| fig8     | Figure 8       | Zipf-skewed lookup keys                     |
| fig9     | Figure 9       | PCIe 4.0 (A100) vs NVLink 2.0 (V100)        |
| nonequi  | (extension)    | band join, naive vs windowed                |
| claims   | Section 6      | headline claims (12x volume, 16.7x drop...) |
"""

from .common import (
    DEFAULT_R_SIZES_GIB,
    ExperimentResult,
    default_partitioner,
    gib_to_tuples,
    make_environment,
)

__all__ = [
    "DEFAULT_R_SIZES_GIB",
    "ExperimentResult",
    "default_partitioner",
    "gib_to_tuples",
    "make_environment",
]
