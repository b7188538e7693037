"""Performance modelling: counters -> seconds, plus analytic locality math.

:mod:`repro.perf.analytic` holds closed-form locality formulas (expected
distinct pages of a partition-ordered sweep); :mod:`repro.perf.model` prices
:class:`~repro.hardware.counters.PerfCounters` into query time on a given
:class:`~repro.hardware.spec.SystemSpec`; :mod:`repro.perf.report` formats
results like the paper's figures.
"""

from .analytic import (
    expected_distinct,
    level_sweep_pages,
    midtree_sweep_pages,
    uniform_lru_misses,
)
from .charts import ascii_chart, chart_experiment
from .export import result_to_csv, result_to_json, result_to_rows, write_result
from .model import CostModel, QueryCost
from .report import Series, format_series_table, format_table

__all__ = [
    "expected_distinct",
    "level_sweep_pages",
    "midtree_sweep_pages",
    "uniform_lru_misses",
    "ascii_chart",
    "chart_experiment",
    "result_to_csv",
    "result_to_json",
    "result_to_rows",
    "write_result",
    "CostModel",
    "QueryCost",
    "Series",
    "format_series_table",
    "format_table",
]
