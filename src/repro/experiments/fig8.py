"""Figure 8: query throughput with Zipf-skewed lookup keys (Section 5.2.2).

Paper setup: R = 100 GiB, S = 2^26 tuples, 32 MiB windows, Zipf exponent
swept over 0-1.75.  Paper observations: windowed-INLJ throughput increases
for exponents above 1.0 (at 1.0 the paper computes a 69% L1 hit chance);
the hash join "degrades to a long probe chain" and was terminated after
10 hours.
"""

from __future__ import annotations

from typing import Sequence

from ..data.zipf import zipf_top_mass
from ..hardware.spec import SystemSpec, V100_NVLINK2
from ..indexes import ALL_INDEX_TYPES
from ..perf.report import Series
from ..units import MIB
from .common import (
    ExperimentResult,
    ORDERED_SIM,
    Point,
    gib_to_tuples,
    price_points,
)

PAPER_EXPECTATION = (
    "Windowed INLJ throughput rises for Zipf exponents above 1.0; the "
    "hash join degenerates into long probe chains and was terminated "
    "after 10 hours"
)

#: The paper sweeps "the exponent range 0-1.75".
DEFAULT_THETAS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)

#: The paper gave up on the skewed hash join after this long.
HASH_JOIN_TIMEOUT_SECONDS = 10 * 3600.0


def run(
    spec: SystemSpec = V100_NVLINK2,
    r_gib: float = 100.0,
    thetas: Sequence[float] = DEFAULT_THETAS,
    window_bytes: int = 32 * MIB,
    sim=ORDERED_SIM,
    index_types: Sequence[type] = ALL_INDEX_TYPES,
    include_hash_join: bool = True,
    workers: int = 1,
) -> ExperimentResult:
    """Sweep the Zipf exponent at fixed R and window size.

    ``workers > 1`` fans the points across processes with bit-identical
    results (see :func:`repro.experiments.common.map_tasks`).
    """
    result = ExperimentResult(
        name="fig8",
        title=f"Windowed INLJ under skew, R = {r_gib:g} GiB, "
        f"{window_bytes // MIB} MiB windows (Q/s)",
        x_label="zipf exponent",
        paper_expectation=PAPER_EXPECTATION,
    )
    r_tuples = gib_to_tuples(r_gib)
    series_by_index = {cls: Series(cls.name) for cls in index_types}
    hash_series = Series("hash join")
    points = []
    for theta in thetas:
        for index_cls in index_types:
            point = Point(
                "windowed", spec, r_tuples, index_cls, sim,
                zipf_theta=theta, window_bytes=window_bytes,
            )
            points.append(((index_cls, theta), f"{index_cls.name} @ theta={theta}", point))
        if include_hash_join:
            point = Point("hash", spec, r_tuples, sim=sim, zipf_theta=theta)
            points.append(((None, theta), f"hash @ theta={theta}", point))
    for (index_cls, theta), cost in price_points(result, points, workers):
        if cost is None:
            continue
        if index_cls is not None:
            series_by_index[index_cls].append(theta, cost.queries_per_second)
        elif cost.seconds > HASH_JOIN_TIMEOUT_SECONDS:
            result.notes.append(
                f"hash join @ theta={theta}: DNF -- modeled "
                f"{cost.seconds / 3600:.1f} h exceeds the paper's "
                "10 h termination"
            )
        else:
            hash_series.append(theta, cost.queries_per_second)
    result.series = [series_by_index[cls] for cls in index_types]
    if include_hash_join:
        result.series.append(hash_series)
    # The paper's 69%-L1-hit observation at exponent 1.0: report the hot
    # mass an L1-sized hot set captures.
    l1_keys = spec.gpu.l1_bytes // 8
    hot_mass = zipf_top_mass(r_tuples, 1.0, l1_keys)
    result.notes.append(
        f"analytic hot-set mass at theta=1.0 for an L1-sized ({l1_keys}) "
        f"key set: {hot_mass * 100:.0f}% (paper computes 69%)"
    )
    return result
