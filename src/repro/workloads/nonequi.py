"""Band width for a target selectivity of the non-equi sweep."""

from __future__ import annotations

import numpy as np

from ..data.column import Column
from ..errors import WorkloadError
from ..indexes.domain import clamped_int64


def band_epsilon_for_matches(build_column: Column, matches: float) -> int:
    """The band width yielding ``matches`` expected pairs per probe.

    Inverts the uniform-density estimate of
    :func:`repro.join.nonequi.expected_band_matches`: a band of width
    ``2 * epsilon`` over average key gap ``g`` covers about
    ``2 * epsilon / g + 1`` keys, so ``epsilon = (matches - 1) * g / 2``.
    The float-to-int cast is clamped into the key span (NP002), and the
    result is floored at 0 (``matches <= 1`` degenerates to a point
    probe).
    """
    if matches <= 0:
        raise WorkloadError(
            f"matches must be positive, got {matches}"
        )
    n = len(build_column)
    if n <= 1:
        return 0
    avg_gap = (build_column.max_key - build_column.min_key) / (n - 1)
    span = float(build_column.max_key - build_column.min_key)
    epsilon = clamped_int64(
        np.asarray([(matches - 1.0) * avg_gap / 2.0]), 0.0, span
    )
    return int(epsilon[0])
