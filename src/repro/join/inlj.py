"""The textbook index-nested-loop join (paper Section 3).

"Our INLJ is a text book implementation that calls an index structure in
the inner loop. ... The GPU implementation of INLJ dispatches a thread for
each tuple of the probe side relation" (Sections 3.2-3.3.1).  By default
probe keys arrive in stream (random) order and nothing mitigates the TLB.

``probe_order="sorted"`` instead assumes the probe stream arrives fully
sorted -- the upper bound of what any key reordering can achieve, and the
idea (from Harmonia, discussed in the paper's Section 4.1) that inspired
windowed partitioning.  The sorted-order A7 ablation shows partitioning
recovers nearly all of this bound without a sort.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..indexes.base import Index
from ..perf.model import QueryCost
from .base import JoinResult, QueryEnvironment, require_1d

_PROBE_ORDERS = ("stream", "sorted")


class IndexNestedLoopJoin:
    """INLJ over any of the paper's index structures."""

    name = "INLJ"

    def __init__(self, index: Index, probe_order: str = "stream"):
        if probe_order not in _PROBE_ORDERS:
            raise ConfigurationError(
                f"probe_order must be one of {_PROBE_ORDERS}, got "
                f"{probe_order!r}"
            )
        self.index = index
        self.probe_order = probe_order

    # ------------------------------------------------------------------
    # Functional path.
    # ------------------------------------------------------------------

    def join(self, probe_keys: np.ndarray) -> JoinResult:
        """Exact join of the probe keys against the indexed relation.

        The whole probe side runs as one fused :meth:`probe_batch` into a
        single preallocated positions buffer (the textbook INLJ *is* one
        GPU-sized batch), rather than through an allocating ``lookup``.
        """
        probe_keys = require_1d(probe_keys)
        positions = np.empty(len(probe_keys), dtype=np.int64)
        if self.probe_order == "sorted":
            order = np.argsort(probe_keys, kind="stable")
            self.index.probe_batch(probe_keys[order], positions)
            matched = positions >= 0
            return JoinResult(
                probe_indices=order[matched].astype(np.int64),
                build_positions=positions[matched],
            )
        self.index.probe_batch(probe_keys, positions)
        matched = positions >= 0
        return JoinResult(
            probe_indices=np.nonzero(matched)[0].astype(np.int64),
            build_positions=positions[matched],
        )

    # ------------------------------------------------------------------
    # Simulated path.
    # ------------------------------------------------------------------

    def estimate(self, env: QueryEnvironment) -> QueryCost:
        """Cost-model throughput of the INLJ on ``env``'s machine.

        Stream order simulates a random-order probe sample at event
        granularity (the faithful regime for unpartitioned streams);
        sorted order uses a density-preserving ordered sample with the
        analytic TLB, like the partitioned operators.  Either way the S
        table read and result materialization are added on top.
        """
        env.check_index(self.index)
        s_tuples = env.workload.s_tuples
        if self.probe_order == "sorted":
            counters = env.ordered_probe_counters(s_tuples, s_tuples)
        else:
            counters = env.naive_probe_counters(s_tuples)
        counters.add(env.machine.scan_counters(env.s_bytes))
        counters.add(env.machine.result_counters(env.result_bytes()))
        counters.validate()
        return env.cost_model.price_stages([("probe", counters)])
