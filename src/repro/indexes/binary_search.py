"""Binary search over the sorted base column.

The simplest of the paper's four access paths: no auxiliary structure at
all; every lookup bisects the full column, touching ``~log2(N)`` positions
scattered across the whole relation.  That scatter is why binary search is
the worst TLB citizen in the paper's Fig. 4 (~105 translation requests per
lookup at 111 GiB) and why it benefits so much from partitioned lookups.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .. import obs
from ..data.column import KEY_DTYPE
from ..data.relation import Relation
from ..hardware.memory import SystemMemory
from ..perf.analytic import midtree_sweep_pages
from ..units import KEY_BYTES
from .base import Index, TraceRecorder, replay_bisection, traced_build


class BinarySearchIndex(Index):
    """Lower-bound binary search directly on the relation's key column."""

    name = "binary search"
    supports_updates = False
    # Calibrated to the paper's Fig. 4: ~105 translation requests per key
    # at 111 GiB over ~13 last-level misses per lookup.
    tlb_replay_factor = 8.0

    @traced_build
    def __init__(self, relation: Relation):
        super().__init__(relation)
        self._placed = False

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------

    @property
    def footprint_bytes(self) -> int:
        return 0  # searches the base relation in place

    @property
    def height(self) -> int:
        return max(1, math.ceil(math.log2(len(self.column) + 1)))

    def place(self, memory: SystemMemory) -> None:
        """No structure to allocate; only requires the relation be placed."""
        if self.relation.allocation is None:
            raise_from = (
                "binary search needs the relation placed in host memory "
                "before tracing"
            )
            from ..errors import SimulationError

            raise SimulationError(raise_from)
        self._placed = True

    # ------------------------------------------------------------------
    # Traversal.
    # ------------------------------------------------------------------

    def _traverse(
        self, keys: np.ndarray, recorder: Optional[TraceRecorder]
    ) -> np.ndarray:
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        n = len(self.column)
        lower, upper = self._ranks(keys)
        if recorder is not None or obs.enabled():
            # The bisection of [0, n) ends at the lower rank.
            base = self.relation.allocation.base if recorder is not None else 0
            rounds = replay_bisection(0, n, lower, recorder, base)
            if obs.enabled():
                obs.add("index.search_rounds", float(rounds), index=self.name)
            if recorder is not None:
                # Final verification read of the lower-bound position (the
                # INLJ fetches the candidate match anyway).
                in_range = lower < n
                recorder.record(
                    base + np.where(in_range, lower, 0) * KEY_BYTES,
                    active=in_range,
                )
        return np.where(upper > lower, lower, np.int64(-1))

    # ------------------------------------------------------------------
    # Analytic locality.
    # ------------------------------------------------------------------

    def expected_sweep_pages(
        self,
        window_lookups: float,
        page_bytes: int,
        l2_bytes: int,
        cacheline_bytes: int,
    ) -> float:
        return midtree_sweep_pages(
            window_lookups=window_lookups,
            span_bytes=self.column.nbytes,
            page_bytes=page_bytes,
            l2_bytes=l2_bytes,
            cacheline_bytes=cacheline_bytes,
        )
