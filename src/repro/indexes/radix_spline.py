"""RadixSpline: a single-pass learned index (Kipf et al., aiDM 2020).

A RadixSpline consists of (Section 2.2 of the reproduced paper):

* *spline points* -- a subset of (key, position) pairs such that linear
  interpolation between neighbouring points predicts any key's position
  within ``max_error``;
* a *radix table* -- an array indexed by the most significant bits of a
  key, pointing at the first spline point of each radix partition.

A lookup reads one radix-table slot, binary-searches the (few) spline
points of that partition for the surrounding pair, interpolates, and
finishes with a bounded binary search of the data -- a handful of memory
accesses regardless of data size, which is why the paper finds the
RadixSpline the fastest out-of-core index (1.1-1.8x over Harmonia,
Section 6).

Two builders:

* ``fit="greedy"`` -- the real GreedySplineCorridor one-pass algorithm,
  for materialized columns;
* ``fit="uniform"`` -- spline points at fixed position intervals with the
  actual maximum interpolation error measured (materialized) or bounded by
  construction (virtual columns, whose per-segment linearity guarantees an
  error of one position).

Spline density matters for out-of-core behaviour: on real uniform-random
keys, the CDF deviates from a line like a random walk, so a corridor of
width ``max_error`` collapses roughly every ``max_error**2`` positions.
Virtual columns are piecewise-linear by construction and would admit an
unrealistically sparse spline; ``uniform_interval`` therefore defaults to
``max_error**2``, giving the spline array the size (hundreds of MB at
111 GiB) and the per-lookup access pattern a real build would have.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .. import obs
from ..data.column import KEY_DTYPE, MaterializedColumn, VirtualSortedColumn
from ..data.relation import Relation
from ..errors import ConfigurationError, SimulationError
from ..hardware.memory import MemorySpace, SystemMemory
from ..perf.analytic import level_sweep_pages
from ..units import KEY_BYTES
from .base import Index, TraceRecorder, replay_bisection, slots_below, traced_build
from .domain import clamped_int64

#: Bytes per spline point: 8 B key + 8 B position.
_SPLINE_POINT_BYTES = 16


def greedy_spline_corridor(
    keys: np.ndarray, max_error: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The GreedySplineCorridor algorithm over a sorted key array.

    Maintains a corridor of feasible slopes from the last spline point;
    emits a new point whenever the next key's +-max_error corridor no
    longer intersects the running one.  Returns (spline_keys,
    spline_positions), always including the first and last key.
    """
    if max_error < 1:
        raise ConfigurationError(f"max_error must be >= 1, got {max_error}")
    n = len(keys)
    if n == 0:
        raise ConfigurationError("cannot fit a spline to an empty column")
    if n <= 2:
        positions = np.arange(n, dtype=np.int64)
        return keys.copy(), positions
    point_keys = [int(keys[0])]
    point_positions = [0]
    # Key deltas are computed in exact integer arithmetic: float64 has a
    # 53-bit mantissa, so ``float(key) - float(anchor)`` rounds to zero
    # for adjacent keys above ~2^53 and would reject a valid column.
    anchor_key = int(keys[0])
    anchor_pos = 0.0
    slope_low = -math.inf
    slope_high = math.inf
    for position in range(1, n):  # repro: noqa[PERF001] -- one-pass greedy spline build, build-time only
        key = int(keys[position])
        dx = float(key - anchor_key)
        if dx <= 0:
            raise ConfigurationError("keys must be strictly increasing")
        candidate_low = (position - max_error - anchor_pos) / dx
        candidate_high = (position + max_error - anchor_pos) / dx
        if candidate_low > slope_high or candidate_high < slope_low:
            # Corridor collapsed: the previous key becomes a spline point.
            previous = position - 1
            point_keys.append(int(keys[previous]))
            point_positions.append(previous)
            anchor_key = int(keys[previous])
            anchor_pos = float(previous)
            dx = float(key - anchor_key)
            slope_low = (position - max_error - anchor_pos) / dx
            slope_high = (position + max_error - anchor_pos) / dx
        else:
            slope_low = max(slope_low, candidate_low)
            slope_high = min(slope_high, candidate_high)
    if point_positions[-1] != n - 1:
        point_keys.append(int(keys[n - 1]))
        point_positions.append(n - 1)
    return (
        np.asarray(point_keys, dtype=KEY_DTYPE),
        np.asarray(point_positions, dtype=np.int64),
    )


def measure_spline_error(
    keys: np.ndarray, point_keys: np.ndarray, point_positions: np.ndarray
) -> int:
    """Exact maximum interpolation error of a spline over sorted keys.

    The greedy corridor bounds each point against a *feasible* line, but
    the chord actually chosen between knots can exceed the corridor at
    intermediate points; production RadixSpline implementations carry the
    same caveat.  Lookups therefore use the measured bound, which makes
    correctness independent of the builder's tightness.
    """
    n = len(keys)
    positions = np.arange(n, dtype=np.float64)
    segment = np.clip(
        np.searchsorted(point_keys, keys, side="right") - 1,
        0,
        len(point_keys) - 2,
    )
    key_low = point_keys[segment]
    pos_low = point_positions[segment].astype(np.float64)
    pos_high = point_positions[segment + 1].astype(np.float64)
    # Subtract in uint64 (exact) before converting to float: converting
    # the raw keys first loses the low bits of large keys and measures
    # the error of a different prediction than lookups compute.
    span = np.maximum(
        (point_keys[segment + 1] - key_low).astype(np.float64), 1.0
    )
    predicted = pos_low + (keys - key_low).astype(np.float64) / span * (
        pos_high - pos_low
    )
    return int(np.ceil(np.abs(predicted - positions).max()))


def uniform_spline(
    column, interval: int
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Spline points at fixed position intervals, plus the achieved error.

    For virtual columns the error is 1 by construction (piecewise-linear
    keys with bounded noise); for materialized columns it is measured.
    """
    if interval < 2:
        raise ConfigurationError(f"interval must be >= 2, got {interval}")
    n = len(column)
    positions = np.arange(0, n, interval, dtype=np.int64)
    if positions[-1] != n - 1:
        positions = np.append(positions, n - 1)
    keys = column.key_at(positions)
    if isinstance(column, VirtualSortedColumn):
        return keys, positions, max(1, column.hint_error_bound())
    # Measure the achieved interpolation error on the materialized data.
    all_keys = column.key_at(np.arange(n, dtype=np.int64))
    error = measure_spline_error(all_keys, keys, positions)
    return keys, positions, max(1, error)


class RadixSplineIndex(Index):
    """RadixSpline over a sorted column: radix table + spline points."""

    name = "RadixSpline"
    supports_updates = False
    tlb_replay_factor = 6.0

    @traced_build
    def __init__(
        self,
        relation: Relation,
        max_error: int = 32,
        radix_bits: int = 18,
        fit: str = "auto",
        uniform_interval: int = None,
    ):
        super().__init__(relation)
        if max_error < 1:
            raise ConfigurationError(f"max_error must be >= 1, got {max_error}")
        if uniform_interval is None:
            uniform_interval = max(2, max_error * max_error)
        if radix_bits < 1 or radix_bits > 28:
            raise ConfigurationError(
                f"radix_bits must be in [1, 28], got {radix_bits}"
            )
        if fit not in ("auto", "greedy", "uniform"):
            raise ConfigurationError(f"unknown fit mode: {fit!r}")
        self.radix_bits = radix_bits
        self.max_error = max_error
        if fit == "auto":
            fit = (
                "uniform"
                if isinstance(self.column, VirtualSortedColumn)
                else "greedy"
            )
        self.fit = fit
        #: Non-None selects the implicit (grid-positioned) spline.
        self._uniform_interval = None
        if fit == "greedy":
            if not isinstance(self.column, MaterializedColumn):
                raise ConfigurationError(
                    "greedy fitting needs a materialized column; use "
                    "fit='uniform' for virtual columns"
                )
            self.spline_keys, self.spline_positions = greedy_spline_corridor(
                self.column.keys, max_error
            )
            # The chord between greedy knots can exceed the corridor at
            # intermediate points; bound the data search by the measured
            # error so lookups stay exact (see measure_spline_error).
            self.error_bound = max(
                max_error,
                measure_spline_error(
                    self.column.keys, self.spline_keys, self.spline_positions
                ),
            )
        else:
            interval = min(uniform_interval, max(2, len(self.column)))
            if isinstance(self.column, VirtualSortedColumn):
                # Implicit spline: points lie on a fixed position grid, so
                # the (key, position) arrays -- hundreds of MB at 111 GiB
                # -- are never materialized.  Gathers go through
                # ``column.key_at`` on demand (see _spline_key_at), which
                # keeps build time and resident memory proportional to the
                # radix table instead of the spline.
                self._uniform_interval = interval
                n = len(self.column)
                base_points = -(-n // interval)
                aligned = interval * (base_points - 1) == n - 1
                self._num_points = base_points if aligned else base_points + 1
                self.spline_keys = None
                self.spline_positions = None
                measured_error = max(1, self.column.hint_error_bound())
            else:
                self.spline_keys, self.spline_positions, measured_error = (
                    uniform_spline(self.column, interval)
                )
            # Report the configured bound, not the (possibly smaller)
            # measured one: a real spline over data this size would search
            # a +-max_error window, and the access pattern should match.
            self.error_bound = max(measured_error, max_error)
        self._build_radix_table()
        self._radix_allocation = None
        self._spline_allocation = None
        self._placed = False

    # ------------------------------------------------------------------
    # Radix table.
    # ------------------------------------------------------------------

    def _spline_position_at(self, indices: np.ndarray) -> np.ndarray:
        """Column position of each spline point (vectorized)."""
        if self._uniform_interval is not None:
            return np.minimum(
                np.asarray(indices, dtype=np.int64) * self._uniform_interval,
                len(self.column) - 1,
            )
        return self.spline_positions[indices]

    def _spline_key_at(self, indices: np.ndarray) -> np.ndarray:
        """Key of each spline point; implicit splines gather on demand."""
        if self._uniform_interval is not None:
            return self.column.key_at(self._spline_position_at(indices))
        return self.spline_keys[indices]

    def _first_point_at(self, rank: np.ndarray) -> np.ndarray:
        """First implicit spline point at or past column position ``rank``.

        Point ``j`` sits at position ``j * interval`` and the last one at
        ``n - 1``, so the answer is ``ceil(rank / interval)`` capped at
        the last point, or ``num_points`` (none) when ``rank == n``.
        Spline keys are column keys, so for a key of lower column rank
        ``rank`` this is the first point whose key is ``>=`` it.
        """
        first = slots_below(
            rank, 0, self._num_points - 1, self._uniform_interval
        )
        return np.where(rank < len(self.column), first, self._num_points)

    def _build_radix_table(self) -> None:
        num_points = self.num_spline_points
        ends = self._spline_key_at(np.asarray([0, num_points - 1]))
        min_key = int(ends[0])
        max_key = int(ends[1])
        span_bits = max(1, (max_key - min_key + 1).bit_length())
        self._min_key = min_key
        self._max_spline_key = max_key
        self._shift = max(0, span_bits - self.radix_bits)
        num_slots = ((max_key - min_key) >> self._shift) + 2
        slots = np.arange(num_slots, dtype=np.int64)
        # table[p] = index of the first spline point with prefix >= p.
        # Prefixes subtract min_key in uint64 before the shift: an int64
        # cast of keys >= 2^63 wraps negative and scrambles the table.
        if self._uniform_interval is None:
            prefixes = (
                (self.spline_keys - np.uint64(min_key))
                >> np.uint64(self._shift)
            ).astype(np.int64)
            self.radix_table = np.searchsorted(
                prefixes, slots, side="left"
            ).astype(np.int64)
            return
        # Implicit spline: a key's prefix is >= p exactly when the key is
        # >= min_key + (p << shift), so slot p points at the first spline
        # point at or past that bound's column rank.  Virtual keys stay
        # below 2^63 and the bounds exceed max_key by at most 2^shift <=
        # 2^62, so they cannot wrap.
        bounds = np.uint64(min_key) + (
            slots.astype(np.uint64) << np.uint64(self._shift)
        )
        self.radix_table = self._first_point_at(
            self.column.bound_positions(bounds)
        ).astype(np.int64)

    @property
    def num_spline_points(self) -> int:
        if self._uniform_interval is not None:
            return self._num_points
        return len(self.spline_keys)

    @property
    def footprint_bytes(self) -> int:
        return (
            len(self.radix_table) * KEY_BYTES
            + self.num_spline_points * _SPLINE_POINT_BYTES
        )

    @property
    def height(self) -> int:
        # radix table -> spline points -> bounded data search
        return 3

    def place(self, memory: SystemMemory) -> None:
        if self.relation.allocation is None:
            raise SimulationError(
                "place the relation before placing its RadixSpline"
            )
        self._radix_allocation = memory.allocate(
            len(self.radix_table) * KEY_BYTES,
            MemorySpace.HOST,
            label="RadixSpline radix table",
        )
        self._spline_allocation = memory.allocate(
            self.num_spline_points * _SPLINE_POINT_BYTES,
            MemorySpace.HOST,
            label="RadixSpline points",
        )
        self._placed = True

    # ------------------------------------------------------------------
    # Traversal.
    # ------------------------------------------------------------------

    def _predict(
        self,
        keys: np.ndarray,
        rank: np.ndarray,
        recorder: Optional[TraceRecorder],
    ) -> np.ndarray:
        """Predicted column position of each key (steps 1-3 of a lookup).

        ``rank`` holds the keys' lower column ranks.  Shared by
        ``_traverse`` (which finishes with the +-error_bound data search)
        and ``_lower_bound`` (which widens the window; see there).  The
        prediction is the piecewise-linear spline evaluated at the probe,
        so it is monotone in the key -- the property the range
        primitive's window-width argument rests on.
        """
        n = len(self.column)
        # 1. Radix table: one read per lookup.  Clamp-then-subtract in
        # uint64: an int64 cast of keys >= 2^63 wraps negative, and a
        # uint64 subtraction below min_key wraps huge -- both scramble
        # the radix slot.
        min_key = np.uint64(self._min_key)
        span = np.uint64(self._max_spline_key - self._min_key)
        clipped = np.where(keys > min_key, keys - min_key, np.uint64(0))
        clipped = np.minimum(clipped, span)
        prefixes = (clipped >> np.uint64(self._shift)).astype(np.int64)
        if recorder is not None:
            recorder.record(
                self._radix_allocation.base + prefixes * KEY_BYTES
            )
        seg_lo = self.radix_table[prefixes]
        seg_hi = self.radix_table[
            np.minimum(prefixes + 1, len(self.radix_table) - 1)
        ]
        seg_hi = np.minimum(
            np.maximum(seg_hi + 1, seg_lo + 1), self.num_spline_points
        )
        # 2. Binary search the partition's spline points for the first
        #    point with key >= probe (the upper interpolation point).  The
        #    search ends at the first such point overall, clamped into
        #    the partition: on an implicit spline it follows from the
        #    lower rank, on a materialized one from one searchsorted.
        if self._uniform_interval is not None:
            first = self._first_point_at(rank)
        else:
            first = np.searchsorted(self.spline_keys, keys, side="left")
        found = np.clip(first, seg_lo, seg_hi)
        if recorder is not None or obs.enabled():
            base = self._spline_allocation.base if recorder is not None else 0
            spline_rounds = replay_bisection(
                seg_lo, seg_hi, found, recorder, base, _SPLINE_POINT_BYTES
            )
            if obs.enabled():
                obs.add(
                    "index.spline_search_rounds",
                    float(spline_rounds),
                    index=self.name,
                )
        upper = np.clip(found, 1, self.num_spline_points - 1)
        lower = upper - 1
        if recorder is not None:
            # Fetch the two surrounding points (often one cacheline).
            recorder.record(
                self._spline_allocation.base + lower * _SPLINE_POINT_BYTES
            )
        # 3. Interpolate.  Deltas are formed in uint64 (exact) before the
        # float conversion; probes below their segment's lower point
        # (out-of-domain keys routed to slot 0) clamp to a zero delta.
        key_low = self._spline_key_at(lower)
        key_high = self._spline_key_at(upper)
        pos_low = self._spline_position_at(lower).astype(np.float64)
        pos_high = self._spline_position_at(upper).astype(np.float64)
        span = np.maximum((key_high - key_low).astype(np.float64), 1.0)
        delta = np.where(
            keys > key_low, keys - key_low, np.uint64(0)
        ).astype(np.float64)
        predicted = pos_low + delta / span * (pos_high - pos_low)
        # Clamp before the int cast: probes far above their segment
        # (out-of-domain keys -- guaranteed misses) can predict past the
        # int64 range, and float->int64 overflow is undefined.
        return clamped_int64(predicted, 0.0, float(n - 1))

    def _traverse(
        self, keys: np.ndarray, recorder: Optional[TraceRecorder]
    ) -> np.ndarray:
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        n = len(self.column)
        lower, upper = self._ranks(keys)
        estimate = self._predict(keys, lower, recorder)
        # 4. Bounded binary search of the data: it ends at the lower rank
        #    clamped into the +-error_bound window.
        search_lo = np.maximum(estimate - self.error_bound, 0)
        search_hi = np.minimum(estimate + self.error_bound + 1, n)
        slot = np.clip(lower, search_lo, search_hi)
        if recorder is not None or obs.enabled():
            base = self.relation.allocation.base if recorder is not None else 0
            data_rounds = replay_bisection(
                search_lo, search_hi, slot, recorder, base
            )
            if obs.enabled():
                obs.add(
                    "index.data_search_rounds",
                    float(data_rounds),
                    index=self.name,
                )
            if recorder is not None:
                in_range = slot < n
                recorder.record(
                    base + np.where(in_range, slot, 0) * KEY_BYTES,
                    active=in_range,
                )
        found = (slot == lower) & (upper > lower)
        return np.where(found, slot, np.int64(-1))

    def _lower_bound(self, keys: np.ndarray) -> np.ndarray:
        """Lower bound via the spline prediction and a *widened* search.

        ``error_bound`` is measured over member keys only.  For an
        absent probe between keys ``k_i < q < k_{i+1}`` the insertion
        point is ``i + 1`` while the monotone prediction lies in
        ``[predicted(k_i), predicted(k_{i+1})] <= [i - e, i + 1 + e]``,
        so the true insertion point is within ``e + 1`` of the
        prediction (out-of-domain probes clamp within the same bound).
        Rounding adds at most one more position; the search window is
        therefore widened to ``error_bound + 2`` on each side, and the
        search ends at the lower rank clamped into it.
        """
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        n = len(self.column)
        lower = self.column.bound_positions(keys)
        estimate = self._predict(keys, lower, None)
        margin = self.error_bound + 2
        return np.clip(
            lower,
            np.maximum(estimate - margin, 0),
            np.minimum(estimate + margin + 1, n),
        )

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
        total = 0.0
        cumulative = 0
        structure_spans = (
            len(self.radix_table) * KEY_BYTES,
            self.num_spline_points * _SPLINE_POINT_BYTES,
        )
        for span in structure_spans:  # repro: noqa[PERF001] -- O(#structures) analytic locality sum, not per-key
            if cumulative + span <= l2_bytes:
                cumulative += span
                continue
            cumulative += span
            total += level_sweep_pages(
                window_lookups=window_lookups,
                span_bytes=span,
                page_bytes=page_bytes,
            )
        # The bounded data search touches a +-error_bound neighbourhood of
        # the true position: effectively one page per lookup region.
        total += level_sweep_pages(
            window_lookups=window_lookups,
            span_bytes=self.column.nbytes,
            page_bytes=page_bytes,
        )
        return total
