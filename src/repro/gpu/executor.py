"""The machine facade: replaying index traversals against the hierarchy.

Index traversals produce a :class:`LookupTrace` -- a step-by-step matrix of
byte addresses with one column per *run* of lookups: adjacent lanes that
probe the same key take the same path, so the trace stores it once together
with the run's lane count.  :class:`MachineModel` replays the trace the way
the GPU would execute it, lane by lane: accesses from concurrently resident
threads interleave round-robin (step-major within waves of
``interleave_width`` lanes), coalesce per warp (which stands in for the
L1), flow through the L2 cache, and -- when they miss to the interconnect
-- through the GPU TLB.  This
interleaving is what makes the paper's TLB thrashing emergent: by the time
a thread issues its next traversal step, thousands of other threads'
accesses have aged its translation out of the LRU (Section 4.1).

The model distinguishes two probe-stream orders:

* random order (the naive INLJ of Section 3): the event-level TLB sim is
  faithful, because random accesses carry no locality a sample could lose;
* partition order (Sections 4-5): samples cannot preserve sweep locality at
  page granularity, so join operators compute TLB misses analytically
  (:mod:`repro.perf.analytic`) and disable the event TLB here.

All methods return *raw, unscaled* counters for the simulated sample;
callers scale by ``SimulationConfig.scale_factor`` and sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import obs
from ..config import DEFAULT_CONFIG, SimulationConfig
from ..errors import ConfigurationError, SimulationError
from ..hardware.counters import PerfCounters
from ..hardware.fastlru import VectorLruTlb, VectorSetAssociativeCache
from ..hardware.memory import SystemMemory
from ..hardware.spec import SystemSpec


@dataclass
class LookupTrace:
    """Memory accesses of a batch of index lookups, one column per run.

    A run is a stretch of adjacent lookups (lanes) that probe the same key
    and therefore touch the same address at every step.  A trace of
    distinct keys has one lane per run.

    Attributes:
        step_addresses: signed-integer matrix of shape (num_steps,
            runs); entry (s, r) is the byte address every lane of run
            ``r`` touches at traversal step ``s``, or -1 if the run's
            lookups finished earlier.
        steps_per_lookup: number of active steps per lookup (int array,
            one entry per lane), consumed by the SIMT cost model.
        run_lengths: lanes per column (positive integers, one per column);
            omitted, every column is one lane.
    """

    step_addresses: np.ndarray
    steps_per_lookup: np.ndarray
    run_lengths: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        matrix = self.step_addresses
        if matrix.ndim != 2:
            raise SimulationError(
                "step_addresses must be (steps, runs), got shape "
                f"{matrix.shape}"
            )
        # -1 marks an inactive lane, so the matrix must be signed.
        if not np.issubdtype(matrix.dtype, np.signedinteger):
            raise SimulationError(
                f"step_addresses must be signed integers, got {matrix.dtype}"
            )
        runs = matrix.shape[1]
        lanes = runs
        if self.run_lengths is not None:
            lengths = np.asarray(self.run_lengths)
            if (
                lengths.shape != (runs,)
                or not np.issubdtype(lengths.dtype, np.integer)
                or (runs and lengths.min() < 1)
            ):
                raise SimulationError(
                    f"run_lengths must be {runs} positive integers, one per "
                    f"column, got {lengths.dtype} of shape {lengths.shape}"
                )
            lanes = int(lengths.sum())
        if len(self.steps_per_lookup) != lanes:
            raise SimulationError(
                "steps_per_lookup length must match the lookup count: "
                f"{len(self.steps_per_lookup)} != {lanes}"
            )
        self.step_addresses = matrix.astype(np.int64, copy=False)
        self.run_lengths = (
            np.ones(runs, dtype=np.int64)
            if self.run_lengths is None
            else lengths
        )

    @property
    def num_lookups(self) -> int:
        """Lanes (lookups) in the batch."""
        return len(self.steps_per_lookup)

    @property
    def num_steps(self) -> int:
        return self.step_addresses.shape[0]

    @property
    def total_accesses(self) -> int:
        """Lane-level accesses: each run's active steps times its lanes."""
        per_run = np.count_nonzero(self.step_addresses >= 0, axis=0)
        return int(per_run @ self.run_lengths)


def _coalesce_lanes(lines: np.ndarray, warp: int) -> tuple:
    """Coalesce a (steps, lanes) wave of line ids; sorts ``lines`` in place.

    Sorts each warp's lanes per step; a lane whose line equals its sorted
    predecessor in the warp coalesces away, and negative (inactive) lanes
    drop out.  Boolean extraction walks the array in C order -- (step,
    warp, lane) -- which is the transaction order.  Returns ``(lines,
    issued)``.
    """
    steps, lanes = lines.shape
    padded_width = -(-lanes // warp) * warp
    if padded_width != lanes:
        # Pad the whole wave once, not once per step.
        padded = np.full((steps, padded_width), -1, dtype=np.int64)
        padded[:, :lanes] = lines
        lines = padded
    by_warp = lines.reshape(-1, warp)
    by_warp.sort(axis=1)
    flat = by_warp.reshape(-1)
    active = flat >= 0
    issued = int(np.count_nonzero(active))
    first = np.empty_like(active)
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    first.reshape(-1, warp)[:, 0] = True
    first &= active
    del active
    return flat[first], issued


def _coalesce_pairs(
    lines: np.ndarray, run_lanes: np.ndarray, first_warp: np.ndarray,
    warps_covered: np.ndarray,
) -> tuple:
    """Coalesce a (steps, runs) wave of line ids without expanding lanes.

    Run ``r`` spans ``run_lanes[r]`` lanes over warps ``first_warp[r]`` up
    to ``first_warp[r] + warps_covered[r] - 1``.  Every lane a run puts in
    a warp touches the run's line, so one (warp, run) pair stands for all
    of them and the output equals :func:`_coalesce_lanes` over the
    lane-expanded wave.  Returns ``(lines, issued)``.
    """
    steps = lines.shape[0]
    warps = int(first_warp[-1] + warps_covered[-1])
    pair_starts = np.cumsum(warps_covered) - warps_covered
    pair_run = np.repeat(np.arange(len(first_warp)), warps_covered)
    pair_warp = np.arange(len(pair_run)) - np.repeat(
        pair_starts - first_warp, warps_covered
    )
    issued = int(np.count_nonzero(lines >= 0, axis=0) @ run_lanes)
    pair_lines = lines[:, pair_run]
    active = pair_lines >= 0
    values = pair_lines[active]
    segments = np.add.outer(
        np.arange(steps, dtype=np.int64) * warps, pair_warp
    )[active]
    same = segments[1:] == segments[:-1]
    descending = same & (values[1:] < values[:-1])
    if descending.any():
        # Runs are usually in line order already (sorted keys walk
        # monotone paths); sort only the (step, warp) segments that are
        # not.  Segments are contiguous, so sorting their entries by
        # (segment, line) leaves each one in its own slots.
        unsorted = np.zeros(steps * warps, dtype=bool)
        unsorted[segments[1:][descending]] = True
        slots = np.flatnonzero(unsorted[segments])
        order = np.lexsort((values[slots], segments[slots]))
        values[slots] = values[slots[order]]
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = ~same | (values[1:] != values[:-1])
    return values[keep], issued


class MachineModel:
    """One simulated machine instance: memory spaces plus an L2 and a TLB.

    The hierarchy is empty between calls: :meth:`simulate_lookups` replays
    each trace on a cold L2 and TLB and empties them before returning.
    """

    def __init__(
        self, spec: SystemSpec, sim: SimulationConfig = DEFAULT_CONFIG
    ):
        self.spec = spec
        self.sim = sim
        self.memory = SystemMemory(spec)
        gpu = spec.gpu
        self.l2 = VectorSetAssociativeCache(
            gpu.l2_bytes, gpu.cacheline_bytes, ways=16
        )
        self.tlb = VectorLruTlb(spec.tlb_entries)
        # Name the hierarchy levels for observability: a named model emits
        # ``model.<name>.*`` counters from its batch entry points.  The
        # VectorLruTlb's inner VectorLruCache stays unnamed on purpose --
        # naming it would double-count every TLB access.
        self.l2.obs_name = "l2"
        self.tlb.obs_name = "tlb"
        if gpu.cacheline_bytes & (gpu.cacheline_bytes - 1) != 0:
            raise ConfigurationError(
                f"cacheline size must be a power of two, got {gpu.cacheline_bytes}"
            )
        if gpu.tlb_entry_bytes & (gpu.tlb_entry_bytes - 1) != 0:
            raise ConfigurationError(
                f"TLB entry granule must be a power of two, got "
                f"{gpu.tlb_entry_bytes}"
            )
        self._line_shift = gpu.cacheline_bytes.bit_length() - 1
        self._page_shift = gpu.tlb_entry_bytes.bit_length() - 1

    # ------------------------------------------------------------------
    # Event-level simulation.
    # ------------------------------------------------------------------

    def coalesced_lines(self, trace: LookupTrace) -> tuple:
        """Flatten a trace into GPU transaction order with warp coalescing.

        Waves of ``sim.interleave_width`` lookups run concurrently; within a
        wave, step s of every lookup precedes step s+1 of any lookup
        (round-robin).  Lanes of one warp (32 consecutive lookups) that
        touch the same cacheline in the same step *coalesce* into a single
        memory transaction -- the mechanism that makes partition-ordered
        lookups cheap (Section 4.1 cites Harmonia's coalesced accesses
        after sorting).  Inactive entries (-1) are dropped.

        Returns ``(lines, issued)``: the cacheline-id transaction stream
        and the number of lane-level accesses it represents.

        A warp issues, per step, the distinct lines of the runs its lanes
        cover, so each wave picks the cheaper of two layouts with the same
        output: a wave whose warps cover few runs coalesces its (warp, run)
        pairs directly, and any other wave sorts its lanes warp by warp.
        """
        lanes = trace.num_lookups
        if trace.num_steps == 0 or lanes == 0:
            return np.empty(0, dtype=np.int64), 0
        width = self.sim.interleave_width
        warp = self.spec.gpu.warp_size
        matrix = trace.step_addresses
        # Lane count at the end of each run; not needed without runs.
        run_ends = None
        if matrix.shape[1] != lanes:
            run_ends = np.cumsum(trace.run_lengths)
        parts = []
        issued = 0
        for start in range(0, lanes, width):
            stop = min(start + width, lanes)
            first, last = start, stop - 1
            if run_ends is not None:
                first, last = np.searchsorted(
                    run_ends, (start, stop - 1), side="right"
                )
            # -1 (inactive) stays negative under the arithmetic shift.
            lines = matrix[:, first : last + 1] >> self._line_shift
            if lines.shape[1] == stop - start:
                part, count = _coalesce_lanes(lines, warp)
            else:
                # Lane span [begin, end) of each of the wave's runs.
                end = np.minimum(run_ends[first : last + 1], stop) - start
                begin = np.concatenate(([0], end[:-1]))
                first_warp = begin // warp
                warps_covered = (end - 1) // warp - first_warp + 1
                # The pair layout overtakes the lane sort between 0.58 and
                # 0.77 pairs per lane on sorted waves (DESIGN.md §10).
                if 2 * int(warps_covered.sum()) <= stop - start:
                    part, count = _coalesce_pairs(
                        lines, end - begin, first_warp, warps_covered
                    )
                else:
                    lane_run = np.repeat(np.arange(len(end)), end - begin)
                    part, count = _coalesce_lanes(lines[:, lane_run], warp)
            parts.append(part)
            issued += count
        stream = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return stream, issued

    def simulate_lookups(
        self,
        trace: LookupTrace,
        simulate_tlb: bool = True,
        shuffle: bool = False,
    ) -> PerfCounters:
        """Replay a trace: warp coalescing -> L2 -> interconnect (-> TLB).

        Coalesced lane accesses count as ``l1_hits`` (they are satisfied
        within the SM, like the L1 hits the paper discusses); surviving
        transactions go through the L2, and L2 misses go remote.  Returns
        raw counters for the trace, replayed on a cold hierarchy; nothing
        of the replay stays behind.  ``simulate_tlb=False`` skips the event
        TLB (partition-ordered streams account for the TLB analytically;
        see module docstring) -- remote accesses are still counted.

        ``shuffle=True`` randomizes transaction order after coalescing.
        Use it for random-order (naive) probes: real warps progress at
        independent rates, so the TLB sees a mix of all traversal levels
        at once; replaying steps in lockstep would let mid-size levels
        enjoy artificial within-step TLB residency.

        When tracing is on (:mod:`repro.obs`), each call emits one
        ``replay.simulate`` span plus ``replay.*`` counters sourced from
        the very :class:`PerfCounters` returned, so traced counters equal
        the returned ones exactly.

        Each stage drops its input once the next one owns the data
        (DESIGN.md §10, *Working set*): the trace after coalescing, the
        stream after the L2.  A caller that passes the trace as a
        temporary leaves the replay its only reference, so the step
        matrix is freed before the L2 runs.
        """
        lookups = trace.num_lookups
        # Hand the trace on without keeping a reference in this frame.
        traces = [trace]
        del trace
        if not obs.enabled():
            return self._replay(traces.pop(), simulate_tlb, shuffle)
        with obs.span(
            "replay.simulate", lookups=lookups, event_tlb=simulate_tlb
        ):
            counters = self._replay(traces.pop(), simulate_tlb, shuffle)
        obs.add("replay.batches")
        obs.add_perf_counters("replay", counters)
        return counters

    def _replay(
        self, trace: LookupTrace, simulate_tlb: bool, shuffle: bool
    ) -> PerfCounters:
        counters = PerfCounters()
        counters.lookups = float(trace.num_lookups)
        stream, issued = self.coalesced_lines(trace)
        del trace
        counters.memory_accesses = float(issued)
        if len(stream) == 0:
            return counters
        if shuffle:
            # ``rng.permutation``'s draw, applied in place: the stream is
            # fresh, so nothing else sees it move.
            np.random.default_rng(self.sim.seed ^ 0x5A).shuffle(stream)
        transactions = len(stream)
        tlb_misses = 0
        try:
            l2_hit_mask = self.l2.access_batch(stream)
            # The L2 folds from ``stream`` until it is reset, and nothing
            # reads its end state: reset it now, so the stream goes before
            # the TLB stage.
            self.l2.reset()
            l2_hits = int(np.count_nonzero(l2_hit_mask))
            remote = transactions - l2_hits
            if simulate_tlb and remote:
                pages = stream[~l2_hit_mask]
                del stream, l2_hit_mask
                pages >>= self._page_shift - self._line_shift
                tlb_hit_mask = self.tlb.access_batch(pages)
                tlb_misses = remote - int(np.count_nonzero(tlb_hit_mask))
            counters.tlb_cold_misses = float(self.tlb.cold_misses)
        finally:
            # Nothing reads the end state.  Dropping it keeps an idle
            # machine small and lets the next call start cold.
            self.l2.reset()
            self.tlb.reset()
        counters.l1_hits = float(issued - transactions)
        counters.l2_hits = float(l2_hits)
        counters.remote_accesses = float(remote)
        counters.remote_bytes = float(remote * self.spec.gpu.cacheline_bytes)
        counters.tlb_misses = float(tlb_misses)
        counters.translation_requests = (
            tlb_misses * self.spec.gpu.tlb_replay_factor
        )
        return counters

    def scale_lookup_counters(
        self,
        raw: PerfCounters,
        target_lookups: float,
        replay_factor: Optional[float] = None,
    ) -> PerfCounters:
        """Extrapolate a sampled lookup simulation to ``target_lookups``.

        Everything scales linearly with the lookup count except cold
        (first-touch) TLB misses: the page universe is fixed, so those are
        a one-off cost of the whole query, not of each sampled lookup.
        Capacity misses -- the thrashing signal -- scale linearly.

        ``replay_factor`` overrides the GPU default: divergent warps
        replay translations per distinct page their lanes touch, so the
        factor depends on the index's traversal style (see
        ``Index.tlb_replay_factor``).
        """
        if raw.lookups <= 0:
            raise SimulationError("raw counters contain no lookups to scale")
        if target_lookups < raw.lookups:
            raise SimulationError(
                f"target {target_lookups} is smaller than the sample "
                f"{raw.lookups}"
            )
        if replay_factor is None:
            replay_factor = self.spec.gpu.tlb_replay_factor
        scale = target_lookups / raw.lookups
        scaled = raw.scaled(scale)
        steady_misses = max(0.0, raw.tlb_misses - raw.tlb_cold_misses)
        scaled.tlb_misses = steady_misses * scale + raw.tlb_cold_misses
        scaled.tlb_cold_misses = raw.tlb_cold_misses
        scaled.translation_requests = scaled.tlb_misses * replay_factor
        return scaled

    # ------------------------------------------------------------------
    # Bulk-traffic counter builders (no event simulation needed).
    # ------------------------------------------------------------------

    def scan_counters(self, num_bytes: float) -> PerfCounters:
        """Sequential bulk read from host memory over the interconnect.

        Table scans and window ingests use streaming transfers that the
        paper's baseline relies on; they prefetch linearly, so the TLB is
        not stressed ("its table scan is not subject to frequent TLB
        misses", Section 4.3.1).
        """
        if num_bytes < 0:
            raise SimulationError(f"scan bytes must be non-negative: {num_bytes}")
        counters = PerfCounters()
        counters.scan_bytes = float(num_bytes)
        counters.remote_bytes = float(num_bytes)
        return counters

    def gpu_random_counters(
        self, num_accesses: float, bytes_per_access: float = 32.0
    ) -> PerfCounters:
        """Random accesses to GPU device memory (hash probes, scatters).

        GPU memory transacts in 32-byte sectors; a random 8-16 byte touch
        still moves one sector.
        """
        if num_accesses < 0:
            raise SimulationError(
                f"access count must be non-negative: {num_accesses}"
            )
        counters = PerfCounters()
        counters.gpu_memory_accesses = float(num_accesses)
        counters.gpu_memory_bytes = float(num_accesses * bytes_per_access)
        return counters

    def result_counters(self, num_bytes: float) -> PerfCounters:
        """Join-result materialization into GPU memory (Section 3.2)."""
        if num_bytes < 0:
            raise SimulationError(f"result bytes must be non-negative: {num_bytes}")
        counters = PerfCounters()
        counters.result_bytes = float(num_bytes)
        counters.gpu_memory_bytes = float(num_bytes)
        return counters

    def analytic_tlb_counters(
        self, misses: float, replay_factor: Optional[float] = None
    ) -> PerfCounters:
        """Wrap an analytically computed TLB miss count in counters."""
        if misses < 0:
            raise SimulationError(f"miss count must be non-negative: {misses}")
        if replay_factor is None:
            replay_factor = self.spec.gpu.tlb_replay_factor
        counters = PerfCounters()
        counters.tlb_misses = float(misses)
        counters.translation_requests = misses * replay_factor
        return counters
