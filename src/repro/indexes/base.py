"""Shared index interface and trace recording.

Every index implements one traversal routine, ``_traverse``, used two ways:

* ``lookup(keys)`` and ``probe_batch`` run it without a recorder -- a
  pure, vectorized functional lookup usable at any scale;
* ``trace_lookups(keys)`` runs the same code with a
  :class:`TraceRecorder`, capturing the byte address of every memory
  access so the machine model can replay it.

One code path for both guarantees the simulated access pattern is exactly
the access pattern of the functional algorithm, which is the property the
whole reproduction rests on.

Traversals are *rank-first*.  A search step compares a slot's column key
with the probe, and ``key[p] < probe`` holds exactly when ``p`` lies below
the probe's lower column rank (``key[p] <= probe``: below its upper rank).
So each traversal computes the two ranks once per batch
(:meth:`Index._ranks`), derives every slot it would have found by integer
arithmetic (:func:`slots_below`), and, only when recording or counting
search rounds, replays the bisection mids that lead to each slot
(:func:`replay_bisection`): a bisection's path is a function of its result.

The binary search, the B+tree and Harmonia end on the lower rank, so
without a recorder they answer from the ranks alone -- a probe is a
member exactly when its upper rank exceeds its lower one, and the lower
rank is then its position -- and their descents run only to record.  The
RadixSpline keeps its error-window check: its spline prediction, not the
ranks, decides where its search may end.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import obs
from ..data.column import KEY_DTYPE
from ..data.relation import Relation
from ..errors import SimulationError
from ..gpu.executor import LookupTrace
from ..gpu.simt import SimtCost, divergent_cost
from ..hardware.counters import PerfCounters
from ..hardware.memory import SystemMemory
from ..units import KEY_BYTES


#: The largest key; node slots past the data hold it as padding.
MAX_KEY = np.uint64(np.iinfo(np.uint64).max)


def slots_below(
    rank: np.ndarray, first: np.ndarray, width: int, stride: int = 1
) -> np.ndarray:
    """How many of a node's ``width`` slots lie below ``rank``.

    Slot ``s`` of the node holds the column key at position
    ``(first + s) * stride``.  Positions grow with ``s``, so the slots
    whose key compares below the probe are a prefix, and ``(first + s) *
    stride < rank`` exactly when ``first + s < ceil(rank / stride)``.
    """
    return np.clip(-(-rank // stride) - first, 0, width)


def padded_upper(keys: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Upper ranks for counting node slots ``<=`` the probe.

    Slots past the data hold :data:`MAX_KEY`, which a MAX probe compares
    at or above as well: its rank reaches past every slot.
    """
    return np.where(keys == MAX_KEY, np.iinfo(np.int64).max, upper)


def replay_bisection(
    lo: np.ndarray,
    hi: np.ndarray,
    final: np.ndarray,
    recorder: Optional["TraceRecorder"] = None,
    base=0,
    stride: int = KEY_BYTES,
) -> int:
    """Replay the bisections of ``[lo, hi)`` that end at ``final``.

    A bisection over a monotone comparison (``key < probe`` or ``key <=
    probe``) moves right at ``mid`` exactly when ``mid`` lies below the
    slot it ends at, so its mids follow from ``final`` alone, with integer
    compares and no key reads.  With a recorder,
    each round records ``base + mid * stride`` for the lanes still
    searching.  Returns the number of rounds, the longest lane's path.
    """
    lo, hi = np.broadcast_arrays(lo, hi, final)[:2]
    active = lo < hi
    rounds = 0
    while active.any():
        rounds += 1
        mid = (lo + hi) >> 1
        if recorder is not None:
            recorder.record(base + mid * stride, active=active)
        # Finished lanes have lo == hi == final, so they stay put.
        right = mid < final
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
        active = lo < hi
    return rounds


class TraceRecorder:
    """Collects per-step access addresses during a traversal.

    Each call to :meth:`record` adds one traversal step: an int64 address
    array of length ``num_lookups`` with -1 marking lookups that are
    inactive at that step.
    """

    def __init__(self, num_lookups: int):
        if num_lookups <= 0:
            raise SimulationError(
                f"recorder needs a positive lookup count, got {num_lookups}"
            )
        self.num_lookups = num_lookups
        self._steps = []

    def record(
        self, addresses: np.ndarray, active: Optional[np.ndarray] = None
    ) -> None:
        """Record one step.  ``active`` masks lookups participating in it."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.shape != (self.num_lookups,):
            raise SimulationError(
                f"step must have shape ({self.num_lookups},), got "
                f"{addresses.shape}"
            )
        if active is not None:
            addresses = np.where(active, addresses, np.int64(-1))
        self._steps.append(addresses)

    @property
    def num_steps(self) -> int:
        return len(self._steps)

    def build(self, run_lengths: Optional[np.ndarray] = None) -> LookupTrace:
        """Assemble the recorded steps into a :class:`LookupTrace`.

        ``run_lengths`` gives the lanes each recorded lookup stands for
        (see :meth:`Index.trace_lookups`); omitted, one lane each.
        """
        if not self._steps:
            matrix = np.empty((0, self.num_lookups), dtype=np.int64)
        else:
            matrix = np.stack(self._steps, axis=0)
        steps_per_lookup = (matrix >= 0).sum(axis=0).astype(np.int64)
        if run_lengths is not None:
            steps_per_lookup = np.repeat(steps_per_lookup, run_lengths)
        return LookupTrace(
            step_addresses=matrix,
            steps_per_lookup=steps_per_lookup,
            run_lengths=run_lengths,
        )


@dataclass
class LookupResult:
    """Outcome of a traced lookup batch.

    Attributes:
        positions: per-key position in the indexed column, -1 if absent.
        trace: the recorded memory accesses.
        simt: warp-instruction cost of executing the batch.
    """

    positions: np.ndarray
    trace: LookupTrace
    simt: SimtCost


def traced_build(init):
    """Run an index constructor inside one ``index.build`` span.

    The span carries the index name and the column's key count; while
    tracing is off it is the shared no-op span.
    """

    @functools.wraps(init)
    def build(self, relation: Relation, *args, **kwargs) -> None:
        with obs.span(
            "index.build", index=self.name, keys=len(relation.column)
        ):
            init(self, relation, *args, **kwargs)

    return build


class Index(abc.ABC):
    """A secondary index over a relation's sorted key column.

    Lifecycle: construct over a relation (builds the logical structure),
    optionally :meth:`place` it into simulated host memory (reserves
    capacity and fixes addresses), then :meth:`lookup` or
    :meth:`trace_lookups`.

    Class attribute ``name`` labels figures; ``supports_updates`` records
    the paper's Section 6 guidance (Harmonia and the B+tree can absorb
    inserts; binary search and the RadixSpline assume static data).

    ``tlb_replay_factor`` converts last-level-TLB misses into the
    *translation requests* the paper's hardware counters report.  A single
    miss fans out into several requests on real hardware (divergent warps
    replay memory instructions per distinct page, and the uTLB hierarchy
    re-requests); the per-index factors are calibrated against the paper's
    Fig. 4 anchors (~105 requests/key for binary search, ~11.3 for
    Harmonia, at 111 GiB) and absorb TLB-hierarchy effects the single-level
    LRU model does not capture.
    """

    name: str = "index"
    supports_updates: bool = False
    tlb_replay_factor: float = 6.0
    #: Whether every lookup entry point reports ``index.node_visits``: one
    #: node per level, ``height`` per lookup.
    reports_node_visits: bool = False

    def __init__(self, relation: Relation):
        self.relation = relation
        self.column = relation.column

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------

    @property
    @abc.abstractmethod
    def footprint_bytes(self) -> int:
        """Memory consumed by the index structure, excluding the data."""

    @property
    @abc.abstractmethod
    def height(self) -> int:
        """Number of structure levels a lookup traverses."""

    @abc.abstractmethod
    def place(self, memory: SystemMemory) -> None:
        """Allocate the index structure in simulated host memory.

        The paper stores all index structures in CPU memory and accesses
        them over the interconnect (Section 3.2).  Raises
        :class:`~repro.errors.CapacityError` when the structure does not
        fit -- which is exactly how the paper's B+tree and Harmonia hit
        their reduced R limits.
        """

    @property
    def is_placed(self) -> bool:
        return getattr(self, "_placed", False)

    def _require_placed(self) -> None:
        if not self.is_placed:
            raise SimulationError(
                f"{self.name} must be placed in simulated memory before "
                "tracing lookups"
            )

    # ------------------------------------------------------------------
    # Lookups.
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _traverse(
        self, keys: np.ndarray, recorder: Optional[TraceRecorder]
    ) -> np.ndarray:
        """Locate ``keys``; optionally record accesses.  Returns positions."""

    def _ranks(self, keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Lower and upper column rank of each probe key.

        Column keys are unique, so the upper rank is the lower one plus
        one for a member: one key read at the lower rank decides it.  A
        probe is a member exactly when its upper rank exceeds its lower
        one, and then the lower rank is its position.
        """
        lower = self.column.bound_positions(keys)
        inside = lower < len(self.column)
        member = inside & (self.column.key_at(np.where(inside, lower, 0)) == keys)
        return lower, lower + member

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Functional lookup: position of each key in the column, -1 if absent."""
        keys = np.asarray(keys)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int64)
        if obs.enabled():
            obs.add("index.lookups", float(len(keys)), index=self.name)
            obs.add("index.lookup_batches", index=self.name)
            self._add_node_visits(len(keys))
        return self._traverse(keys, recorder=None)

    def _add_node_visits(self, lanes: int) -> None:
        """Count the node visits of ``lanes`` lookups."""
        if self.reports_node_visits:
            obs.add(
                "index.node_visits",
                float(lanes * self.height),
                index=self.name,
            )

    # ------------------------------------------------------------------
    # Fused batch probes.
    # ------------------------------------------------------------------

    def probe_batch(
        self, keys: np.ndarray, out: np.ndarray, offset: int = 0
    ) -> PerfCounters:
        """Fused batch probe into a caller-owned output buffer.

        Writes the position of each key (-1 on miss) into
        ``out[offset : offset + len(keys)]`` -- no result allocation, no
        concatenation -- and returns the batch's fused
        :class:`PerfCounters` delta.  The counters are *structural*
        (``lookups`` and a height-based access count), derived only from
        the batch size and the index geometry; replayed cache/TLB
        counters remain the job of :meth:`trace_lookups`.
        """
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        count = len(keys)
        if out.ndim != 1 or out.dtype != np.int64:
            raise SimulationError(
                f"probe_batch needs a 1-D int64 output buffer, got "
                f"{out.ndim}-D {out.dtype}"
            )
        if offset < 0 or offset + count > len(out):
            raise SimulationError(
                f"output window [{offset}, {offset + count}) exceeds the "
                f"buffer of {len(out)} positions"
            )
        if count == 0:
            return PerfCounters()
        if obs.enabled():
            with obs.span("index.probe_batch", index=self.name,
                          lookups=count):
                positions = self._traverse(keys, recorder=None)
            obs.add("index.batch_lookups", float(count), index=self.name)
            obs.add("index.batch_kernels", index=self.name)
            self._add_node_visits(count)
        else:
            positions = self._traverse(keys, recorder=None)
        out[offset : offset + count] = positions
        return self._batch_counters(count)

    def _batch_counters(self, count: int) -> PerfCounters:
        """Structural fused-counter delta for a batch of ``count`` keys."""
        return PerfCounters(
            lookups=float(count),
            memory_accesses=float(count * self.height),
            # int64 positions are key-sized (8 B each).
            result_bytes=float(count * KEY_BYTES),
        )

    # ------------------------------------------------------------------
    # Fused range probes (non-equi joins).
    # ------------------------------------------------------------------

    def _lower_bound(self, keys: np.ndarray) -> np.ndarray:
        """First column position with key >= probe; ``len(column)`` if none.

        The non-equi range primitive under :meth:`probe_range_batch`: the
        probe's lower rank, where the binary search's bisection and the
        trees' dense-packed descents end.  An index whose search can stop
        elsewhere (the RadixSpline's error window) overrides it.
        """
        return self.column.bound_positions(np.asarray(keys, dtype=KEY_DTYPE))

    def _range_bounds(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-key [start, end) span of column keys in ``[lo, hi]``.

        ``start`` is the lower bound of ``lo``; ``end`` is the upper
        bound of ``hi`` (its lower bound plus an equality bump, exact
        because column keys are unique).  Inverted inputs (``lo > hi``)
        produce the empty span ``[start, start)``.
        """
        n = len(self.column)
        starts = self._lower_bound(lo)
        ends = self._lower_bound(hi)
        in_range = ends < n
        safe = np.where(in_range, ends, 0)
        ends = ends + (in_range & (self.column.key_at(safe) == hi)).astype(
            np.int64
        )
        return starts, np.maximum(ends, starts)

    def probe_range_batch(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        out_start: np.ndarray,
        out_end: np.ndarray,
        offset: int = 0,
    ) -> PerfCounters:
        """Fused batch range probe into caller-owned span buffers.

        Writes, for each key pair, the half-open span ``[start, end)``
        of column positions whose keys fall in ``[lo[i], hi[i]]`` into
        ``out_start[offset : offset + count]`` /
        ``out_end[offset : offset + count]``, and returns the batch's
        structural :class:`PerfCounters` delta (two bound traversals per
        pair, so twice :meth:`probe_batch`'s access count).
        """
        lo = np.asarray(lo, dtype=KEY_DTYPE)
        hi = np.asarray(hi, dtype=KEY_DTYPE)
        count = len(lo)
        if len(hi) != count:
            raise SimulationError(
                f"range bounds must have equal length: {count} != {len(hi)}"
            )
        for buffer, label in ((out_start, "start"), (out_end, "end")):  # repro: noqa[PERF001] -- two-element argument validation, not per-key work
            if buffer.ndim != 1 or buffer.dtype != np.int64:
                raise SimulationError(
                    f"probe_range_batch needs 1-D int64 {label} buffers, "
                    f"got {buffer.ndim}-D {buffer.dtype}"
                )
            if offset < 0 or offset + count > len(buffer):
                raise SimulationError(
                    f"output window [{offset}, {offset + count}) exceeds "
                    f"the {label} buffer of {len(buffer)} positions"
                )
        if count == 0:
            return PerfCounters()
        if obs.enabled():
            with obs.span("index.probe_range_batch", index=self.name,
                          lookups=count):
                starts, ends = self._range_bounds(lo, hi)
            obs.add("index.range_lookups", float(count), index=self.name)
            obs.add("index.range_kernels", index=self.name)
        else:
            starts, ends = self._range_bounds(lo, hi)
        out_start[offset : offset + count] = starts
        out_end[offset : offset + count] = ends
        return self._range_batch_counters(count)

    def _range_batch_counters(self, count: int) -> PerfCounters:
        """Structural fused-counter delta for ``count`` range probes.

        A range probe runs two bound traversals (lo and hi) and writes
        two int64 span endpoints per pair.
        """
        return PerfCounters(
            lookups=float(count),
            memory_accesses=float(2 * count * self.height),
            result_bytes=float(2 * count * KEY_BYTES),
        )

    def trace_lookups(self, keys: np.ndarray) -> LookupResult:
        """Lookup with full access tracing for the machine model.

        Each run of equal adjacent keys is traversed once: a traversal
        computes every lane from its own key alone, so the lanes of a run
        share their head's path and position.  The trace keeps one column
        per run plus the run lengths; positions and ``steps_per_lookup``
        are expanded back to one entry per lane.
        """
        self._require_placed()
        keys = np.asarray(keys)
        if keys.ndim != 1:
            raise SimulationError(
                f"lookup keys must be a 1-D batch, got shape {keys.shape}"
            )
        lanes = len(keys)
        if lanes == 0:
            raise SimulationError("cannot trace an empty lookup batch")
        with obs.span("index.probe", index=self.name, lookups=lanes) as probe:
            distinct = keys[1:] != keys[:-1]
            run_lengths = None
            if not distinct.all():  # some key repeats its predecessor
                heads = np.concatenate(([0], np.flatnonzero(distinct) + 1))
                run_lengths = np.diff(heads, append=lanes)
                keys = keys[heads]
            recorder = TraceRecorder(len(keys))
            positions = self._traverse(keys, recorder=recorder)
            trace = recorder.build(run_lengths)
            if run_lengths is not None:
                positions = np.repeat(positions, run_lengths)
            simt = self._simt_cost(trace.steps_per_lookup)
            probe.set("steps", trace.num_steps)
        if obs.enabled():
            self._add_node_visits(lanes)
            obs.add("index.traced_lookups", float(lanes), index=self.name)
            obs.add(
                "index.trace_accesses",
                float(trace.total_accesses),
                index=self.name,
            )
            obs.add("index.trace_steps", float(trace.num_steps), index=self.name)
        return LookupResult(positions=positions, trace=trace, simt=simt)

    def _simt_cost(self, steps_per_lookup: np.ndarray) -> SimtCost:
        """SIMT accounting; one thread per lookup unless overridden."""
        return divergent_cost(steps_per_lookup, warp_size=32)

    # ------------------------------------------------------------------
    # Analytic locality (partition-ordered TLB model; see
    # repro.perf.analytic for why this is closed-form).
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def expected_sweep_pages(
        self,
        window_lookups: float,
        page_bytes: int,
        l2_bytes: int,
        cacheline_bytes: int,
    ) -> float:
        """Expected distinct TLB pages touched by one partition-ordered
        window of ``window_lookups`` lookups."""
