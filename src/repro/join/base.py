"""Join plumbing: results, reference join, and the query environment.

:class:`QueryEnvironment` wires together everything a simulated query run
needs -- the machine model, the placed relations and index, the cost model,
and the sampling configuration -- mirroring the paper's methodology
(Section 3.2): the index already exists when the query runs, R and S and
all index structures live in CPU memory, results materialize into GPU
memory, and throughput covers the entire query run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Type

import numpy as np

from ..config import DEFAULT_CONFIG, SimulationConfig
from ..data.column import Column, KEY_DTYPE
from ..data.generator import (
    ProbeSet,
    WorkloadConfig,
    make_build_relation,
    make_ordered_probe_sample,
    make_probe_keys,
)
from ..errors import WorkloadError
from ..gpu.executor import MachineModel
from ..hardware.counters import PerfCounters
from ..hardware.memory import MemorySpace
from ..hardware.spec import SystemSpec
from ..indexes.base import Index
from ..indexes.domain import saturating_band
from ..perf.model import CalibrationConstants, CostModel, DEFAULT_CALIBRATION
from ..units import KEY_BYTES

#: Bytes per materialized join-result pair (probe index + build position).
RESULT_PAIR_BYTES = 16


@dataclass
class JoinResult:
    """Pairs produced by an equi-join of S against R.

    Attributes:
        probe_indices: index of the S tuple of each pair.
        build_positions: position of the matching R tuple.
    """

    probe_indices: np.ndarray
    build_positions: np.ndarray

    def __post_init__(self) -> None:
        if len(self.probe_indices) != len(self.build_positions):
            raise WorkloadError(
                "result arrays must have equal length: "
                f"{len(self.probe_indices)} != {len(self.build_positions)}"
            )

    def __len__(self) -> int:
        return len(self.probe_indices)

    def canonical(self) -> "JoinResult":
        """Pairs in canonical ``(probe index, build position)`` order.

        The one order every cross-algorithm comparison uses.  The
        secondary sort on build position makes the order well-defined
        for multi-match results too (band joins emit several
        pairs per probe); equi-joins over unique keys are the
        one-pair-per-probe special case.
        """
        order = np.lexsort((self.build_positions, self.probe_indices))
        return JoinResult(
            probe_indices=self.probe_indices[order],
            build_positions=self.build_positions[order],
        )

    def equals(self, other: "JoinResult") -> bool:
        """Multiset equality regardless of pair order.

        Compares the canonical forms element-wise, so results with
        several matches per probe key (band joins) compare exactly;
        no single-match assumption is made.
        """
        mine = self.canonical()
        theirs = other.canonical()
        return bool(
            np.array_equal(mine.probe_indices, theirs.probe_indices)
            and np.array_equal(mine.build_positions, theirs.build_positions)
        )


def expand_spans(
    sources: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple:
    """Flatten per-probe ``[start, end)`` spans into (probe, position) pairs.

    Fully vectorized: each source index repeats once per position in its
    span, positions increase within a span, and spans are emitted in
    source order -- so the output of sorted inputs is already canonical.
    Inverted spans (``end < start``) count as empty.
    """
    sources = np.asarray(sources, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    lengths = np.maximum(ends - starts, 0)
    total = int(lengths.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    probe = np.repeat(sources, lengths)
    # Per-span arange via the cumsum-offset trick: a global arange minus
    # each element's span start index, plus the span's column offset.
    span_begins = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(lengths)[:-1])
    )
    within = np.arange(total, dtype=np.int64) - np.repeat(span_begins, lengths)
    return probe, np.repeat(starts, lengths) + within


def reference_join(
    column: Column, probe_keys: np.ndarray, epsilon: int = 0
) -> JoinResult:
    """Brute-force ground-truth join of probe keys against a column.

    With ``epsilon == 0`` this is the equi-join oracle; with a positive
    ``epsilon`` it is the band-join oracle, emitting every (s, r) pair
    with ``|s.key - r.key| <= epsilon`` (saturating at the uint64 domain
    edges).  Earlier revisions computed one ``rank_of`` per probe and so
    could not express multi-match results at all; the span formulation
    subsumes that behaviour exactly -- over unique keys an ``epsilon=0``
    span has width 1 for a member and 0 otherwise.
    """
    probe_keys = np.atleast_1d(np.asarray(probe_keys, dtype=KEY_DTYPE))
    lo, hi = saturating_band(probe_keys, epsilon)
    starts = column.bound_positions(lo, side="left")
    ends = column.bound_positions(hi, side="right")
    sources = np.arange(len(probe_keys), dtype=np.int64)
    probe, positions = expand_spans(sources, starts, ends)
    return JoinResult(probe_indices=probe, build_positions=positions)


def require_1d(probe_keys: np.ndarray) -> np.ndarray:
    """``probe_keys`` as an array; rejects any shape but one dimension."""
    probe_keys = np.asarray(probe_keys)
    if probe_keys.ndim != 1:
        raise WorkloadError(
            f"probe keys must be one-dimensional, got {probe_keys.ndim}"
        )
    return probe_keys


def sampled_lookup_counters(
    machine: MachineModel,
    index: Index,
    keys: np.ndarray,
    lookups: float,
    random_order: bool,
) -> PerfCounters:
    """Counters of ``lookups`` index traversals, priced from a traced sample.

    The sampled-probe estimator under every INLJ variant, the non-equi
    joins and the shard calibration: trace ``keys`` through ``index``,
    replay the trace on a cold hierarchy, attach the SIMT counters and
    scale the sample to ``lookups`` with the index's replay factor.  A
    random-order sample (the naive probes of Section 3) replays through
    the event TLB with its transactions shuffled; an ordered sample
    (partition order, Sections 4-5) skips the event TLB, and its caller
    adds :func:`sweep_tlb_counters` instead.
    """
    lookup = index.trace_lookups(keys)
    simt = lookup.simt
    # Popped into the call, the trace has no reference here: the replay
    # frees its step matrix once coalesced (DESIGN.md §10, *Working set*).
    traces = [lookup.trace]
    del lookup
    raw = machine.simulate_lookups(
        traces.pop(), simulate_tlb=random_order, shuffle=random_order
    )
    raw.simt_instructions = simt.warp_instructions
    raw.divergence_replays = simt.divergence_replays
    return machine.scale_lookup_counters(
        raw, float(lookups), replay_factor=index.tlb_replay_factor
    )


def sweep_tlb_counters(
    machine: MachineModel, index: Index, window_lookups: float
) -> PerfCounters:
    """Analytic TLB misses of one partition-ordered window's page sweep."""
    gpu = machine.spec.gpu
    sweep_pages = index.expected_sweep_pages(
        window_lookups=float(window_lookups),
        page_bytes=gpu.tlb_entry_bytes,
        l2_bytes=gpu.l2_bytes,
        cacheline_bytes=gpu.cacheline_bytes,
    )
    return machine.analytic_tlb_counters(
        sweep_pages, replay_factor=index.tlb_replay_factor
    )


class SampleStore:
    """Ordered probe samples keyed by ``(workload, window_tuples, count)``.

    A sample is a pure function of its key (R's column is built from the
    workload), so one store can serve many environments: the session
    cache hands every environment of a session the same store, and the
    four index classes probing one window then share one draw.
    """

    def __init__(self) -> None:
        self._samples: dict = {}
        self.hits = 0

    def __len__(self) -> int:
        return len(self._samples)

    def clear(self) -> None:
        self._samples.clear()
        self.hits = 0

    def get(self, key, draw: Callable[[], ProbeSet]) -> ProbeSet:
        """The sample stored under ``key``, drawn by ``draw()`` on a miss.

        Stored arrays are made read-only: every later caller gets the
        same object.
        """
        sample = self._samples.get(key)
        if sample is not None:
            self.hits += 1
            return sample
        sample = draw()
        sample.keys.flags.writeable = False
        sample.expected_positions.flags.writeable = False
        self._samples[key] = sample
        return sample


class QueryEnvironment:
    """A machine with the workload's relations (and index) placed in it.

    Construction performs the paper's setup phase: R in CPU memory, S in
    CPU memory, the index built and placed in CPU memory.  Placement uses
    the simulated allocator, so over-capacity configurations raise
    :class:`~repro.errors.CapacityError` exactly where the paper's
    hardware ran out of memory.
    """

    def __init__(
        self,
        spec: SystemSpec,
        workload: WorkloadConfig,
        index_cls: Optional[Type] = None,
        sim: SimulationConfig = DEFAULT_CONFIG,
        calibration: CalibrationConstants = DEFAULT_CALIBRATION,
        index_kwargs: Optional[dict] = None,
    ):
        self.spec = spec
        self.workload = workload
        self.sim = sim
        self.machine = MachineModel(spec, sim)
        self.cost_model = CostModel(spec, calibration)
        self.relation = make_build_relation(workload)
        self.relation.place(self.machine.memory, MemorySpace.HOST)
        self.probe_allocation = self.machine.memory.allocate(
            workload.s_tuples * KEY_BYTES, MemorySpace.HOST, label="relation S"
        )
        self.index = None
        if index_cls is not None:
            kwargs = index_kwargs or {}
            self.index = index_cls(self.relation, **kwargs)
            self.index.place(self.machine.memory)
        self.samples = SampleStore()

    def ordered_sample(self, window_tuples: int, count: int) -> ProbeSet:
        """The ordered probe sample of one window, drawn once per store.

        Memoizes :func:`~repro.data.generator.make_ordered_probe_sample`
        in :attr:`samples`; the returned arrays are read-only.
        """
        return self.samples.get(
            (self.workload, window_tuples, count),
            lambda: make_ordered_probe_sample(
                self.column, self.workload, window_tuples=window_tuples,
                count=count,
            ),
        )

    def check_index(self, index: Index) -> None:
        """Reject an operator built over another environment's index."""
        if self.index is not index:
            raise WorkloadError(
                "environment was built for a different index instance"
            )

    def naive_probe_counters(self, lookups: float) -> PerfCounters:
        """Counters of ``lookups`` stream-order (random) index traversals.

        Replays a random probe sample of ``sim.probe_sample`` keys
        through the event TLB.
        """
        sample = make_probe_keys(
            self.column, self.workload, count=self.sim.probe_sample
        )
        return sampled_lookup_counters(
            self.machine, self.index, sample.keys, lookups, random_order=True
        )

    def ordered_probe_counters(
        self, window: int, lookups: float
    ) -> PerfCounters:
        """Counters of one partition-ordered window of ``window`` probes.

        Replays the window's ordered sample of ``min(sim.probe_sample,
        window)`` keys, scales it to ``lookups`` index traversals and
        adds the analytic TLB sweep of the window.  Range probes pass two
        traversals per probe, but the sweep does not double: both bounds
        of a partitioned probe walk the same pages.
        """
        sample = self.ordered_sample(
            window, min(self.sim.probe_sample, window)
        )
        counters = sampled_lookup_counters(
            self.machine, self.index, sample.keys, lookups, random_order=False
        )
        counters.add(sweep_tlb_counters(self.machine, self.index, window))
        return counters

    @property
    def column(self) -> Column:
        return self.relation.column

    @property
    def s_bytes(self) -> int:
        return self.workload.s_tuples * KEY_BYTES

    @property
    def r_bytes(self) -> int:
        return self.relation.nbytes

    def result_bytes(self) -> float:
        """Expected join-result materialization volume."""
        matches = self.workload.s_tuples * self.workload.match_rate
        return matches * RESULT_PAIR_BYTES

    def scale(self) -> float:
        """Sample-to-full-relation counter scale factor."""
        return self.sim.scale_factor(self.workload.s_tuples)
