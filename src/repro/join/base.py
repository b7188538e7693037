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
)
from ..errors import WorkloadError
from ..gpu.executor import MachineModel
from ..hardware.memory import MemorySpace
from ..hardware.spec import SystemSpec
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
        for multi-match results too (band and KNN joins emit several
        pairs per probe); equi-joins over unique keys are the
        one-pair-per-probe special case.
        """
        order = np.lexsort((self.build_positions, self.probe_indices))
        return JoinResult(
            probe_indices=self.probe_indices[order],
            build_positions=self.build_positions[order],
        )

    def sorted_by_probe(self) -> "JoinResult":
        """Historical name for :meth:`canonical`."""
        return self.canonical()

    def equals(self, other: "JoinResult") -> bool:
        """Multiset equality regardless of pair order.

        Compares the canonical forms element-wise, so results with
        several matches per probe key (band/KNN joins) compare exactly;
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
