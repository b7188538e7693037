"""Range sharding: one index per simulated GPU over a key sub-range.

The sharding layer splits the build relation R into ``num_shards``
contiguous position ranges of (near-)equal size.  Because R's key column
is sorted, equal position ranges are disjoint, contiguous *key* ranges,
so a probe key routes to exactly one shard with a single
``searchsorted`` over the shard boundaries -- the serving-layer analogue
of the paper's radix routing.  Each shard owns:

* a sub-relation (the slice of R it serves) and an index built over it;
* a radix partitioner chosen for the *shard's* key range, so each
  shard's windows keep the TLB-friendly partition-ordered access
  pattern of Section 4;
* its own simulated machine (lazily built) used to replay a traced
  lookup sample -- the per-shard perf counters ``repro serve-bench``
  aggregates.

Shard-local lookup positions are offset by the shard's base position, so
service responses are *global* R positions, directly comparable to the
unsharded oracle.  A :class:`ShardPlan` is the whole layout -- K copies
of every range shard plus one whole-relation fallback -- and
:func:`range_shard` is its one builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..config import SimulationConfig
from ..data.column import Column, MaterializedColumn
from ..data.relation import Relation
from ..errors import ConfigurationError
from ..gpu.executor import MachineModel
from ..hardware.counters import PerfCounters
from ..hardware.memory import MemorySpace
from ..hardware.spec import SystemSpec, V100_NVLINK2
from ..indexes.base import Index
from ..join.base import sampled_lookup_counters, sweep_tlb_counters
from ..partition.bits import PartitionBits, choose_partition_bits
from ..partition.radix import RadixPartitioner
from .delta import DeltaBuffer, merge_newest_wins

#: Partition fanout per shard window.  Shards serve a fraction of R, so
#: a smaller fanout than the paper's global 2048 keeps partitions
#: usefully sized at serving-window scale.
SHARD_NUM_PARTITIONS = 256

#: Default sample width of the per-shard calibration replay.
CALIBRATION_SIM = SimulationConfig(probe_sample=2**10)


def _shard_partitioner(column: Column) -> RadixPartitioner:
    """The paper's bit-selection rule scoped to one shard's key range.

    Fanout shrinks with the shard (a shard of W keys cannot usefully
    split into more than ~W partitions); degenerate shards -- a single
    key, or a zero-span domain -- get a trivial 2-way split so the
    partition-then-probe path stays uniform.
    """
    n = len(column)
    fanout = SHARD_NUM_PARTITIONS
    while fanout > 2 and fanout > n:
        fanout //= 2
    try:
        return RadixPartitioner(
            choose_partition_bits(column, num_partitions=fanout)
        )
    except ConfigurationError:
        return RadixPartitioner(PartitionBits(shift=0, bits=1, offset=0))


@dataclass
class ShardCalibration:
    """Replayed per-lookup counter rates of one shard's index.

    ``per_lookup`` holds the event-simulated counters of one traced,
    partition-ordered lookup, already divided by the sample width; a
    window of W tuples costs ``per_lookup.scaled(W)`` plus the analytic
    TLB share (which depends on W and is added per window).
    """

    per_lookup: PerfCounters
    sample_lookups: int


class Shard:
    """One simulated GPU serving a contiguous key range of R."""

    def __init__(
        self,
        shard_id: int,
        relation: Relation,
        index: Index,
        base_position: int,
        lower_key: int,
        upper_key: int,
    ):
        self.shard_id = shard_id
        self.relation = relation
        self.index = index
        self.base_position = base_position
        #: Inclusive lower / exclusive upper bound of the served keys.
        self.lower_key = lower_key
        self.upper_key = upper_key
        self.partitioner = _shard_partitioner(relation.column)
        self._machine: Optional[MachineModel] = None
        self._calibration: Optional[ShardCalibration] = None
        #: Reused partition-order scratch for :meth:`probe` (grows to the
        #: widest window seen; never escapes the method).
        self._ordered = np.empty(0, dtype=np.int64)
        #: Sorted buffer of online updates, reconciled into every probe.
        self.delta = DeltaBuffer()
        #: After a compaction the base slice no longer maps to a dense
        #: global range: each local position carries an explicit global
        #: row id here.  ``None`` means the seed layout (dense
        #: ``base_position + local``) still holds.
        self._row_ids: Optional[np.ndarray] = None

    @property
    def num_tuples(self) -> int:
        return self.relation.num_tuples

    def probe(self, keys: np.ndarray) -> np.ndarray:
        """Partition-ordered probe of one window; global positions.

        Mirrors one window of :class:`~repro.join.window.WindowedINLJ`:
        radix-partition the window's keys, look them up in partition
        order, then unscramble back to arrival order.  Misses stay -1;
        hits are offset to global R positions.
        """
        keys = np.asarray(keys)
        count = len(keys)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        output = self.partitioner.partition(keys)
        if len(self._ordered) < count:
            self._ordered = np.empty(count, dtype=np.int64)
        # Fused kernel probe into the reused partition-order scratch,
        # then one unscramble scatter into the window's result array
        # (which the service later lands in the request's single
        # preallocated positions buffer).
        self.index.probe_batch(output.keys, self._ordered)
        positions = np.empty(count, dtype=np.int64)
        positions[output.source_indices] = self._ordered[:count]
        matched = positions >= 0
        if self._row_ids is None:
            positions[matched] += self.base_position
        else:
            positions[matched] = self._row_ids[positions[matched]]
        # Delta tuples are newer than any base answer: reconcile the
        # window against the buffered updates, newest-wins.
        self.delta.lookup_into(keys, positions)
        return positions

    # ------------------------------------------------------------------
    # Online updates (delta tier).
    # ------------------------------------------------------------------

    def apply_updates(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Absorb one update window into the shard's delta buffer."""
        self.delta.apply(keys, values)

    def compact(self) -> int:
        """Fold the delta tier into the base index; returns merged count.

        Merges the buffered ``(key, row id)`` pairs with the base slice
        (newest-wins), rebuilds the relation, index, and partitioner
        over the merged run, and invalidates the cached calibration so
        the next window reprices against the new structure.  The merge
        is content-determined -- every replica of a shard compacts to
        the same state whatever its traffic history -- which is what
        keeps served positions replica-independent.
        """
        delta_keys, delta_values = self.delta.drain()
        if len(delta_keys) == 0:
            return 0
        column = self.relation.column
        assert isinstance(column, MaterializedColumn)  # shards own slices
        base_keys = column.keys
        if self._row_ids is None:
            base_values = self.base_position + np.arange(
                self.num_tuples, dtype=np.int64
            )
        else:
            base_values = self._row_ids
        merged_keys, merged_values = merge_newest_wins(
            base_keys, base_values, delta_keys, delta_values
        )
        self.relation = Relation(
            name=self.relation.name, column=MaterializedColumn(merged_keys)
        )
        self.index = type(self.index)(self.relation)
        self.partitioner = _shard_partitioner(self.relation.column)
        self._row_ids = merged_values
        self._machine = None
        self._calibration = None
        return len(delta_keys)

    # ------------------------------------------------------------------
    # Perf calibration (replayed counters).
    # ------------------------------------------------------------------

    def calibrate(
        self,
        spec: SystemSpec = V100_NVLINK2,
        sim: SimulationConfig = CALIBRATION_SIM,
    ) -> ShardCalibration:
        """Replay a traced, sorted member-key sample on a fresh machine.

        The first call builds the shard's machine model, places the
        sub-relation and index in simulated host memory, traces a
        deterministic evenly-spaced member sample (sorted keys == the
        state after radix partitioning), and replays it through the
        cache hierarchy.  Subsequent calls return the cached rates.
        """
        if self._calibration is not None:
            return self._calibration
        machine = MachineModel(spec, sim)
        self.relation.place(machine.memory, MemorySpace.HOST)
        self.index.place(machine.memory)
        count = min(sim.probe_sample, self.num_tuples)
        sample_positions = np.linspace(
            0, self.num_tuples - 1, num=count, dtype=np.int64
        )
        sample_keys = self.relation.column.key_at(sample_positions)
        scaled = sampled_lookup_counters(
            machine, self.index, sample_keys, count, random_order=False
        )
        self._machine = machine
        self._calibration = ShardCalibration(
            per_lookup=scaled.scaled(1.0 / count), sample_lookups=count
        )
        return self._calibration

    def window_counters(
        self,
        window_tuples: int,
        spec: SystemSpec = V100_NVLINK2,
        sim: SimulationConfig = CALIBRATION_SIM,
    ) -> PerfCounters:
        """Replayed counters of one ``window_tuples``-wide probe window.

        ``spec`` and ``sim`` take effect on the first call, which
        calibrates the shard's machine; the analytic TLB sweep is priced
        on that machine too.
        """
        if window_tuples <= 0:
            raise ConfigurationError(
                f"window tuple count must be positive, got {window_tuples}"
            )
        calibration = self.calibrate(spec, sim)
        counters = calibration.per_lookup.scaled(float(window_tuples))
        machine = self._machine
        assert machine is not None  # calibrate() always sets it
        counters.add(sweep_tlb_counters(machine, self.index, window_tuples))
        counters.add(
            self.partitioner.partition_counters(float(window_tuples))
        )
        return counters


class ShardPlan:
    """A range-sharded layout of one relation across N simulated GPUs.

    ``replicas[s][r]`` is copy ``r`` of range shard ``s``: every copy of
    a range serves the same key slice (each from its own relation and
    index, possibly of a different index type), so any copy returns the
    same global positions.  ``fallback`` is one shard over the whole
    relation, the degraded path when no copy of a range can serve.
    Routing and splitting read only the key bounds, which every copy
    shares.
    """

    def __init__(self, replicas: List[List[Shard]], fallback: Shard):
        if not replicas:
            raise ConfigurationError("a shard plan needs at least one shard")
        self.replicas = replicas
        self.fallback = fallback
        #: Replica 0 of every range shard, in shard order.
        self.shards = [copies[0] for copies in replicas]
        #: Lower key bound of each shard; routing searchsorts this.
        self._lower_bounds = np.asarray(
            [shard.lower_key for shard in self.shards], dtype=np.uint64
        )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def replicas_per_shard(self) -> int:
        return len(self.replicas[0])

    def route(self, keys: np.ndarray) -> np.ndarray:
        """Shard id of each probe key (vectorized).

        Keys below the first shard's range route to shard 0 and keys
        above the last route to the last shard; both are guaranteed
        misses there, which keeps routing total without a reject path.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        ids = np.searchsorted(self._lower_bounds, keys, side="right") - 1
        return np.clip(ids, 0, self.num_shards - 1).astype(np.int64)

    def split(
        self, keys: np.ndarray, indices: np.ndarray
    ) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """Scatter a request into per-shard (shard_id, keys, indices).

        Intra-shard arrival order is preserved (stable grouping), so a
        shard's stream is the original stream filtered to its range --
        the property the tumbling batcher's window boundaries rely on.
        Parts come in shard order.  A one-shard plan returns the
        request's own arrays as its only part.
        """
        if self.num_shards == 1:
            return [(0, keys, indices)]
        ids = self.route(keys)
        order = np.argsort(ids, kind="stable")
        ends = np.cumsum(np.bincount(ids, minlength=self.num_shards))
        parts: List[Tuple[int, np.ndarray, np.ndarray]] = []
        start = 0
        for shard_id, end in enumerate(ends.tolist()):
            if end > start:
                picked = order[start:end]
                parts.append((shard_id, keys[picked], indices[picked]))
            start = end
        return parts


def range_shard(
    relation: Relation,
    num_shards: int,
    index_classes: Union[Type, Sequence[Type]],
    max_tuples: int = 2**22,
) -> ShardPlan:
    """Range-shard ``relation`` into ``num_shards`` per-shard indexes.

    Shard boundaries are equal position splits of the sorted column
    (equal data per simulated GPU).  Every range gets one copy per entry
    of ``index_classes`` -- entry ``k`` is replica ``k``'s index type on
    every shard, and a single class (or a one-entry list) is the
    unreplicated deployment.  The column is materialized once; each copy
    gets its own relation over its key slice, because a relation is
    placed in one simulated machine only.  The fallback spans the whole
    relation with replica 0's index class.  ``max_tuples`` guards
    against accidentally materializing a paper-scale virtual column.
    """
    if isinstance(index_classes, type):
        index_classes = [index_classes]
    if not index_classes:
        raise ConfigurationError(
            "range_shard() needs at least one index class"
        )
    if num_shards < 1:
        raise ConfigurationError(
            f"shard count must be >= 1, got {num_shards}"
        )
    column = relation.column
    n = len(column)
    if n > max_tuples:
        raise ConfigurationError(
            f"refusing to materialize {n} tuples for sharding "
            f"(max_tuples={max_tuples}); serve benches use reduced R"
        )
    keys = column.key_at(np.arange(n, dtype=np.int64))
    num_shards = min(num_shards, n)
    cuts = [(n * s) // num_shards for s in range(num_shards + 1)]

    def copy_of(shard_id: int, index_cls: Type, lo: int, hi: int) -> Shard:
        name = f"shard{shard_id}" if shard_id >= 0 else "fallback"
        sub_relation = Relation(
            name=f"{relation.name}.{name}",
            column=MaterializedColumn(keys[lo:hi]),
        )
        return Shard(
            shard_id=shard_id,
            relation=sub_relation,
            index=index_cls(sub_relation),
            base_position=lo,
            lower_key=int(keys[lo]),
            upper_key=int(keys[hi]) if hi < n else int(keys[-1]) + 1,
        )

    grid = [
        [copy_of(shard_id, cls, lo, hi) for cls in index_classes]
        for shard_id, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
    ]
    return ShardPlan(grid, copy_of(-1, index_classes[0], 0, n))
