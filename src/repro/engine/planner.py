"""Cost-based access-path selection for out-of-core joins.

The paper's discussion (Section 6) is optimizer guidance: index joins win
below ~8% selectivity on NVLink; the RadixSpline is the default pick; the
hash join remains right for unselective probes; Harmonia is the choice
when updates are required.  :class:`QueryPlanner` operationalizes that: it
enumerates candidate access paths, prices each with the simulation layer
on the target machine, and returns a ranked plan.

Candidates per query:

* hash join (always available -- needs no index);
* windowed INLJ over each available index type (the paper's recommended
  configuration: 2048-way partitions, 32 MiB windows);
* optionally the naive and fully-partitioned INLJ variants, for
  explain-style comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Type

from ..config import DEFAULT_WINDOW_BYTES, SimulationConfig
from ..data.generator import WorkloadConfig
from ..errors import CapacityError, ConfigurationError
from ..hardware.spec import SystemSpec
from ..indexes import ALL_INDEX_TYPES
from ..join.base import QueryEnvironment
from ..join.hash_join import HashJoin
from ..join.inlj import IndexNestedLoopJoin
from ..join.partitioned import PartitionedINLJ
from ..join.window import WindowedINLJ
from ..partition.bits import choose_partition_bits
from ..partition.radix import RadixPartitioner
from ..perf.model import QueryCost

#: Planner-default event-simulation budget: small enough for interactive
#: planning, large enough for stable ordered-mode estimates.
PLANNER_SIM = SimulationConfig(probe_sample=2**12)


@dataclass
class AccessPath:
    """One candidate plan with its estimated cost.

    Attributes:
        name: human-readable plan label.
        cost: the simulation-layer estimate.
        index_name: the index used, or None for the hash join.
        supports_updates: whether this path tolerates build-side updates
            (Section 6: pick Harmonia "if the index must support inserts").
    """

    name: str
    cost: QueryCost
    index_name: Optional[str] = None
    supports_updates: bool = False

    @property
    def queries_per_second(self) -> float:
        return self.cost.queries_per_second


@dataclass
class PlanChoice:
    """The planner's decision: the winner plus the ranked alternatives."""

    chosen: AccessPath
    candidates: List[AccessPath] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def explain(self) -> str:
        """Optimizer-style EXPLAIN output."""
        lines = [f"chosen: {self.chosen.name} "
                 f"({self.chosen.queries_per_second:.2f} Q/s)"]
        for candidate in self.candidates:
            marker = "*" if candidate is self.chosen else " "
            lines.append(
                f"  {marker} {candidate.name:<40} "
                f"{candidate.queries_per_second:8.2f} Q/s"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


class QueryPlanner:
    """Prices access paths on a machine and picks the cheapest."""

    def __init__(
        self,
        spec: SystemSpec,
        sim: SimulationConfig = PLANNER_SIM,
        window_bytes: int = DEFAULT_WINDOW_BYTES,
        num_partitions: int = 2048,
        ignored_lsb: int = 4,
    ):
        if window_bytes <= 0:
            raise ConfigurationError(
                f"window_bytes must be positive, got {window_bytes}"
            )
        self.spec = spec
        self.sim = sim
        self.window_bytes = window_bytes
        self.num_partitions = num_partitions
        self.ignored_lsb = ignored_lsb

    # ------------------------------------------------------------------
    # Candidate construction.
    # ------------------------------------------------------------------

    def _partitioner(self, column) -> RadixPartitioner:
        return RadixPartitioner(
            choose_partition_bits(
                column, self.num_partitions, ignored_lsb=self.ignored_lsb
            )
        )

    def _hash_candidate(self, workload: WorkloadConfig) -> AccessPath:
        env = QueryEnvironment(self.spec, workload, sim=self.sim)
        cost = HashJoin(env.relation).estimate(env)
        return AccessPath(
            name="hash join (build on S, scan R)",
            cost=cost,
            supports_updates=True,  # rebuilt per query anyway
        )

    def _index_candidates(
        self,
        workload: WorkloadConfig,
        index_cls: Type,
        include_variants: bool,
        notes: List[str],
    ) -> List[AccessPath]:
        candidates: List[AccessPath] = []
        try:
            env = QueryEnvironment(
                self.spec, workload, index_cls=index_cls, sim=self.sim
            )
        except CapacityError as error:
            notes.append(f"{index_cls.name}: skipped ({error})")
            return candidates
        partitioner = self._partitioner(env.column)
        windowed = WindowedINLJ(
            env.index, partitioner, window_bytes=self.window_bytes
        )
        candidates.append(
            AccessPath(
                name=f"windowed INLJ over {index_cls.name}",
                cost=windowed.estimate(env),
                index_name=index_cls.name,
                supports_updates=index_cls.supports_updates,
            )
        )
        if include_variants:
            naive = IndexNestedLoopJoin(env.index)
            candidates.append(
                AccessPath(
                    name=f"naive INLJ over {index_cls.name}",
                    cost=naive.estimate(env),
                    index_name=index_cls.name,
                    supports_updates=index_cls.supports_updates,
                )
            )
            partitioned = PartitionedINLJ(env.index, partitioner)
            candidates.append(
                AccessPath(
                    name=f"partitioned INLJ over {index_cls.name} "
                    "(materializing)",
                    cost=partitioned.estimate(env),
                    index_name=index_cls.name,
                    supports_updates=index_cls.supports_updates,
                )
            )
        return candidates

    # ------------------------------------------------------------------
    # Planning.
    # ------------------------------------------------------------------

    def plan(
        self,
        workload: WorkloadConfig,
        index_types: Sequence[Type] = ALL_INDEX_TYPES,
        require_updates: bool = False,
        include_variants: bool = False,
    ) -> PlanChoice:
        """Pick the cheapest access path for ``workload``.

        Args:
            workload: the join's shape (R size, S size, skew, match rate).
            index_types: indexes the DBMS could build/maintain.
            require_updates: restrict index paths to update-capable
                structures (Section 6: Harmonia or the B+tree).
            include_variants: also price naive/materializing INLJ
                variants, for EXPLAIN-style output.
        """
        notes: List[str] = []
        candidates = [self._hash_candidate(workload)]
        for index_cls in index_types:
            if require_updates and not index_cls.supports_updates:
                notes.append(
                    f"{index_cls.name}: excluded (updates required, static "
                    "index)"
                )
                continue
            candidates.extend(
                self._index_candidates(
                    workload, index_cls, include_variants, notes
                )
            )
        candidates.sort(key=lambda path: path.queries_per_second, reverse=True)
        chosen = candidates[0]
        notes.append(
            f"join selectivity {workload.join_selectivity * 100:.1f}% "
            f"(paper threshold: INLJ wins below ~8% on NVLink 2.0)"
        )
        return PlanChoice(chosen=chosen, candidates=candidates, notes=notes)
