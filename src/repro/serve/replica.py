"""Replica sets: K copies of every range shard, optionally divergent.

A :class:`ReplicatedPlan` keeps the routing shape of a plain
:class:`~repro.serve.shard.ShardPlan` -- same shard count, same key
cuts, same ``route``/``split`` -- but behind every range sits a
*replica set*: K :class:`Shard` instances over the same key slice, each
free to carry a different index type.  Range cuts depend only on the
tuple count and shard count (see :func:`~repro.serve.shard.range_shard`),
so building one plan per index class and zipping them yields perfectly
aligned replicas: every replica of a range returns identical global
positions, which is what makes failover invisible to clients.

Divergent replicas are the point, not a curiosity: the four paper
indexes win in different regimes (BENCH_1 crossover pinned in
``test_paper_claims.py``), so a replica set mixing, say, a B+tree with
a RadixSpline gives the router a real price spread to exploit -- and
gives recovery a real per-type rebuild cost to weigh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Type

import numpy as np

from ..data.relation import Relation
from ..errors import ConfigurationError
from .shard import Shard, ShardPlan, range_shard


@dataclass(frozen=True)
class Replica:
    """One copy of a range shard: a :class:`Shard` plus its replica id."""

    replica_id: int
    shard: Shard

    @property
    def index_name(self) -> str:
        return self.shard.index.name


class ReplicaSet:
    """All replicas of one range, in replica-id order."""

    def __init__(self, shard_id: int, replicas: List[Replica]):
        if not replicas:
            raise ConfigurationError(
                f"replica set for shard {shard_id} is empty"
            )
        for expected, replica in enumerate(replicas):
            if replica.replica_id != expected:
                raise ConfigurationError(
                    f"replica ids of shard {shard_id} must be dense from "
                    f"0, got {replica.replica_id} at position {expected}"
                )
        self.shard_id = shard_id
        self.replicas = replicas

    def __len__(self) -> int:
        return len(self.replicas)

    def __iter__(self):
        return iter(self.replicas)

    def __getitem__(self, replica_id: int) -> Replica:
        return self.replicas[replica_id]


class ReplicatedPlan:
    """A shard plan where each range is served by a replica set.

    Routing delegates to the primary plan (replica 0's shards), so the
    service's split/admission/batching path is untouched by
    replication; only the executor sees the extra copies.
    """

    def __init__(self, base: ShardPlan, replica_sets: List[ReplicaSet]):
        if len(replica_sets) != base.num_shards:
            raise ConfigurationError(
                f"plan has {base.num_shards} shards but "
                f"{len(replica_sets)} replica sets"
            )
        widths = {len(replica_set) for replica_set in replica_sets}
        if len(widths) != 1:
            raise ConfigurationError(
                "all replica sets must be the same width, got "
                f"{sorted(widths)}"
            )
        self.base = base
        self.replica_sets = replica_sets
        self.replicas_per_shard = len(replica_sets[0])

    # -- ShardPlan-compatible surface (the service only uses these). ----

    @property
    def num_shards(self) -> int:
        return self.base.num_shards

    @property
    def shards(self) -> List[Shard]:
        return self.base.shards

    def route(self, keys: np.ndarray) -> np.ndarray:
        return self.base.route(keys)

    def split(
        self, keys: np.ndarray, indices: np.ndarray
    ) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        return self.base.split(keys, indices)

    # -- Replica access. ------------------------------------------------

    def replicas(self, shard_id: int) -> ReplicaSet:
        return self.replica_sets[shard_id]

    def replica(self, shard_id: int, replica_id: int) -> Replica:
        return self.replica_sets[shard_id][replica_id]


def replicate(
    relation: Relation,
    num_shards: int,
    index_classes: Sequence[Type],
    max_tuples: int = 2**22,
) -> ReplicatedPlan:
    """Build a replicated plan: one replica per entry of ``index_classes``.

    ``index_classes[k]`` is replica ``k``'s index type on *every* shard
    (a homogeneous fleet is ``[cls] * K``).  Each replica level is a
    full :func:`range_shard` plan of its own; the cuts are identical
    across levels, so replicas of a shard serve the same key slice.
    """
    if not index_classes:
        raise ConfigurationError(
            "replicate() needs at least one index class"
        )
    plans = [
        range_shard(relation, num_shards, index_cls, max_tuples=max_tuples)
        for index_cls in index_classes
    ]
    base = plans[0]
    replica_sets = [
        ReplicaSet(
            shard_id,
            [
                Replica(replica_id=level, shard=plan.shards[shard_id])
                for level, plan in enumerate(plans)
            ],
        )
        for shard_id in range(base.num_shards)
    ]
    return ReplicatedPlan(base, replica_sets)
