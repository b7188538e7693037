"""Sharded, batched, simulated-clock serving of index probes.

The serving layer puts the paper's indexes behind a front door shaped
like production traffic ("serve heavy traffic from millions of users",
ROADMAP north star): one :class:`ShardPlan` range-shards the relation
across N simulated GPUs, K copies per range plus a whole-relation
fallback (:mod:`.shard`); requests are buffered into per-shard tumbling
windows, each shard's stream one engine window operator
(:mod:`.batcher`); bounded backlogs apply backpressure
(:mod:`.admission`); and a discrete-event loop over a logical clock
(:mod:`.clock`, :mod:`.service`) schedules window execution priced by
the perf replay model (:mod:`.executor`).  K = 1 is the unreplicated
deployment, and the copies of a range may carry divergent index types,
behind a cost-based router with failure detection (:mod:`.health`) and
priced background rebuilds (:mod:`.recovery`).  Online updates land in a per-shard sorted delta
tier merged into every probe (:mod:`.delta`), folded back into the base
index by policy-driven compactions priced in the same simulated
currency.  ``repro serve-bench`` (:mod:`.bench`) sweeps the
configuration space and emits a bit-identical BENCH JSON.
"""

from .admission import AdmissionController
from .batcher import ShardBatcher, Window
from .clock import SimulatedClock
from .delta import (
    CompactionPolicy,
    DeltaBuffer,
    delta_search_steps,
    merge_newest_wins,
    read_amplification,
)
from .executor import ReplicatedShardExecutor, WindowDeferred, WindowResult
from .health import (
    DEAD,
    HEALTHY,
    PROBATION,
    HealthEvent,
    HealthTracker,
)
from .recovery import (
    CompactionCost,
    RebuildCost,
    price_compaction,
    price_rebuild,
)
from .service import (
    ProbeRequest,
    RequestOutcome,
    ServeReport,
    ShardStats,
    ShardedIndexService,
)
from .shard import Shard, ShardPlan, range_shard

__all__ = [
    "AdmissionController",
    "CompactionCost",
    "CompactionPolicy",
    "DEAD",
    "DeltaBuffer",
    "HEALTHY",
    "HealthEvent",
    "HealthTracker",
    "PROBATION",
    "ProbeRequest",
    "RebuildCost",
    "ReplicatedShardExecutor",
    "RequestOutcome",
    "ServeReport",
    "Shard",
    "ShardBatcher",
    "ShardPlan",
    "ShardStats",
    "ShardedIndexService",
    "SimulatedClock",
    "Window",
    "WindowDeferred",
    "WindowResult",
    "delta_search_steps",
    "merge_newest_wins",
    "price_compaction",
    "price_rebuild",
    "range_shard",
    "read_amplification",
]
