"""Sharded, batched, simulated-clock serving of index probes.

The serving layer puts the paper's indexes behind a front door shaped
like production traffic ("serve heavy traffic from millions of users",
ROADMAP north star): the relation is range-sharded across N simulated
GPUs (:mod:`.shard`), requests are buffered into per-shard tumbling
windows that reuse the engine's window operator (:mod:`.batcher`),
bounded backlogs apply backpressure (:mod:`.admission`), and a
discrete-event loop over a logical clock (:mod:`.clock`,
:mod:`.service`) schedules window execution priced by the perf replay
model (:mod:`.executor`).  Each range carries K replicas -- K = 1 is
the unreplicated deployment, and the copies may carry divergent index
types (:mod:`.replica`) -- behind a cost-based router with failure
detection (:mod:`.health`) and priced background rebuilds
(:mod:`.recovery`).  Online updates land in a per-shard sorted delta
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
from .replica import Replica, ReplicaSet, ReplicatedPlan, replicate
from .service import (
    ProbeRequest,
    RequestOutcome,
    ServeReport,
    ShardStats,
    ShardedIndexService,
)
from .shard import Shard, ShardPlan, fallback_shard, range_shard

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
    "Replica",
    "ReplicaSet",
    "ReplicatedPlan",
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
    "fallback_shard",
    "merge_newest_wins",
    "price_compaction",
    "price_rebuild",
    "range_shard",
    "read_amplification",
    "replicate",
]
