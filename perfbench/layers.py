"""Per-layer attribution from outside the program.

A traced run wraps the public functions of each layer (named after the
``repro`` module that owns it) so that every call records a span: name,
start, end and the span that was open when it began.  Spans live in
memory and are written out when the benchmark ends.  A layer's self time
is the duration of its spans minus the part their child spans cover, so
nested layers (a join estimate calling the replay engine calling the L2
model) are never counted twice.

Counting hooks run on the same boundaries and read the work each call did
from its arguments or its result: keys generated, lookups traced, lines
replayed, hits, and the exact model counters the simulator returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "repro" and module is not None
    ]


class MissingTarget(RuntimeError):
    """A public name the tracer wraps no longer exists."""


class Tracer:
    """In-memory span recorder plus per-layer work counters.

    Construction resolves every target (raising :class:`MissingTarget`
    for one that no longer exists); :meth:`install` wraps them and
    :meth:`uninstall` puts the originals back.
    """

    def __init__(self):
        #: One ``[name, start, end, parent index]`` list per call.
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []
        for name, path, attribute, hook in TARGETS:
            module_name, _, class_name = path.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError as error:
                raise MissingTarget(f"{path}.{attribute}: {error}") from error
            owner = getattr(module, class_name, None) if class_name else module
            original = getattr(owner, attribute, None) if owner is not None else None
            if original is None:
                raise MissingTarget(f"{path}.{attribute} no longer exists")
            wrapper = self._wrap(name, original, hook)
            if class_name:
                self._patches.append((owner, attribute, original, wrapper))
                continue
            # A function imported by name elsewhere is bound in each
            # importing module too: rebind every alias in the package.
            for alias in _repro_modules():
                if vars(alias).get(attribute) is original:
                    self._patches.append((alias, attribute, original, wrapper))

    # -- recording ------------------------------------------------------

    def call(self, name, function, hook, args, kwargs):
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = function(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()
        if hook is not None:
            hook(self.counts, args, result)
        return result

    def install(self):
        for owner, attribute, _original, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self):
        for owner, attribute, original, _wrapper in reversed(self._patches):
            setattr(owner, attribute, original)
        # A module first imported while tracing bound the wrappers too.
        originals = {id(wrapper): original for _, _, original, wrapper in self._patches}
        for module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, attribute, originals[id(value)])

    def _wrap(self, name, function, hook):
        call = self.call

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            return call(name, function, hook, args, kwargs)

        return wrapper

    # -- analysis -------------------------------------------------------

    def self_times(self):
        """Per span name: self seconds, calls, and calls that had children."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_seconds = defaultdict(float)
        calls = defaultdict(int)
        with_children = defaultdict(int)
        for index, (name, start, end, parent) in enumerate(self.spans):
            self_seconds[name] += (end - start) - covered[index]
            calls[name] += 1
            if covered[index] > 0.0:
                with_children[name] += 1
        return self_seconds, calls, with_children

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)


# ----------------------------------------------------------------------
# Counting hooks: (counts, call arguments, result) -> None.
# ----------------------------------------------------------------------


def _count_keys(counts, args, result):
    counts["data.keys"] += len(result.keys)


def _count_relation(counts, args, result):
    from repro.data.column import MaterializedColumn

    # Large relations are virtual (keys computed on access), so only a
    # materialized column counts as generated keys.
    if isinstance(result.column, MaterializedColumn):
        counts["data.keys"] += len(result.column)


def _count_stream(counts, args, result):
    counts["data.keys"] += sum(len(keys) for keys in result.keys)


def _count_build(counts, args, result):
    counts["indexes.build_keys"] += len(args[0].column)


def _count_trace(counts, args, result):
    counts["indexes.trace_lookups"] += len(args[1])


def _count_probe(counts, args, result):
    counts["indexes.probe_keys"] += len(args[1])


def _count_replay(counts, args, result):
    counts["hardware.tlb_misses"] += result.tlb_misses
    counts["hardware.l2_hits"] += result.l2_hits


def _count_coalesce(counts, args, result):
    lines, issued = result
    counts["gpu.lines"] += len(lines)
    counts["gpu.issued"] += issued


def _count_l2(counts, args, result):
    counts["hardware.l2_accesses"] += len(result)
    counts["hardware.l2_hit_count"] += int(np.count_nonzero(result))


def _count_tlb(counts, args, result):
    counts["hardware.tlb_accesses"] += len(result)
    counts["hardware.tlb_miss_count"] += len(result) - int(np.count_nonzero(result))


def _count_partition(counts, args, result):
    counts["partition.keys"] += len(args[1])


def _count_map(counts, args, result):
    from repro.experiments.common import LAST_SWEEP

    counts["experiments.pool_tasks"] += len(args[1])
    counts["experiments.pool_requeued"] += LAST_SWEEP.get("requeued", 0)
    counts["experiments.pool_restarts"] += LAST_SWEEP.get("pool_restarts", 0)


def _count_estimate(counts, args, result):
    counts["gpu.remote_bytes"] += result.counters.remote_bytes
    counts["gpu.translation_requests"] += result.counters.translation_requests


#: (span name, "module[:Class]", attribute, counting hook).  Names are the
#: layer metric prefixes; each entry is one public call into that layer.
TARGETS = [
    ("data", "repro.data.generator", "make_build_relation", _count_relation),
    ("data", "repro.data.generator", "make_probe_keys", _count_keys),
    ("data", "repro.data.generator", "make_ordered_probe_sample", _count_keys),
    ("data", "repro.workloads.updates", "make_update_stream", _count_stream),
    ("indexes.build", "repro.indexes:BPlusTreeIndex", "__init__", _count_build),
    ("indexes.build", "repro.indexes:BinarySearchIndex", "__init__", _count_build),
    ("indexes.build", "repro.indexes:HarmoniaIndex", "__init__", _count_build),
    ("indexes.build", "repro.indexes:RadixSplineIndex", "__init__", _count_build),
    ("indexes.trace", "repro.indexes.base:Index", "trace_lookups", _count_trace),
    ("indexes.probe", "repro.indexes.base:Index", "probe_batch", _count_probe),
    ("indexes.probe", "repro.indexes.base:Index", "probe_range_batch", _count_probe),
    ("gpu.replay", "repro.gpu.executor:MachineModel", "simulate_lookups", _count_replay),
    ("gpu.coalesce", "repro.gpu.executor:MachineModel", "coalesced_lines", _count_coalesce),
    ("hardware.l2", "repro.hardware.fastlru:VectorSetAssociativeCache", "access_batch", _count_l2),
    ("hardware.tlb", "repro.hardware.fastlru:VectorLruTlb", "access_batch", _count_tlb),
    ("partition", "repro.partition.radix:RadixPartitioner", "partition", _count_partition),
    ("perf", "repro.perf.model:CostModel", "price_stages", None),
    ("perf", "repro.perf.model:CostModel", "probe_stage_time", None),
    ("experiments.map", "repro.experiments.common", "map_tasks", _count_map),
    ("experiments.env", "repro.experiments.cache", "environment", None),
    ("join", "repro.join.inlj:IndexNestedLoopJoin", "estimate", _count_estimate),
    ("join", "repro.join.partitioned:PartitionedINLJ", "estimate", _count_estimate),
    ("join", "repro.join.window:WindowedINLJ", "estimate", _count_estimate),
    ("join", "repro.join.hash_join:HashJoin", "estimate", _count_estimate),
    ("serve.executor", "repro.serve.service:ShardedIndexService", "run", None),
    ("serve.delta", "repro.serve.delta:DeltaBuffer", "apply", None),
    ("serve.delta", "repro.serve.delta:DeltaBuffer", "lookup_into", None),
    ("serve.compact", "repro.serve.shard:Shard", "compact", None),
    ("serve.calibrate", "repro.serve.shard:Shard", "calibrate", None),
    ("oracle", "repro.workloads.updates:SortedArrayOracle", "apply", None),
    ("oracle", "repro.workloads.updates:SortedArrayOracle", "lookup", None),
]

#: Seconds metric -> the span name whose self time it reports.  Spans
#: not listed here (``experiments.map``) only count; their self time is
#: left in ``unattributed_s``.
_SECONDS = {
    "data.s": "data",
    "indexes.build_s": "indexes.build",
    "indexes.trace_s": "indexes.trace",
    "indexes.probe_s": "indexes.probe",
    "gpu.replay_s": "gpu.replay",
    "gpu.coalesce_s": "gpu.coalesce",
    "hardware.l2_s": "hardware.l2",
    "hardware.tlb_s": "hardware.tlb",
    "partition.s": "partition",
    "perf.s": "perf",
    "experiments.env_s": "experiments.env",
    "join.estimate_s": "join",
    "serve.executor_s": "serve.executor",
    "serve.delta_s": "serve.delta",
    "serve.compact_s": "serve.compact",
    "serve.calibrate_s": "serve.calibrate",
    "oracle.s": "oracle",
}


def _per(numerator, denominator, scale=1.0):
    return numerator * scale / denominator if denominator else 0.0


def layer_metrics(tracer, traced_wall_s, cache_stats):
    """Every per-layer metric of one traced run, as ``{name: (value, unit)}``."""
    self_seconds, calls, with_children = tracer.self_times()
    counts = tracer.counts
    seconds = {metric: self_seconds.get(span, 0.0) for metric, span in _SECONDS.items()}
    covered = sum(seconds.values())
    # A calibration that finds its cached rates returns without replaying.
    recalibrations = with_children.get("serve.calibrate", 0)
    metrics = {metric: (value, "s") for metric, value in seconds.items()}
    metrics.update(
        {
            "data.keys": (counts["data.keys"], "count"),
            "data.ns_per_key": (_per(seconds["data.s"], counts["data.keys"], 1e9), "ns"),
            "indexes.builds": (float(calls["indexes.build"]), "count"),
            "indexes.build_ns_per_key": (
                _per(seconds["indexes.build_s"], counts["indexes.build_keys"], 1e9),
                "ns",
            ),
            "indexes.trace_lookups": (counts["indexes.trace_lookups"], "count"),
            "indexes.trace_ns_per_lookup": (
                _per(seconds["indexes.trace_s"], counts["indexes.trace_lookups"], 1e9),
                "ns",
            ),
            "indexes.probe_keys": (counts["indexes.probe_keys"], "count"),
            "indexes.probe_ns_per_key": (
                _per(seconds["indexes.probe_s"], counts["indexes.probe_keys"], 1e9),
                "ns",
            ),
            "gpu.replay_calls": (float(calls["gpu.replay"]), "count"),
            "gpu.lines_per_call": (_per(counts["gpu.lines"], calls["gpu.replay"]), "count"),
            "gpu.coalesce_ratio": (_per(counts["gpu.lines"], counts["gpu.issued"]), "ratio"),
            "hardware.l2_accesses": (counts["hardware.l2_accesses"], "count"),
            "hardware.l2_hit_rate": (
                _per(counts["hardware.l2_hit_count"], counts["hardware.l2_accesses"]),
                "ratio",
            ),
            "hardware.l2_ns_per_access": (
                _per(seconds["hardware.l2_s"], counts["hardware.l2_accesses"], 1e9),
                "ns",
            ),
            "hardware.tlb_accesses": (counts["hardware.tlb_accesses"], "count"),
            "hardware.tlb_miss_rate": (
                _per(counts["hardware.tlb_miss_count"], counts["hardware.tlb_accesses"]),
                "ratio",
            ),
            "hardware.tlb_ns_per_access": (
                _per(seconds["hardware.tlb_s"], counts["hardware.tlb_accesses"], 1e9),
                "ns",
            ),
            "partition.keys": (counts["partition.keys"], "count"),
            "partition.ns_per_key": (
                _per(seconds["partition.s"], counts["partition.keys"], 1e9),
                "ns",
            ),
            "perf.calls": (float(calls["perf"]), "count"),
            "experiments.pool_tasks": (counts["experiments.pool_tasks"], "count"),
            "experiments.pool_requeued": (counts["experiments.pool_requeued"], "count"),
            "experiments.pool_restarts": (counts["experiments.pool_restarts"], "count"),
            "experiments.env_builds": (float(cache_stats.get("environments", 0)), "count"),
            "experiments.env_hits": (float(cache_stats.get("environment_hits", 0)), "count"),
            "join.estimates": (float(calls["join"]), "count"),
            "serve.delta_ops": (float(calls["serve.delta"]), "count"),
            "serve.compactions": (float(calls["serve.compact"]), "count"),
            "serve.recalibrations": (float(recalibrations), "count"),
            "hardware.tlb_misses": (counts["hardware.tlb_misses"], "count"),
            "hardware.l2_hits": (counts["hardware.l2_hits"], "count"),
            "gpu.remote_bytes": (counts["gpu.remote_bytes"], "B"),
            "gpu.translation_requests": (counts["gpu.translation_requests"], "count"),
            "unattributed_s": (max(0.0, traced_wall_s - covered), "s"),
            "attributed_share": (_per(min(covered, traced_wall_s), traced_wall_s), "ratio"),
        }
    )
    return metrics


#: The exact model counters: sums of what the simulator returns, which
#: must repeat bit for bit across runs of one seed.
MODEL_COUNTERS = (
    "hardware.tlb_misses",
    "hardware.l2_hits",
    "gpu.remote_bytes",
    "gpu.translation_requests",
)
