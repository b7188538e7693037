"""Run manifests (``metrics.json``): build, write, load, diff.

A manifest is the durable artifact of one traced run: the registry's
deterministic snapshot (counters, histograms, per-phase counters) plus
the tracer's timing attribution (phase wall times, span aggregates).
The experiment runner writes one per run and one per experiment next to
each figure's exported output; the CI bench-smoke job diffs a fresh
manifest against a committed baseline and fails on counter drift.

The diff deliberately sees only the deterministic sections.  Wall times,
span durations, gauges, and the free-form ``run`` block are ignored --
they vary run to run and machine to machine, while op counters (lookups
simulated, cache hits, TLB misses, partition fanouts) must not.
"""

from __future__ import annotations

import json
from typing import List, Mapping, Optional

from ..ioutil import atomic_write_json
from .metrics import Drift, MetricsRegistry
from .tracing import Tracer

#: Manifest schema identifier; bump on incompatible layout changes.
SCHEMA = "repro-obs-manifest/1"

#: Default relative tolerance for numeric comparison: absorbs libm-level
#: float variation across platforms, never a real op-count change.
DEFAULT_REL_TOL = 1e-9

#: Sections that must be JSON objects when present.
_OBJECT_SECTIONS = ("counters", "gauges", "histograms", "phases", "spans")


def build_manifest(
    registry: MetricsRegistry,
    tracer: Tracer,
    run_info: Optional[dict] = None,
    phase: Optional[str] = None,
) -> dict:
    """Assemble a manifest dict from live observability state.

    ``phase`` narrows the manifest to one phase (a per-experiment
    manifest): its counters become the top-level counters, and only its
    spans and wall time appear.
    """
    snapshot = registry.snapshot()
    if phase is None:
        counters = snapshot["counters"]
        phases_counters: Mapping[str, Mapping[str, float]] = snapshot["phases"]
        phase_names = [
            name
            for name in tracer.phase_order()
            if tracer.phase_wall_seconds(name) is not None
        ]
        histograms = snapshot["histograms"]
        gauges = snapshot["gauges"]
    else:
        counters = snapshot["phases"].get(phase, {})
        phases_counters = {phase: counters}
        phase_names = [phase] if tracer.phase_wall_seconds(phase) is not None else []
        histograms = {}
        gauges = {}
    timing_table = tracer.phase_table()
    phases = {}
    for name in phase_names:
        timing = timing_table.get(name, {})
        phases[name] = {
            "wall_seconds": timing.get("wall_seconds"),
            "entered": timing.get("entered"),
            "counters": dict(phases_counters.get(name, {})),
        }
        if "attrs" in timing:
            phases[name]["attrs"] = timing["attrs"]
    manifest = {
        "schema": SCHEMA,
        "run": dict(run_info or {}),
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "phases": phases,
        "spans": tracer.span_aggregate(phase=phase),
        "dropped_spans": tracer.dropped_spans,
    }
    return manifest


def write_manifest(
    path: str,
    registry: MetricsRegistry,
    tracer: Tracer,
    run_info: Optional[dict] = None,
    phase: Optional[str] = None,
) -> str:
    """Build and write a manifest; returns the path written."""
    manifest = build_manifest(registry, tracer, run_info=run_info, phase=phase)
    # Atomic: the CI drift gate reads this file; it must never see a
    # torn manifest from a run killed mid-write.
    atomic_write_json(path, manifest)
    return path


def load_manifest(path: str) -> dict:
    """Read a manifest back; raises ``ValueError`` on a non-manifest."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or "schema" not in document:
        raise ValueError(f"{path} is not a metrics manifest")
    schema = document["schema"]
    if not str(schema).startswith("repro-obs-manifest/"):
        raise ValueError(f"{path} has unknown manifest schema {schema!r}")
    for section in _OBJECT_SECTIONS:
        if section in document and not isinstance(document[section], dict):
            raise ValueError(
                f"{path}: section {section!r} must be a JSON object, got "
                f"{json.dumps(document[section])[:40]}"
            )
    return document


def _diff_snapshot(manifest: Mapping[str, object]) -> dict:
    """The deterministic sections of a manifest, as a registry snapshot.

    Per-phase counters are pulled out of the nested phase entries so the
    registry's snapshot differ can compare them uniformly.
    """
    phases: dict = {}
    raw_phases = manifest.get("phases") or {}
    if isinstance(raw_phases, Mapping):
        for name, entry in raw_phases.items():
            if isinstance(entry, Mapping):
                counters = entry.get("counters") or {}
                if isinstance(counters, Mapping):
                    phases[str(name)] = dict(counters)
    return {
        "counters": manifest.get("counters") or {},
        "histograms": manifest.get("histograms") or {},
        "phases": phases,
    }


def diff_manifests(
    baseline: Mapping[str, object],
    current: Mapping[str, object],
    rel_tol: float = DEFAULT_REL_TOL,
) -> List[Drift]:
    """Compare two manifests' deterministic sections; returns drifts.

    Timing (phase wall seconds, span durations), gauges, and run
    metadata never participate -- see the module docstring.
    """
    return MetricsRegistry.diff(
        _diff_snapshot(baseline), _diff_snapshot(current), rel_tol=rel_tol
    )
