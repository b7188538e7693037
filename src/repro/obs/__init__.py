"""Zero-dependency observability: metrics registry, spans, manifests.

The paper's argument rests on counters -- translation requests per
lookup, TLB hit rates, bytes moved per window -- so the reproduction
carries first-class per-phase instrumentation: a deterministic
:class:`~repro.obs.metrics.MetricsRegistry`, span-based tracing
(:func:`span`), and run manifests (``metrics.json``) that the CI
bench-smoke job diffs against a committed baseline.

Tracing is **off by default** and the disabled path is branch-cheap:
every entry point checks one module-level boolean and returns
immediately (spans hand back a shared no-op context manager), so
instrumented hot paths cost one predictable branch when tracing is off.
Enable it with the ``REPRO_TRACE`` environment variable, the runner's
``--trace`` flag, or :func:`enable`.

Two things are *always* on because the runner's exit summary needs
them and they are a handful of clock reads per run: phase wall-time
measurement (:func:`phase`) and the registry/tracer objects themselves.

Typical use::

    from repro import obs

    with obs.phase("fig6"):
        with obs.span("partition.fanout", bits=11):
            ...
        obs.add("partition.tuples", float(len(keys)))

    obs.write_manifest("metrics.json", run_info={"experiments": ["fig6"]})

Pooled sweep workers hold their own registry and keep their counters
local (see :func:`repro.experiments.runner.run_report`); a
fully-accounted manifest needs a serial run.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Union

from . import manifest as manifest_mod
from .metrics import Drift, Histogram, MetricsRegistry, metric_key
from .tracing import NULL_SPAN, NullSpan, Span, Tracer

__all__ = [
    "TRACE_ENV",
    "TRACE_FILE_ENV",
    "Drift",
    "Histogram",
    "MetricsRegistry",
    "NullSpan",
    "Span",
    "Tracer",
    "add",
    "add_perf_counters",
    "build_manifest",
    "configure_from_env",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "metric_key",
    "observe",
    "phase",
    "registry",
    "reset",
    "snapshot",
    "span",
    "tracer",
    "write_manifest",
]

#: Set to a truthy value ("1", "true", ...) to enable tracing globally.
TRACE_ENV = "REPRO_TRACE"
#: Default run-manifest path override for the experiment runner.
TRACE_FILE_ENV = "REPRO_TRACE_FILE"

_FALSY = ("", "0", "false", "False", "no", "off")

_registry = MetricsRegistry()
_tracer = Tracer()


def _env_enabled() -> bool:
    return os.environ.get(TRACE_ENV, "") not in _FALSY


#: The one branch every disabled-path call pays.  Module-level on purpose:
#: reading a module global is the cheapest check Python offers.
_enabled: bool = _env_enabled()


def enabled() -> bool:
    """Whether tracing/metrics collection is currently on."""
    return _enabled


def enable(on: bool = True) -> None:
    """Turn collection on (or off) process-wide."""
    global _enabled
    _enabled = on


def disable() -> None:
    enable(False)


def configure_from_env() -> bool:
    """Re-read ``REPRO_TRACE``; returns the resulting enabled state."""
    enable(_env_enabled())
    return _enabled


def registry() -> MetricsRegistry:
    return _registry


def tracer() -> Tracer:
    return _tracer


def reset() -> None:
    """Clear all collected metrics, spans, and phase timings."""
    _registry.clear()
    _tracer.clear()


# ----------------------------------------------------------------------
# Recording entry points (no-ops while disabled).
# ----------------------------------------------------------------------


def add(name: str, value: Union[int, float] = 1.0, **labels: object) -> None:
    """Increment a counter, attributed to the current phase."""
    if not _enabled:
        return
    _registry.add(
        name, value, labels or None, phase=_tracer.current_phase()
    )


def gauge(name: str, value: Union[int, float], **labels: object) -> None:
    """Record a last-value-wins measurement."""
    if not _enabled:
        return
    _registry.set_gauge(name, value, labels or None)


def observe(name: str, value: Union[int, float], **labels: object) -> None:
    """Add one observation to a histogram."""
    if not _enabled:
        return
    _registry.observe(name, value, labels or None)


def add_perf_counters(prefix: str, counters: object) -> None:
    """Bulk-add a :class:`~repro.hardware.counters.PerfCounters`.

    Every non-zero field lands as ``<prefix>.<field>``.  Typed loosely
    (``object`` with an ``as_dict``) so this package stays standalone.
    """
    if not _enabled:
        return
    phase_name = _tracer.current_phase()
    for field, value in counters.as_dict().items():  # type: ignore[attr-defined]
        if value:
            _registry.add(f"{prefix}.{field}", value, None, phase=phase_name)


def span(name: str, **attrs: object) -> Union[Span, NullSpan]:
    """A timed region; the shared no-op context manager while disabled."""
    if not _enabled:
        return NULL_SPAN
    return _tracer.span(name, dict(attrs) if attrs else None)


def phase(name: str, **attrs: object):
    """A named run phase.  Wall time is measured even while disabled
    (the runner's exit summary relies on it); attributes and counter
    attribution only materialize when tracing is on."""
    return _tracer.phase(name, dict(attrs) if attrs and _enabled else None)


# ----------------------------------------------------------------------
# Snapshots and manifests.
# ----------------------------------------------------------------------


def counter(name: str, **labels: object) -> float:
    """Current value of one counter (0.0 if never incremented)."""
    return _registry.counter(name, labels or None)


def snapshot() -> dict:
    """Deterministic dump of the registry (see ``MetricsRegistry``)."""
    return _registry.snapshot()


def build_manifest(
    run_info: Optional[dict] = None, phase: Optional[str] = None
) -> dict:
    """The run manifest for current state (see :mod:`repro.obs.manifest`)."""
    return manifest_mod.build_manifest(
        _registry, _tracer, run_info=run_info, phase=phase
    )


def write_manifest(
    path: str, run_info: Optional[dict] = None, phase: Optional[str] = None
) -> str:
    """Write the run manifest as JSON; returns the path."""
    return manifest_mod.write_manifest(
        path, _registry, _tracer, run_info=run_info, phase=phase
    )


def phase_wall_seconds() -> Dict[str, float]:
    """Wall seconds per phase, in first-entered order (always measured)."""
    return {
        name: entry["wall_seconds"]
        for name, entry in _tracer.phase_table().items()
    }
