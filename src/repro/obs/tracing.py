"""Span-based tracing: wall-time attribution for phases and hot regions.

The temporal half of the observability layer.  Two granularities:

* **Phases** -- coarse, named stages of a run (one per experiment in the
  runner).  Phases are *always* measured, tracing on or off: there are a
  handful per run, the cost is two clock reads, and the runner's exit
  summary needs their wall times unconditionally.
* **Spans** -- fine-grained timed regions (``trace.span("partition.fanout",
  bits=11)``).  Spans record only while tracing is enabled; when it is
  off, callers receive a shared no-op context manager
  (:data:`NULL_SPAN`), which keeps the hot path branch-cheap.

Finished spans accumulate in memory (bounded; overflow is counted, not
stored) and export as a deterministic-by-name aggregate for the run
manifest.  Span *timings*
never gate CI; only op counters do.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple


class NullSpan:
    """Reusable no-op context manager handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, key: str, value: object) -> None:
        """Attribute setter that drops its input (API parity with Span)."""
        return None


NULL_SPAN = NullSpan()


class Span:
    """One live traced region; finished data lands in the tracer."""

    __slots__ = ("tracer", "name", "attrs", "phase", "depth", "start")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Optional[Dict[str, object]],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.phase: Optional[str] = None
        self.depth = 0
        self.start = 0.0

    def set(self, key: str, value: object) -> None:
        """Attach or update one attribute on the live span."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.phase = tracer.current_phase()
        self.depth = len(tracer._span_stack)
        tracer._span_stack.append(self.name)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self.start
        tracer = self.tracer
        if tracer._span_stack and tracer._span_stack[-1] == self.name:
            tracer._span_stack.pop()
        tracer._finish_span(self.name, self.phase, self.depth, elapsed, self.attrs)


class _PhaseScope:
    """Context manager measuring one phase's wall time (always on)."""

    __slots__ = ("tracer", "name", "attrs", "start")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Optional[Dict[str, object]],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start = 0.0

    def __enter__(self) -> "_PhaseScope":
        self.tracer._phase_stack.append(self.name)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self.start
        tracer = self.tracer
        if tracer._phase_stack and tracer._phase_stack[-1] == self.name:
            tracer._phase_stack.pop()
        record = tracer._phases.setdefault(
            self.name, {"wall_seconds": 0.0, "entered": 0}
        )
        record["wall_seconds"] += elapsed
        record["entered"] += 1
        if self.attrs:
            tracer._phase_attrs.setdefault(self.name, {}).update(self.attrs)


class Tracer:
    """Collects phases (always) and spans (only while tracing is on)."""

    #: Finished spans kept in memory before overflow counting kicks in.
    DEFAULT_MAX_SPANS = 100_000

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.max_spans = max_spans
        self._span_stack: List[str] = []
        self._phase_stack: List[str] = []
        self._finished: List[dict] = []
        self._phases: Dict[str, Dict[str, float]] = {}
        self._phase_attrs: Dict[str, Dict[str, object]] = {}
        self._phase_order: List[str] = []
        self.dropped_spans = 0
        self._seq = 0

    # -- recording -----------------------------------------------------

    def span(
        self, name: str, attrs: Optional[Dict[str, object]] = None
    ) -> Span:
        return Span(self, name, attrs)

    def phase(
        self, name: str, attrs: Optional[Dict[str, object]] = None
    ) -> _PhaseScope:
        if name not in self._phases and name not in self._phase_order:
            self._phase_order.append(name)
        return _PhaseScope(self, name, attrs)

    def current_phase(self) -> Optional[str]:
        return self._phase_stack[-1] if self._phase_stack else None

    def _finish_span(
        self,
        name: str,
        phase: Optional[str],
        depth: int,
        elapsed: float,
        attrs: Optional[Dict[str, object]],
    ) -> None:
        if len(self._finished) >= self.max_spans:
            self.dropped_spans += 1
            return
        record: dict = {
            "seq": self._seq,
            "name": name,
            "phase": phase,
            "depth": depth,
            "wall_seconds": elapsed,
        }
        if attrs:
            record["attrs"] = dict(attrs)
        self._seq += 1
        self._finished.append(record)

    def clear(self) -> None:
        self._span_stack.clear()
        self._phase_stack.clear()
        self._finished.clear()
        self._phases.clear()
        self._phase_attrs.clear()
        self._phase_order.clear()
        self.dropped_spans = 0
        self._seq = 0

    # -- reads ---------------------------------------------------------

    def finished_spans(self) -> Tuple[dict, ...]:
        return tuple(self._finished)

    def phase_wall_seconds(self, name: str) -> Optional[float]:
        record = self._phases.get(name)
        return None if record is None else record["wall_seconds"]

    def phase_order(self) -> Tuple[str, ...]:
        """Phase names in first-entered order."""
        return tuple(self._phase_order)

    def phase_table(self) -> Dict[str, dict]:
        """Per-phase wall time and entry count, in first-entered order."""
        table: Dict[str, dict] = {}
        for name in self._phase_order:
            record = self._phases.get(name)
            if record is None:
                continue
            entry = {
                "wall_seconds": record["wall_seconds"],
                "entered": int(record["entered"]),
            }
            attrs = self._phase_attrs.get(name)
            if attrs:
                entry["attrs"] = dict(attrs)
            table[name] = entry
        return table

    def span_aggregate(
        self, phase: Optional[str] = None
    ) -> Dict[str, dict]:
        """Per-span-name count and total wall time, name-sorted.

        ``phase`` restricts the aggregate to spans attributed to one
        phase (used by the per-experiment manifests).
        """
        totals: Dict[str, dict] = {}
        for record in self._finished:
            if phase is not None and record.get("phase") != phase:
                continue
            entry = totals.setdefault(
                record["name"], {"count": 0, "total_seconds": 0.0}
            )
            entry["count"] += 1
            entry["total_seconds"] += record["wall_seconds"]
        return {name: totals[name] for name in sorted(totals)}
