"""Deterministic metrics primitives: counters, gauges, histograms.

The registry is the numeric half of the observability layer (the tracer
in :mod:`repro.obs.tracing` is the temporal half).  Everything here is
designed around one invariant: **snapshots are deterministic**.  Two runs
of the same experiment produce byte-identical counter sections, so a
committed snapshot can gate CI (``repro obs report --diff
--fail-on-drift``).  That rules wall-clock time out of this module
entirely -- durations live in spans and phase wall times, which the
manifest diff ignores.

Counters and gauges are flat ``name{label=value,...}`` keys mapping to
floats; histograms bucket observations by the smallest power of two that
bounds them (an exact, platform-independent rule).  The registry also
keeps a per-phase shadow of every counter increment, which is what gives
the run manifest its per-phase op-count attribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

Number = Union[int, float]


def metric_key(name: str, labels: Optional[Mapping[str, object]] = None) -> str:
    """Flat storage key: ``name`` or ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def bucket_label(value: float) -> str:
    """The histogram bucket holding ``value``.

    Buckets are powers of two: a value lands in the smallest ``2**k >=
    value`` (label ``"<=2^k"``).  Non-positive values share ``"<=0"`` and
    non-finite values ``"inf"``.  Integer arithmetic keeps the rule exact
    at bucket boundaries, unlike a ``log2`` of the float.
    """
    if not math.isfinite(value):
        return "inf"
    if value <= 0:
        return "<=0"
    bound = math.ceil(value)
    return f"<=2^{max(0, int(bound - 1).bit_length())}"


class Histogram:
    """Power-of-two bucketed histogram with exact summary statistics."""

    __slots__ = ("count", "total", "min", "max", "_buckets")

    def __init__(self) -> None:
        self.count: int = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: Dict[str, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        label = bucket_label(value)
        self._buckets[label] = self._buckets.get(label, 0) + 1

    def to_dict(self) -> dict:
        """JSON-ready summary with buckets in sorted-label order."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {
                label: self._buckets[label] for label in sorted(self._buckets)
            },
        }


@dataclass(frozen=True)
class Drift:
    """One difference between two snapshots/manifests."""

    section: str  # "counter" | "histogram" | "phase:<name>"
    key: str
    baseline: object
    current: object

    def to_text(self) -> str:
        return (
            f"{self.section} {self.key}: baseline={self.baseline!r} "
            f"current={self.current!r}"
        )


def values_match(
    baseline: object, current: object, rel_tol: float = 0.0
) -> bool:
    """Numeric equality with a relative tolerance; exact otherwise.

    The tolerance absorbs libm-level float differences across platforms
    (``expm1``/``log1p`` in the analytic TLB model) without letting real
    counter drift through -- any genuine op-count change is orders of
    magnitude beyond 1e-9 relative.
    """
    if isinstance(baseline, bool) or isinstance(current, bool):
        return baseline == current
    if isinstance(baseline, (int, float)) and isinstance(current, (int, float)):
        if baseline == current:
            return True
        if rel_tol <= 0:
            return False
        scale = max(abs(float(baseline)), abs(float(current)))
        return abs(float(baseline) - float(current)) <= rel_tol * scale
    return baseline == current


def diff_numeric_maps(
    section: str,
    baseline: Mapping[str, object],
    current: Mapping[str, object],
    rel_tol: float = 0.0,
) -> List[Drift]:
    """Key-wise diff of two flat metric maps (missing keys drift too)."""
    drifts: List[Drift] = []
    for key in sorted(set(baseline) | set(current)):
        base_value = baseline.get(key)
        cur_value = current.get(key)
        if not values_match(base_value, cur_value, rel_tol):
            drifts.append(Drift(section, key, base_value, cur_value))
    return drifts


class MetricsRegistry:
    """Counters, gauges, and histograms with per-phase attribution.

    Not thread-safe by design: the simulators are single-threaded per
    process, and pooled sweep workers each hold their own registry.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._phase_counters: Dict[str, Dict[str, float]] = {}

    # -- writes --------------------------------------------------------

    def add(
        self,
        name: str,
        value: Number = 1.0,
        labels: Optional[Mapping[str, object]] = None,
        phase: Optional[str] = None,
    ) -> None:
        """Increment a counter, attributing to ``phase`` when given."""
        key = metric_key(name, labels)
        self._counters[key] = self._counters.get(key, 0.0) + float(value)
        if phase is not None:
            bucket = self._phase_counters.setdefault(phase, {})
            bucket[key] = bucket.get(key, 0.0) + float(value)

    def set_gauge(
        self,
        name: str,
        value: Number,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Record a last-value-wins measurement."""
        self._gauges[metric_key(name, labels)] = float(value)

    def observe(
        self,
        name: str,
        value: Number,
        labels: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Add one observation to a histogram."""
        key = metric_key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram()
        histogram.observe(float(value))

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._phase_counters.clear()

    # -- reads ---------------------------------------------------------

    def counter(self, name: str, labels: Optional[Mapping[str, object]] = None) -> float:
        return self._counters.get(metric_key(name, labels), 0.0)

    def phase_counter(
        self,
        phase: str,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
    ) -> float:
        return self._phase_counters.get(phase, {}).get(
            metric_key(name, labels), 0.0
        )

    def phases(self) -> Tuple[str, ...]:
        return tuple(sorted(self._phase_counters))

    def snapshot(self) -> dict:
        """Deterministic JSON-ready dump: every section key-sorted."""
        return {
            "counters": {
                key: self._counters[key] for key in sorted(self._counters)
            },
            "gauges": {key: self._gauges[key] for key in sorted(self._gauges)},
            "histograms": {
                key: self._histograms[key].to_dict()
                for key in sorted(self._histograms)
            },
            "phases": {
                phase: {
                    key: counters[key] for key in sorted(counters)
                }
                for phase, counters in sorted(self._phase_counters.items())
            },
        }

    # -- combination ---------------------------------------------------

    @staticmethod
    def diff(
        baseline: Mapping[str, object],
        current: Mapping[str, object],
        rel_tol: float = 0.0,
        sections: Iterable[str] = ("counters", "histograms", "phases"),
    ) -> List[Drift]:
        """Compare two snapshots; returns every drift found.

        Only deterministic sections participate: counters, histogram
        summaries, and per-phase counters.  Gauges are excluded (they may
        carry environment-dependent values) and wall times never enter a
        snapshot in the first place.
        """
        drifts: List[Drift] = []
        wanted = set(sections)
        if "counters" in wanted:
            drifts.extend(
                diff_numeric_maps(
                    "counter",
                    baseline.get("counters") or {},  # type: ignore[arg-type]
                    current.get("counters") or {},  # type: ignore[arg-type]
                    rel_tol,
                )
            )
        if "histograms" in wanted:
            base_h: Mapping[str, object] = baseline.get("histograms") or {}  # type: ignore[assignment]
            cur_h: Mapping[str, object] = current.get("histograms") or {}  # type: ignore[assignment]
            for key in sorted(set(base_h) | set(cur_h)):
                base_summary = base_h.get(key) or {}
                cur_summary = cur_h.get(key) or {}
                if not isinstance(base_summary, Mapping):
                    base_summary = {}
                if not isinstance(cur_summary, Mapping):
                    cur_summary = {}
                flat_base = _flatten_histogram(base_summary)
                flat_cur = _flatten_histogram(cur_summary)
                drifts.extend(
                    diff_numeric_maps(
                        "histogram", _prefix(key, flat_base), _prefix(key, flat_cur), rel_tol
                    )
                )
        if "phases" in wanted:
            base_p: Mapping[str, object] = baseline.get("phases") or {}  # type: ignore[assignment]
            cur_p: Mapping[str, object] = current.get("phases") or {}  # type: ignore[assignment]
            for phase in sorted(set(base_p) | set(cur_p)):
                base_counters = base_p.get(phase) or {}
                cur_counters = cur_p.get(phase) or {}
                if not isinstance(base_counters, Mapping):
                    base_counters = {}
                if not isinstance(cur_counters, Mapping):
                    cur_counters = {}
                drifts.extend(
                    diff_numeric_maps(
                        f"phase:{phase}", base_counters, cur_counters, rel_tol
                    )
                )
        return drifts


def _flatten_histogram(summary: Mapping[str, object]) -> Dict[str, object]:
    flat: Dict[str, object] = {}
    for field in ("count", "sum", "min", "max"):
        flat[field] = summary.get(field)
    buckets = summary.get("buckets") or {}
    if isinstance(buckets, Mapping):
        for label, count in buckets.items():
            flat[f"bucket[{label}]"] = count
    return flat


def _prefix(key: str, flat: Mapping[str, object]) -> Dict[str, object]:
    return {f"{key}.{field}": value for field, value in flat.items()}
