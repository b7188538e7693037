"""Seeded probe-stream generators for the non-equi joins.

Band and KNN probes differ from the equi-join streams in one essential
way: the interesting probes are *near* member keys without necessarily
being members.  Both generators therefore draw positions with the same
machinery as :func:`repro.data.generator.make_probe_keys` (uniform, or
Zipf ranks scattered through the fixed multiplicative permutation so hot
ranks are spatially spread), then jitter the member key inside the
relevant neighbourhood:

* band probes jitter up to ``epsilon`` on either side, so a stream at
  band width ``epsilon`` exercises empty, partial, and full spans;
* KNN probes jitter within one key gap (up to ``stride``), so the
  walk-out starts between members -- the regime where left/right
  distances genuinely compete.

Everything is derived from ``config.seed`` with stream-specific salts,
so a workload's equi, band, and KNN streams are mutually independent
but individually reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..data.column import Column, KEY_DTYPE
from ..data.generator import WorkloadConfig
from ..data.zipf import scatter_ranks, zipf_sample
from ..errors import WorkloadError
from ..indexes.domain import clamped_int64, saturating_band

#: Seed salts: one independent stream per probe kind.
_BAND_SALT = 0xBA4D
_KNN_SALT = 0x4A11


@dataclass(frozen=True)
class NonEquiProbeSet:
    """A seeded non-equi probe stream.

    Attributes:
        keys: the probe keys, in stream (random) order.
        kind: ``"band"`` or ``"knn"``.
        param: the stream's shape parameter (``epsilon`` for band
            streams, ``k`` for KNN streams).
    """

    keys: np.ndarray
    kind: str
    param: int

    def __post_init__(self) -> None:
        if self.kind not in ("band", "knn"):
            raise WorkloadError(
                f"kind must be 'band' or 'knn', got {self.kind!r}"
            )
        if self.param < 0:
            raise WorkloadError(
                f"param must be non-negative, got {self.param}"
            )

    def __len__(self) -> int:
        return len(self.keys)


def _draw_positions(
    rng: np.random.Generator, n: int, config: WorkloadConfig, count: int
) -> np.ndarray:
    """Member positions, uniform or Zipf-scattered like the equi stream."""
    if config.zipf_theta > 0:
        ranks = zipf_sample(rng, n, config.zipf_theta, count)
        return scatter_ranks(ranks, n, config.seed)
    return rng.integers(0, n, size=count, dtype=np.int64)


def make_band_probe_keys(
    build_column: Column,
    config: WorkloadConfig,
    epsilon: int,
    count: Optional[int] = None,
) -> NonEquiProbeSet:
    """Draw a band-probe stream for band width ``epsilon``.

    Each probe is a member key jittered by a uniform offset in
    ``[-epsilon, +epsilon]``, saturating at the uint64 domain edges -- so
    edge probes keep well-defined (clamped) bands and every probe's true
    band overlaps at least the member it was jittered from whenever the
    jitter magnitude is within ``epsilon``.
    """
    if count is None:
        count = config.s_tuples
    if count <= 0:
        raise WorkloadError(f"probe count must be positive, got {count}")
    if epsilon < 0:
        raise WorkloadError(f"epsilon must be non-negative, got {epsilon}")
    rng = np.random.default_rng(config.seed + _BAND_SALT)
    n = len(build_column)
    positions = _draw_positions(rng, n, config, count)
    members = build_column.key_at(positions).astype(KEY_DTYPE)
    magnitude = rng.integers(0, epsilon + 1, size=count, dtype=np.uint64)
    below, above = saturating_band(members, magnitude)
    go_below = rng.random(count) < 0.5
    keys = np.where(go_below, below, above).astype(KEY_DTYPE)
    return NonEquiProbeSet(keys=keys, kind="band", param=int(epsilon))


def make_knn_probe_keys(
    build_column: Column,
    config: WorkloadConfig,
    k: int,
    count: Optional[int] = None,
) -> NonEquiProbeSet:
    """Draw a KNN-probe stream for neighbourhood size ``k``.

    Probes are member keys jittered by up to one stride in either
    direction (saturating), which places most probes strictly between
    members: the walk-out's left/right cursors then start at genuinely
    different distances, including exact equal-distance ties.
    """
    if count is None:
        count = config.s_tuples
    if count <= 0:
        raise WorkloadError(f"probe count must be positive, got {count}")
    if k <= 0:
        raise WorkloadError(f"k must be positive, got {k}")
    rng = np.random.default_rng(config.seed + _KNN_SALT)
    n = len(build_column)
    positions = _draw_positions(rng, n, config, count)
    members = build_column.key_at(positions).astype(KEY_DTYPE)
    magnitude = rng.integers(
        0, max(1, config.stride) + 1, size=count, dtype=np.uint64
    )
    below, above = saturating_band(members, magnitude)
    go_below = rng.random(count) < 0.5
    keys = np.where(go_below, below, above).astype(KEY_DTYPE)
    return NonEquiProbeSet(keys=keys, kind="knn", param=int(k))


def band_epsilon_for_matches(build_column: Column, matches: float) -> int:
    """The band width yielding ``matches`` expected pairs per probe.

    Inverts the uniform-density estimate of
    :func:`repro.join.nonequi.expected_band_matches`: a band of width
    ``2 * epsilon`` over average key gap ``g`` covers about
    ``2 * epsilon / g + 1`` keys, so ``epsilon = (matches - 1) * g / 2``.
    The float-to-int cast is clamped into the key span (NP002), and the
    result is floored at 0 (``matches <= 1`` degenerates to a point
    probe).
    """
    if matches <= 0:
        raise WorkloadError(
            f"matches must be positive, got {matches}"
        )
    n = len(build_column)
    if n <= 1:
        return 0
    avg_gap = (build_column.max_key - build_column.min_key) / (n - 1)
    span = float(build_column.max_key - build_column.min_key)
    epsilon = clamped_int64(
        np.asarray([(matches - 1.0) * avg_gap / 2.0]), 0.0, span
    )
    return int(epsilon[0])
