"""Reference implementations the data-layer tests check against.

:func:`bound_positions` is the generic ``searchsorted`` over any column:
a vectorized bisection through ``key_at``, one key read per round.  Both
column kinds answer without it (one ``searchsorted``, or O(1) per key for
virtual columns); the tests require identical ranks.

:func:`full_draw_ordered_sample` is the one-shot form of the skewed
ordered sampler: it inverts the whole (capped) window of uniforms at
once, scatters every rank, and only then filters the segment and applies
the ``4 * count`` cap.  :func:`full_draw_zipf_ranks` is the out-of-place
inversion formula both were first written with.  The library evaluates
the same arithmetic chunk by chunk, in place, and stops at the cap; the
tests require bit-identical output.
"""

from __future__ import annotations

import numpy as np

from repro.data.column import KEY_DTYPE, Column
from repro.data.generator import ProbeSet, WorkloadConfig


def bound_positions(column: Column, keys, side: str = "left") -> np.ndarray:
    """First position whose key is ``>=`` (left) or ``>`` (right) each key."""
    keys = np.atleast_1d(np.asarray(keys, dtype=KEY_DTYPE))
    n = len(column)
    lo = np.zeros(len(keys), dtype=np.int64)
    hi = np.full(len(keys), n, dtype=np.int64)
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        # mid < n whenever active, so the masked read never leaves the
        # column.
        mid_keys = column.key_at(np.where(active, mid, 0))
        if side == "left":
            go_right = active & (mid_keys < keys)
        else:
            go_right = active & (mid_keys <= keys)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
    return lo


def full_draw_zipf_ranks(
    rng: np.random.Generator, n: int, theta: float, size: int
) -> np.ndarray:
    """``size`` bounded Zipf(theta > 0) ranks, inverted out of place."""
    u = rng.random(size)
    if abs(theta - 1.0) < 1e-9:
        ranks = np.exp(u * np.log(float(n) + 1.0)) - 1.0
    else:
        top = (float(n) + 1.0) ** (1.0 - theta) - 1.0
        ranks = (u * top + 1.0) ** (1.0 / (1.0 - theta)) - 1.0
    ranks = np.clip(np.floor(ranks), 0.0, float(n - 1))
    return ranks.astype(np.int64)


def full_draw_ordered_sample(
    build_column: Column,
    config: WorkloadConfig,
    window_tuples: int,
    count: int,
) -> ProbeSet:
    """The skewed ordered sample, drawn and filtered in one shot.

    One miss flag is drawn per returned position (a skewed sample holds
    up to ``4 * count`` of them).
    """
    assert config.zipf_theta > 0
    count = min(count, window_tuples)
    rng = np.random.default_rng(config.seed + 0x0D0E)
    n = len(build_column)
    draw = min(window_tuples, 2**24)
    segment = max(1, min(n, round(n * count / draw)))
    ranks = full_draw_zipf_ranks(rng, n, config.zipf_theta, draw)
    all_positions = (
        ranks * np.int64(2654435761) + np.int64(config.seed)
    ) % n
    positions = all_positions[all_positions < segment]
    if len(positions) == 0:
        positions = all_positions[:count]
    elif len(positions) > 4 * count:
        positions = positions[: 4 * count]
    positions = np.sort(positions)
    keys = build_column.key_at(positions).astype(KEY_DTYPE)
    expected = positions.copy()
    if config.match_rate < 1.0:
        misses = rng.random(len(positions)) >= config.match_rate
        keys[misses] += KEY_DTYPE(1)
        expected[misses] = -1
    return ProbeSet(keys=keys, expected_positions=expected)
