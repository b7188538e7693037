"""Workload generators matching the paper's Section 3.2.

The workload is "inspired by queries such as TPC-H Q4 and Q12, which have a
large input to a single join with a low join selectivity":

* R: unique sorted 8-byte keys, scaled 2^26-2^33.9 tuples (0.5-120 GiB);
* S: 2^26 foreign keys drawn from R, uniform (Figs. 3-7, 9) or
  Zipf-distributed with exponent 0-1.75 (Fig. 8);
* join selectivity |matching R tuples| / |R| falls as R grows, because S
  and the match rate stay fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import DEFAULT_S_TUPLES
from ..errors import WorkloadError
from .column import Column, KEY_DTYPE, make_column
from .relation import Relation
from .zipf import scatter_ranks, zipf_ranks, zipf_sample


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of one paper-style workload instance.

    Attributes:
        r_tuples: size of the indexed relation R.
        s_tuples: size of the probe relation S (paper default 2^26).
        match_rate: fraction of S tuples that find a join partner
            (the paper fixes it; 1.0 keeps the result size |S|).
        zipf_theta: probe-key skew exponent (0 == uniform; paper Fig. 8
            sweeps 0-1.75).
        stride: average key gap of R's domain (>= 3 guarantees that
            key + 1 is a non-member, which implements match_rate < 1).
        seed: RNG seed; one seed determines R, S, and sampling.
    """

    r_tuples: int
    s_tuples: int = DEFAULT_S_TUPLES
    match_rate: float = 1.0
    zipf_theta: float = 0.0
    stride: int = 4
    seed: int = 42

    def __post_init__(self) -> None:
        if self.r_tuples <= 0:
            raise WorkloadError(f"r_tuples must be positive, got {self.r_tuples}")
        if self.s_tuples <= 0:
            raise WorkloadError(f"s_tuples must be positive, got {self.s_tuples}")
        if not 0.0 <= self.match_rate <= 1.0:
            raise WorkloadError(
                f"match_rate must be in [0, 1], got {self.match_rate}"
            )
        if not math.isfinite(self.zipf_theta) or self.zipf_theta < 0:
            raise WorkloadError(
                f"zipf_theta must be finite and non-negative, got "
                f"{self.zipf_theta}"
            )
        if self.stride < 3 and self.match_rate < 1.0:
            raise WorkloadError(
                "match_rate < 1 requires stride >= 3 so that non-member "
                f"keys exist between members; got stride {self.stride}"
            )

    @property
    def join_selectivity(self) -> float:
        """Fraction of R tuples with at least one S match (upper bound).

        With |S| uniform draws over |R| positions the expected fraction is
        ``1 - (1 - 1/|R|)^(|S| * match_rate)``; the paper quotes the simpler
        ``|S| / |R|`` ratio (8.0% at 6.2 GiB), which we mirror.
        """
        return min(1.0, self.s_tuples * self.match_rate / self.r_tuples)


def make_build_relation(config: WorkloadConfig) -> Relation:
    """Create R: unique sorted keys, materialized only when small."""
    column = make_column(
        num_keys=config.r_tuples, stride=config.stride, seed=config.seed
    )
    return Relation(name="R", column=column)


def make_probe_keys(
    build_column: Column, config: WorkloadConfig, count: int = None
) -> "ProbeSet":
    """Draw probe keys for S from R's key domain.

    Matching keys are members of R at Zipf- or uniformly-distributed
    positions; non-matching keys are member keys plus one (never members,
    because R's minimum gap is 2 for stride >= 3).

    Args:
        build_column: R's key column.
        config: workload parameters.
        count: number of probe keys to draw (defaults to ``config.s_tuples``;
            simulators pass their sample size).
    """
    if count is None:
        count = config.s_tuples
    if count <= 0:
        raise WorkloadError(f"probe count must be positive, got {count}")
    rng = np.random.default_rng(config.seed + 0x5EED)
    n = len(build_column)
    if config.zipf_theta > 0:
        ranks = zipf_sample(rng, n, config.zipf_theta, count)
        positions = scatter_ranks(ranks, n, config.seed)
    else:
        positions = rng.integers(0, n, size=count, dtype=np.int64)
    keys = build_column.key_at(positions).astype(KEY_DTYPE)
    expected = positions.copy()
    if config.match_rate < 1.0:
        misses = rng.random(count) >= config.match_rate
        keys = keys.copy()
        keys[misses] += KEY_DTYPE(1)
        expected[misses] = -1
    return ProbeSet(keys=keys, expected_positions=expected)


@dataclass(frozen=True)
class ProbeSet:
    """Probe keys plus the ground-truth join partner positions.

    ``expected_positions[i] == -1`` marks a probe with no partner in R.
    Tests and examples use the ground truth to verify every index and join
    implementation end-to-end.
    """

    keys: np.ndarray
    expected_positions: np.ndarray

    def __post_init__(self) -> None:
        if len(self.keys) != len(self.expected_positions):
            raise WorkloadError(
                "keys and expected_positions must have equal length: "
                f"{len(self.keys)} != {len(self.expected_positions)}"
            )

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def num_matches(self) -> int:
        return int(np.count_nonzero(self.expected_positions >= 0))


#: Uniform draws a skewed ordered sample inverts per step.  The sample
#: does not depend on it; it only bounds the step's scratch buffers.
_ZIPF_CHUNK = 2**16


def make_ordered_probe_sample(
    build_column: Column,
    config: WorkloadConfig,
    window_tuples: int,
    count: int,
) -> ProbeSet:
    """A density-preserving sample of one partition-ordered window.

    Simulating partition-ordered lookups with a thinned global sample
    destroys exactly the locality being measured: sampled neighbours land
    thousands of keys apart instead of ``|R| / W`` apart.  This sampler
    keeps the real window's key density by drawing ``count`` keys from a
    *contiguous prefix* of R sized ``|R| * count / W`` -- the first
    ``count`` keys of a sorted window of ``W`` tuples -- and sorting them
    (the state after radix partitioning, whose partitions cover contiguous
    key ranges).

    Zipf-skewed workloads draw a full window of ranks and keep the tuples
    landing in the sample's key-range segment -- the conditional
    distribution of a contiguous chunk of a partition-ordered window.
    That preserves both the window's key density *and* its per-key
    duplicate counts (a window of 4M Zipf-1.0 tuples repeats its hot keys
    many times; those repeats are exactly the cache locality the skew
    experiment measures).  Such a sample holds up to ``4 * count`` keys.
    """
    if window_tuples <= 0:
        raise WorkloadError(
            f"window_tuples must be positive, got {window_tuples}"
        )
    if count <= 0:
        raise WorkloadError(f"probe count must be positive, got {count}")
    count = min(count, window_tuples)
    rng = np.random.default_rng(config.seed + 0x0D0E)
    n = len(build_column)
    if config.zipf_theta > 0:
        positions = _skewed_window_positions(
            rng, n, config, window_tuples, count
        )
    else:
        segment = max(1, min(n, round(n * count / window_tuples)))
        positions = rng.integers(0, segment, size=count, dtype=np.int64)
    positions.sort()
    keys = build_column.key_at(positions).astype(KEY_DTYPE)
    expected = positions.copy()
    if config.match_rate < 1.0:
        misses = rng.random(len(positions)) >= config.match_rate
        keys = keys.copy()
        keys[misses] += KEY_DTYPE(1)
        expected[misses] = -1
    return ProbeSet(keys=keys, expected_positions=expected)


def _skewed_window_positions(
    rng: np.random.Generator,
    n: int,
    config: WorkloadConfig,
    window_tuples: int,
    count: int,
) -> np.ndarray:
    """Segment positions of a Zipf window, in draw order.

    Draws the whole window (capped for memory), maps ranks to their
    scattered positions, and keeps the first ``4 * count`` that land in
    the sample's key-range segment.  The uniforms are inverted
    ``_ZIPF_CHUNK`` at a time and drawing stops once the cap is full; the
    generator then skips the undrawn rest, so it ends where a full draw
    leaves it.
    """
    draw = min(window_tuples, 2**24)
    segment = max(1, min(n, round(n * count / draw)))
    cap = 4 * count
    kept = np.empty(cap, dtype=np.int64)
    filled = 0
    # Extremely skewed draws can miss the segment; the sample then falls
    # back to the window's first positions, its hot set.
    head = np.empty(min(count, draw), dtype=np.int64)
    chunk = min(_ZIPF_CHUNK, draw)
    uniforms = np.empty(chunk)
    scratch = np.empty(chunk, dtype=np.int64)
    done = 0
    while done < draw and filled < cap:
        size = min(chunk, draw - done)
        ranks = zipf_ranks(
            rng.random(size, out=uniforms[:size]),
            n,
            config.zipf_theta,
            out=scratch[:size],
        )
        positions = scatter_ranks(ranks, n, config.seed)
        if done < len(head):
            take = min(size, len(head) - done)
            head[done : done + take] = positions[:take]
        hits = positions[positions < segment]
        take = min(len(hits), cap - filled)
        kept[filled : filled + take] = hits[:take]
        filled += take
        done += size
    # One 64-bit step per float64 uniform.
    rng.bit_generator.advance(draw - done)
    return kept[:filled] if filled else head


def make_workload(config: WorkloadConfig, probe_count: int = None):
    """Convenience: build R, draw probes, return ``(relation, probes)``."""
    relation = make_build_relation(config)
    probes = make_probe_keys(relation.column, config, count=probe_count)
    return relation, probes
