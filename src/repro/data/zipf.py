"""Zipf-distributed rank sampling for skewed probe keys.

The paper's skew experiment (Section 5.2.2) Zipf-distributes the lookup
keys with exponents 0-1.75 over the full key domain of R.  ``numpy``'s
built-in Zipf sampler only supports exponents > 1 and unbounded support,
so we implement bounded Zipf sampling by inverting a continuous
approximation of the CDF -- the standard approach for database workload
generators (e.g. the YCSB ScrambledZipfian ancestor).  For exponent 0 the
distribution degenerates to uniform.

Sampled values are *ranks* in ``[0, n)``; callers map ranks to key-column
positions.  Rank 0 is the hottest item.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import WorkloadError


def _harmonic_approx(n: float, theta: float) -> float:
    """Approximate generalized harmonic number H_{n,theta}.

    Uses the integral approximation ``H ~ (n^(1-theta) - 1) / (1 - theta)
    + 0.5 * (1 + n^-theta)`` which is accurate to well under 1% for the
    n >= 2^20 domains these workloads use.
    """
    if theta == 1.0:
        return float(np.log(n) + 0.577215664901532 + 0.5 / n)
    return float((n ** (1.0 - theta) - 1.0) / (1.0 - theta) + 0.5 * (1.0 + n**-theta))


def zipf_cdf(ranks: np.ndarray, n: int, theta: float) -> np.ndarray:
    """Approximate CDF of the bounded Zipf(theta) distribution at ``ranks``.

    ``ranks`` are 0-based; the returned probabilities are
    ``P[rank <= ranks]``.  Exposed for tests and for analytic cache-hit
    calculations (the paper computes a 69% L1 hit chance at exponent 1.0,
    Section 5.2.2).
    """
    if n <= 0:
        raise WorkloadError(f"domain size must be positive, got {n}")
    if theta < 0:
        raise WorkloadError(f"zipf exponent must be non-negative, got {theta}")
    ranks = np.asarray(ranks, dtype=np.float64)
    if theta == 0.0:
        return np.clip((ranks + 1.0) / n, 0.0, 1.0)
    h_n = _harmonic_approx(float(n), theta)
    shifted = np.maximum(ranks, 0.0) + 1.0
    if abs(theta - 1.0) < 1e-12:
        h_r = np.log(shifted) + 0.577215664901532 + 0.5 / shifted
    else:
        h_r = (shifted ** (1.0 - theta) - 1.0) / (1.0 - theta) + 0.5 * (
            1.0 + shifted**-theta
        )
    h_r = np.where(ranks >= 0, h_r, 0.0)
    return np.clip(h_r / h_n, 0.0, 1.0)


def zipf_sample(
    rng: np.random.Generator, n: int, theta: float, size: int
) -> np.ndarray:
    """Draw ``size`` ranks in ``[0, n)`` from a bounded Zipf(theta).

    Inverts ``size`` uniform draws with :func:`zipf_ranks`.  Hot ranks
    are small.
    """
    if n <= 0:
        raise WorkloadError(f"domain size must be positive, got {n}")
    if size < 0:
        raise WorkloadError(f"sample size must be non-negative, got {size}")
    if theta < 0:
        raise WorkloadError(f"zipf exponent must be non-negative, got {theta}")
    if size == 0:
        return np.empty(0, dtype=np.int64)
    if theta == 0.0:
        return rng.integers(0, n, size=size, dtype=np.int64)
    return zipf_ranks(rng.random(size), n, theta)


def zipf_ranks(
    u: np.ndarray, n: int, theta: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Invert the bounded Zipf(theta > 0) CDF approximation at uniforms ``u``.

    For uniform ``u``,

        rank ~ ((u * ((n+1)^(1-theta) - 1) + 1)^(1/(1-theta))) - 1

    (and ``exp(u * ln(n+1)) - 1`` at theta == 1).  The float work runs in
    place, so ``u`` is overwritten; the int64 ranks go to ``out`` when
    given (same length as ``u``), else to a new array.  Every element is
    computed independently, so inverting a stream chunk by chunk gives
    the same ranks as inverting it whole.
    """
    if abs(theta - 1.0) < 1e-9:
        u *= np.log(float(n) + 1.0)
        np.exp(u, out=u)
    else:
        u *= (float(n) + 1.0) ** (1.0 - theta) - 1.0
        u += 1.0
        u **= 1.0 / (1.0 - theta)
    u -= 1.0
    np.floor(u, out=u)
    # Clip in float space *before* the int cast: theta near 1 can push
    # the inversion past int64, and float->int64 overflow is undefined.
    ranks = np.clip(u, 0.0, float(n - 1), out=u)
    if out is None:
        return ranks.astype(np.int64)
    out[...] = ranks
    return out


def scatter_ranks(ranks: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Map Zipf ranks to column positions: ``(rank * 2654435761 + seed) % n``.

    Scatters hot ranks across the key domain so that skew does not
    accidentally equal spatial locality.  The multiplier is Knuth's
    multiplicative-hash constant, a prime near ``2**32`` / golden ratio.  The
    arithmetic is int64 and runs in place (``ranks`` is overwritten and
    returned); every result lies in ``[0, n)``.

    The mapping is a bijection on ``[0, n)`` only while ``rank *
    2654435761 + seed`` fits in int64 (and ``n`` is not a multiple of the
    prime multiplier).  Ranks above 3,474,701,543 wrap around int64, so on
    relations of more than about 26 GiB distinct ranks can share a
    position: at R = 100 GiB and seed 42, ranks 0 and 6,979,321,856 both
    land on position 42.  The wrap only touches cold ranks and is kept
    because every skewed figure point depends on it.
    """
    np.multiply(ranks, np.int64(2654435761), out=ranks)
    np.add(ranks, np.int64(seed), out=ranks)
    np.remainder(ranks, n, out=ranks)
    return ranks


def zipf_sum_p2(n: int, theta: float) -> float:
    """Sum of squared probabilities of a bounded Zipf(theta) distribution.

    ``sum_r p_r^2 = H_{n,2*theta} / H_{n,theta}^2``.  This is the collision
    mass driving duplicate-key chain growth in multi-value hash tables
    (paper Section 5.2.2: "the hash join degrades to a long probe chain").
    For theta == 0 it reduces to ``1/n``.
    """
    if n <= 0:
        raise WorkloadError(f"domain size must be positive, got {n}")
    if theta < 0:
        raise WorkloadError(f"zipf exponent must be non-negative, got {theta}")
    if theta == 0.0:
        return 1.0 / n
    h_theta = _harmonic_approx(float(n), theta)
    h_2theta = _harmonic_approx(float(n), 2.0 * theta)
    return h_2theta / (h_theta * h_theta)


def zipf_top_mass(n: int, theta: float, top: int) -> float:
    """Probability mass carried by the ``top`` hottest ranks.

    Used to reason about cache hit rates under skew: with theta = 1 and the
    paper's setup, a small prefix of hot keys carries most accesses.
    """
    if top <= 0:
        return 0.0
    top = min(top, n)
    return float(zipf_cdf(np.asarray([top - 1]), n, theta)[0])
