"""Equivalence suite: vectorized models vs. the OrderedDict references.

The fast replay engine's correctness contract is *exact* equality with the
reference models on identical streams.  Each ``access_batch`` call replays
its stream from empty, so its hit mask (and the TLB's cold-miss count)
must equal the oracle's over the whole stream -- in one kernel pass, and
again with the pass cut short so the call spans several.  Between passes
a call carries the resident state, which must be the oracle's LRU order:
the ``across_batches`` tests drive the kernels pass by pass and compare
it after each one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.fastlru import (
    VectorLruTlb,
    VectorSetAssociativeCache,
    _lru_replay,
)

from .oracles import (
    LruCache,
    LruTlb,
    SetAssociativeCache,
    assert_replays_from_empty,
    kernel_passes,
)


def reference_lru_hits(cache, keys):
    return np.array([cache.access(int(k)) for k in keys], dtype=bool)


def lru_stream_cases():
    rng = np.random.default_rng(0xFA57)
    # (capacity_lines, stream) pairs spanning tiny capacities, capacities
    # near/below/above the universe, skew, and multi-chunk streams.
    cases = []
    for capacity, universe, length in [
        (1, 4, 64),
        (4, 4, 256),          # universe fits: no capacity misses
        (8, 64, 512),
        (64, 48, 1024),       # capacity exceeds universe
        (128, 1024, 4096),
        (512, 700, 20000),    # thrash band: universe slightly over capacity
    ]:
        cases.append((capacity, rng.integers(0, universe, length)))
    # Zipf-ish skew: stresses the ambiguous depth band and the fallback.
    skew = np.minimum((rng.pareto(0.6, 8000) * 20).astype(np.int64), 1999)
    cases.append((512, skew))
    # Sequential sweep with wraparound: classic LRU worst case.
    cases.append((16, np.arange(400) % 20))
    return cases


@pytest.mark.parametrize(
    "capacity,stream",
    lru_stream_cases(),
    ids=lambda value: str(value)[:24],
)
def test_vector_lru_matches_reference(capacity, stream):
    """The TLB's kernel is a fully associative LRU over any keys."""
    reference = LruCache(capacity * 32, 32)
    expected = reference_lru_hits(reference, stream)
    assert_replays_from_empty(VectorLruTlb(capacity), stream, expected)


def test_vector_lru_matches_reference_across_batches():
    """Pass by pass, the carried stack is the oracle's LRU order."""
    rng = np.random.default_rng(7)
    stream = rng.integers(0, 300, 3000).astype(np.int64)
    reference = LruCache(128 * 32, 32)
    stack = np.empty(0, np.int64)
    for part in np.array_split(stream, 7):
        hits, stack, distinct = _lru_replay(part, 128, stack)
        np.testing.assert_array_equal(hits, reference_lru_hits(reference, part))
        assert stack[::-1].tolist() == list(reference._lines)
        np.testing.assert_array_equal(distinct, np.unique(part))


def set_assoc_cases():
    rng = np.random.default_rng(0x5E7)
    cases = []
    for sets, ways, universe, length in [
        (1, 2, 8, 200),       # degenerate: one set, tiny ways
        (3, 4, 64, 2000),     # set count coprime with power-of-two lines
        (16, 16, 400, 8000),
        (96, 16, 4096, 40000),
    ]:
        cases.append((sets, ways, rng.integers(0, universe, length)))
    # Hot lines mixed with cold sweeps (index upper levels + data lines).
    hot = rng.integers(0, 24, 3000)
    cold = rng.integers(0, 100000, 6000)
    mixed = np.concatenate([hot, cold])
    rng.shuffle(mixed)
    cases.append((96, 16, mixed))
    # Long single-set segments: exercise the lag-window replay, including
    # its backward-walk remnant (a low-diversity stretch inside long
    # reuse windows defeats both the exact and certain-miss lag tiers).
    calm = np.repeat(rng.integers(0, 3, 700), 3)
    wild = rng.integers(0, 4000, 2000)
    cases.append((1, 4, np.concatenate([wild[:1000], calm, wild[1000:]])))
    cases.append((4, 8, rng.integers(0, 5000, 12000)))
    return cases


@pytest.mark.parametrize(
    "sets,ways,stream", set_assoc_cases(), ids=lambda value: str(value)[:24]
)
def test_vector_set_associative_matches_reference(sets, ways, stream):
    line_bytes = 32
    capacity = sets * ways * line_bytes
    reference = SetAssociativeCache(capacity, line_bytes, ways=ways)
    vector = VectorSetAssociativeCache(capacity, line_bytes, ways=ways)
    assert vector.num_sets == reference.num_sets
    expected = reference_lru_hits(reference, stream)
    assert_replays_from_empty(vector, stream, expected)


def test_vector_set_associative_across_batches():
    """Pass by pass, the carried tags hold each set's oracle LRU order."""
    rng = np.random.default_rng(21)
    stream = rng.integers(0, 3000, 20000).astype(np.int64)
    reference = SetAssociativeCache(96 * 16 * 32, 32, ways=16)
    vector = VectorSetAssociativeCache(96 * 16 * 32, 32, ways=16)
    tags = np.full((96, 16), -1, np.int64)
    for part in np.array_split(stream, 5):
        np.testing.assert_array_equal(
            vector._replay(part, tags), reference_lru_hits(reference, part)
        )
        assert [row[row >= 0].tolist() for row in tags] == [
            list(cache_set) for cache_set in reference._sets
        ]


def tlb_cases():
    rng = np.random.default_rng(0x7B)
    return [
        (8, rng.integers(0, 6, 300)),            # fits: cold misses only
        (16, rng.integers(0, 64, 4000)),         # thrash
        (256, rng.integers(0, 300, 20000)),      # thrash band
        (64, np.arange(3000) % 80),              # cyclic sweep
    ]


@pytest.mark.parametrize(
    "entries,pages", tlb_cases(), ids=lambda value: str(value)[:24]
)
def test_vector_tlb_matches_reference(entries, pages):
    reference = LruTlb(entries)
    expected = np.array([reference.access(int(p)) for p in pages], dtype=bool)
    assert_replays_from_empty(
        VectorLruTlb(entries), pages, expected, reference.cold_misses
    )


def test_vector_tlb_cold_misses_across_batches():
    """A stream spanning several passes counts each page's first touch
    once, and a later call counts only its own stream's pages."""
    rng = np.random.default_rng(3)
    stream = rng.integers(0, 500, 6000).astype(np.int64)
    reference = LruTlb(128)
    for page in stream:
        reference.access(int(page))
    vector = VectorLruTlb(128)
    with kernel_passes(10):
        misses = np.count_nonzero(~vector.access_batch(stream))
    assert vector.cold_misses == reference.cold_misses
    assert misses == reference.misses
    vector.access_batch(np.array([7, 7, 9], np.int64))
    assert vector.cold_misses == 2


def test_vector_models_reject_bad_shapes():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        VectorSetAssociativeCache(0, 32)
    with pytest.raises(ConfigurationError):
        VectorSetAssociativeCache(16, 32, ways=1)
    with pytest.raises(ConfigurationError):
        VectorSetAssociativeCache(64, 32, ways=0)
    with pytest.raises(ConfigurationError):
        VectorLruTlb(0)
