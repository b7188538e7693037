"""Property-based differential suite: every index vs a sorted-array oracle.

All four paper indexes implement the same contract -- ``lookup(keys)``
returns the position of each key in the sorted column, -1 for misses --
so a plain ``searchsorted`` over the raw key array is a complete oracle.
Hypothesis drives the two inputs through adversarial regimes:

* **relations**: singletons, dense runs, uniform gaps, tightly clustered
  keys separated by huge gaps, and keys parked in the numeric danger
  zones (near 2^53 where float64 loses integer precision, and at/above
  2^63 where int64 casts wrap);
* **probes**: member keys, near-miss keys (member +/- 1), out-of-domain
  extremes, Zipf-skewed member draws, and heavy duplication.

The suite runs under the derandomized ``repro``/``ci`` profiles (see
tests/conftest.py and TESTING.md), so every run explores identical
examples and any counterexample reproduces from the printed falsifying
example alone.  This suite is what surfaced the RadixSpline large-key
precision bugs pinned in test_radix_spline.py.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.data.column import MaterializedColumn  # noqa: E402
from repro.data.relation import Relation  # noqa: E402
from repro.data.zipf import zipf_sample  # noqa: E402
from repro.errors import ConfigurationError  # noqa: E402
from repro.indexes import ALL_INDEX_TYPES  # noqa: E402

MAX_KEY = 2**64 - 1

#: (base, max_gap) regimes the relation generator parks keys in.  The
#: last three sit in the float/int conversion danger zones.
KEY_REGIMES = (
    (0, 3),
    (0, 2**16),
    (2**32, 2**20),
    (2**53 - 2**10, 3),
    (2**62, 3),
    (2**63 + 17, 2**10),
)


def oracle_lookup(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Reference semantics: sorted-array binary search, -1 on miss."""
    positions = np.searchsorted(keys, probes)
    clamped = np.minimum(positions, len(keys) - 1)
    hit = (positions < len(keys)) & (keys[clamped] == probes)
    return np.where(hit, positions, -1).astype(np.int64)


@st.composite
def relation_keys(draw) -> np.ndarray:
    """Strictly increasing uint64 key arrays across adversarial regimes."""
    size = draw(st.integers(min_value=1, max_value=256))
    base, max_gap = draw(st.sampled_from(KEY_REGIMES))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    clustered = draw(st.booleans())
    rng = np.random.default_rng(seed)
    if clustered and size >= 8:
        # Tight clusters (gap 1-2) separated by huge jumps: adjacent
        # keys whose difference underflows float arithmetic sit right
        # next to pairs whose difference overflows it.
        gaps = rng.integers(1, 3, size=size).astype(np.object_)
        cluster_starts = rng.choice(size, size=max(1, size // 16), replace=False)
        for start in cluster_starts:
            gaps[start] = int(rng.integers(2**40, 2**44))
    else:
        gaps = rng.integers(1, max_gap + 1, size=size).astype(np.object_)
    keys = np.cumsum(gaps) + base
    if int(keys[-1]) > MAX_KEY:
        # Python-int cumsum cannot wrap; rescale into range instead of
        # discarding the example.
        overshoot = int(keys[-1]) - MAX_KEY
        keys = keys - overshoot
        if int(keys[0]) < 0:
            keys = keys - int(keys[0])
    return np.asarray([int(k) for k in keys], dtype=np.uint64)


@st.composite
def probe_mix(draw, keys: np.ndarray) -> np.ndarray:
    """Probe batches mixing members, near-misses, extremes, duplicates."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    count = draw(st.integers(min_value=1, max_value=512))
    theta = draw(st.sampled_from([0.0, 1.0]))
    rng = np.random.default_rng(seed)
    n = len(keys)
    if theta > 0:
        ranks = zipf_sample(rng, n, theta, count)
        members = keys[ranks % n]
    else:
        members = keys[rng.integers(0, n, size=count)]
    over = members[rng.random(count) < 0.3] + np.uint64(1)
    under = members[rng.random(count) < 0.3] - np.uint64(1)
    extremes = np.asarray(
        [0, int(keys[0]), int(keys[-1]), MAX_KEY], dtype=np.uint64
    )
    probes = np.concatenate([members, over, under, extremes])
    # Heavy duplication: repeat a handful of probes many times over.
    repeated = np.repeat(probes[rng.integers(0, len(probes), size=4)], 16)
    probes = np.concatenate([probes, repeated])
    return probes[rng.permutation(len(probes))]


@st.composite
def workloads(draw):
    keys = draw(relation_keys())
    probes = draw(probe_mix(keys))
    return keys, probes


@pytest.mark.parametrize("index_cls", ALL_INDEX_TYPES)
class TestDifferentialLookup:
    @given(workload=workloads())
    def test_lookup_matches_sorted_array_oracle(self, index_cls, workload):
        keys, probes = workload
        index = index_cls(
            Relation(name="R", column=MaterializedColumn(keys))
        )
        np.testing.assert_array_equal(
            index.lookup(probes),
            oracle_lookup(keys, probes),
            err_msg=f"{index_cls.name} diverges from the oracle",
        )

    @given(
        base=st.sampled_from([regime[0] for regime in KEY_REGIMES]),
        offset=st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=20)
    def test_singleton_relation(self, index_cls, base, offset):
        key = np.uint64(min(base + offset, MAX_KEY - 1))
        index = index_cls(
            Relation(
                name="R",
                column=MaterializedColumn(np.asarray([key], dtype=np.uint64)),
            )
        )
        probes = np.asarray(
            [key, key + np.uint64(1), np.uint64(0), np.uint64(MAX_KEY)],
            dtype=np.uint64,
        )
        expected = np.asarray([0, -1, -1, -1], dtype=np.int64)
        if key == 0:
            expected[2] = 0
        if key == MAX_KEY:
            expected[3] = 0
        np.testing.assert_array_equal(index.lookup(probes), expected)

    def test_empty_probe_batch(self, index_cls):
        index = index_cls(
            Relation(
                name="R",
                column=MaterializedColumn(
                    np.arange(8, dtype=np.uint64) * np.uint64(3)
                ),
            )
        )
        result = index.lookup(np.empty(0, dtype=np.uint64))
        assert result.dtype == np.int64
        assert len(result) == 0


def test_empty_relations_are_rejected_before_indexing():
    """All four indexes share one behavior for |R| = 0: the column
    constructor refuses it, so no index can be built over nothing."""
    with pytest.raises(ConfigurationError):
        MaterializedColumn(np.empty(0, dtype=np.uint64))


@pytest.mark.parametrize("index_cls", ALL_INDEX_TYPES)
def test_regression_max_member_in_a_partial_last_leaf(index_cls):
    """MAX as the last key of a leaf that is not full: Harmonia's leaf
    once counted the MAX padding past the data as keys <= the probe,
    picked a padded slot and missed.  Every index finds it."""
    keys = np.asarray([5, 9, MAX_KEY - 4, MAX_KEY], dtype=np.uint64)
    probes = np.asarray(
        [MAX_KEY, MAX_KEY - 1, MAX_KEY - 4, 9, 0], dtype=np.uint64
    )
    index = index_cls(Relation(name="R", column=MaterializedColumn(keys)))
    expected = oracle_lookup(keys, probes)
    assert expected[0] == 3
    np.testing.assert_array_equal(index.lookup(probes), expected)
