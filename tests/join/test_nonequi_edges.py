"""Edge-case pack for the band join and the range primitive's limits.

Each case pins one boundary of the band semantics:

* ``epsilon == 0`` collapses the band join to the equi-INLJ --
  bit-identically, not just as a multiset;
* a negative ``epsilon`` is refused;
* band ties AT ``epsilon``: the interval is closed, so a key exactly
  ``epsilon`` away is a match on both sides;
* probes at the uint64 domain edges: ``key - epsilon`` saturates to 0
  and ``key + epsilon`` to ``2^64 - 1`` (never wraps), so boundary
  probes keep well-formed spans;
* empty spans everywhere: a band that covers no keys produces an empty
  result, not a crash or a bogus pair.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.column import MaterializedColumn
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.indexes import ALL_INDEX_TYPES, RadixSplineIndex
from repro.indexes.domain import saturating_band
from repro.join.base import reference_join
from repro.join.inlj import IndexNestedLoopJoin
from repro.join.nonequi import BandJoin, WindowedBandJoin
from repro.partition.bits import PartitionBits
from repro.partition.radix import RadixPartitioner

MAX_KEY = np.uint64(2**64 - 1)


def build_index(index_cls, keys):
    return index_cls(
        Relation(name="R", column=MaterializedColumn(np.asarray(keys, np.uint64)))
    )


def small_partitioner():
    return RadixPartitioner(PartitionBits(shift=2, bits=5))


@pytest.mark.parametrize("index_cls", ALL_INDEX_TYPES)
class TestEpsilonZeroIsInlj:
    def test_band_zero_equals_inlj_bit_identically(self, index_cls):
        """Same pairs, same order, same dtypes -- the degenerate band
        join IS the INLJ, not merely equivalent to it."""
        keys = np.arange(1, 257, dtype=np.uint64) * np.uint64(5)
        rng = np.random.default_rng(3)
        probes = np.concatenate(
            [keys[rng.integers(0, 256, size=200)], keys[:8] + np.uint64(1)]
        )
        probes = probes[rng.permutation(len(probes))]
        index = build_index(index_cls, keys)
        band = BandJoin(index, 0).join(probes)
        inlj = IndexNestedLoopJoin(index).join(probes)
        np.testing.assert_array_equal(band.probe_indices, inlj.probe_indices)
        np.testing.assert_array_equal(
            band.build_positions, inlj.build_positions
        )
        assert band.probe_indices.dtype == inlj.probe_indices.dtype
        assert band.build_positions.dtype == inlj.build_positions.dtype


class TestBandValidation:
    def test_invalid_epsilon_rejected(self):
        index = build_index(RadixSplineIndex, np.asarray([1], np.uint64))
        with pytest.raises(ConfigurationError):
            BandJoin(index, -1)
        with pytest.raises(ConfigurationError):
            WindowedBandJoin(index, small_partitioner(), -3)


class TestTiesAtEpsilon:
    def test_band_interval_is_closed(self):
        """Keys at exactly probe +/- epsilon are matches on both sides."""
        keys = np.asarray([100, 110, 120, 130], dtype=np.uint64)
        index = build_index(RadixSplineIndex, keys)
        result = BandJoin(index, 10).join(np.asarray([110], dtype=np.uint64))
        # 100 (= 110 - 10), 110, and 120 (= 110 + 10) all match; 130 not.
        np.testing.assert_array_equal(
            result.canonical().build_positions, [0, 1, 2]
        )

    def test_band_just_inside_and_outside(self):
        keys = np.asarray([100, 120], dtype=np.uint64)
        index = build_index(RadixSplineIndex, keys)
        at = BandJoin(index, 10).join(np.asarray([110], dtype=np.uint64))
        inside = BandJoin(index, 11).join(np.asarray([110], dtype=np.uint64))
        outside = BandJoin(index, 9).join(np.asarray([110], dtype=np.uint64))
        assert len(at) == 2
        assert len(inside) == 2
        assert len(outside) == 0


@pytest.mark.parametrize("index_cls", ALL_INDEX_TYPES)
class TestDomainBoundaries:
    def test_probe_at_zero_saturates_low(self, index_cls):
        keys = np.asarray([0, 5, 2**40], dtype=np.uint64)
        index = build_index(index_cls, keys)
        result = BandJoin(index, 7).join(np.asarray([0], dtype=np.uint64))
        # 0 - 7 saturates to 0; matches are keys in [0, 7] = {0, 5}.
        np.testing.assert_array_equal(
            result.canonical().build_positions, [0, 1]
        )

    def test_probe_at_max_saturates_high(self, index_cls):
        keys = np.asarray(
            [17, MAX_KEY - np.uint64(4), MAX_KEY], dtype=np.uint64
        )
        index = build_index(index_cls, keys)
        result = BandJoin(index, 9).join(np.asarray([MAX_KEY], dtype=np.uint64))
        # MAX + 9 saturates to MAX; matches are keys in [MAX-9, MAX].
        np.testing.assert_array_equal(
            result.canonical().build_positions, [1, 2]
        )

    def test_empty_spans_outside_domain(self, index_cls):
        keys = np.asarray([2**32, 2**32 + 100], dtype=np.uint64)
        index = build_index(index_cls, keys)
        probes = np.asarray([0, 1000, MAX_KEY - np.uint64(5)], dtype=np.uint64)
        result = BandJoin(index, 3).join(probes)
        assert len(result) == 0
        assert result.probe_indices.dtype == np.int64

    def test_saturation_matches_reference(self, index_cls):
        """Overflow regime end to end: keys near 2^64, epsilon crossing
        the wrap line, checked against the bound_positions oracle."""
        keys = np.asarray(
            [MAX_KEY - np.uint64(g) for g in (0, 3, 9, 2**20, 2**33)][::-1],
            dtype=np.uint64,
        )
        index = build_index(index_cls, keys)
        probes = np.asarray(
            [MAX_KEY, MAX_KEY - np.uint64(2), np.uint64(0), np.uint64(2**33)],
            dtype=np.uint64,
        )
        for epsilon in (0, 2, 2**21, 2**63):
            result = BandJoin(index, epsilon).join(probes)
            expected = reference_join(index.column, probes, epsilon=epsilon)
            assert result.equals(expected), (
                f"{index_cls.name} saturation mismatch at epsilon={epsilon}"
            )


class TestSaturatingBandHelper:
    def test_scalar_epsilon_saturates_both_ends(self):
        lo, hi = saturating_band(
            np.asarray([3, MAX_KEY - np.uint64(2)], dtype=np.uint64), 7
        )
        np.testing.assert_array_equal(
            lo, [0, MAX_KEY - np.uint64(9)]
        )
        np.testing.assert_array_equal(hi, [10, MAX_KEY])

    def test_per_key_epsilon_array(self):
        lo, hi = saturating_band(
            np.asarray([100, 100], dtype=np.uint64),
            np.asarray([1, 50], dtype=np.uint64),
        )
        np.testing.assert_array_equal(lo, [99, 50])
        np.testing.assert_array_equal(hi, [101, 150])
