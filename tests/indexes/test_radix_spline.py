"""RadixSpline specifics, including the GreedySplineCorridor builder."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.data.column import KEY_DTYPE, MaterializedColumn, VirtualSortedColumn
from repro.data.relation import Relation
from repro.errors import ConfigurationError
from repro.hardware.memory import MemorySpace, SystemMemory
from repro.hardware.spec import V100_NVLINK2
from repro.indexes import TraceRecorder
from repro.indexes.radix_spline import RadixSplineIndex, greedy_spline_corridor
from repro.units import GIB, KEY_BYTES

from . import oracles


def interpolation_error(keys, point_keys, point_positions):
    """Max |predicted - true| of linear interpolation between points."""
    positions = np.arange(len(keys), dtype=np.float64)
    segment = np.clip(
        np.searchsorted(point_keys, keys, side="right") - 1,
        0,
        len(point_keys) - 2,
    )
    key_low = point_keys[segment].astype(np.float64)
    key_high = point_keys[segment + 1].astype(np.float64)
    pos_low = point_positions[segment].astype(np.float64)
    pos_high = point_positions[segment + 1].astype(np.float64)
    span = np.maximum(key_high - key_low, 1.0)
    predicted = pos_low + (keys.astype(np.float64) - key_low) / span * (
        pos_high - pos_low
    )
    return float(np.abs(predicted - positions).max())


class TestGreedySplineCorridor:
    def test_linear_data_needs_two_points(self):
        keys = np.arange(0, 8000, 8, dtype=np.uint64)
        point_keys, point_positions = greedy_spline_corridor(keys, max_error=4)
        assert len(point_keys) == 2
        assert point_positions[0] == 0
        assert point_positions[-1] == len(keys) - 1

    def test_error_stays_near_bound(self, rng):
        """The greedy chord can exceed the corridor at interior points
        (see measure_spline_error), but only by a small constant factor."""
        gaps = rng.integers(1, 100, size=5000).astype(np.uint64)
        keys = np.cumsum(gaps).astype(np.uint64)
        for max_error in (2, 8, 32):
            point_keys, point_positions = greedy_spline_corridor(
                keys, max_error=max_error
            )
            assert interpolation_error(
                keys, point_keys, point_positions
            ) <= 3 * max_error + 1

    def test_larger_error_fewer_points(self, rng):
        gaps = rng.integers(1, 100, size=5000).astype(np.uint64)
        keys = np.cumsum(gaps).astype(np.uint64)
        tight = greedy_spline_corridor(keys, max_error=2)[0]
        loose = greedy_spline_corridor(keys, max_error=64)[0]
        assert len(loose) <= len(tight)

    def test_endpoints_included(self, rng):
        gaps = rng.integers(1, 50, size=1000).astype(np.uint64)
        keys = np.cumsum(gaps).astype(np.uint64)
        point_keys, point_positions = greedy_spline_corridor(keys, max_error=8)
        assert point_keys[0] == keys[0] and point_keys[-1] == keys[-1]
        assert point_positions[0] == 0 and point_positions[-1] == len(keys) - 1

    def test_tiny_inputs(self):
        for n in (1, 2):
            keys = np.arange(n, dtype=np.uint64) * 10
            point_keys, point_positions = greedy_spline_corridor(keys, 4)
            assert len(point_keys) == n

    def test_rejects_bad_error(self):
        with pytest.raises(ConfigurationError):
            greedy_spline_corridor(np.array([1, 2], dtype=np.uint64), 0)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            greedy_spline_corridor(np.array([], dtype=np.uint64), 4)


def implicit_spline(index):
    """Keys and positions of a virtual column's implicit spline points."""
    points = np.arange(index.num_spline_points)
    return index._spline_key_at(points), index._spline_position_at(points)


class TestUniformSpline:
    """The uniform spline a virtual column gets, and the measured error
    bound a materialized column's spline gets instead."""

    def test_virtual_column_error_is_one(self):
        column = VirtualSortedColumn(2**16, stride=4)
        index = RadixSplineIndex(Relation(name="R", column=column))
        assert index._uniform_interval == 1024
        keys, positions = implicit_spline(index)
        all_keys = column.key_at(np.arange(len(column)))
        assert interpolation_error(all_keys, keys, positions) <= 1

    def test_materialized_error_measured(self, rng):
        gaps = rng.integers(1, 100, size=4096).astype(np.uint64)
        column = MaterializedColumn(np.cumsum(gaps).astype(np.uint64))
        index = RadixSplineIndex(Relation(name="R", column=column), max_error=4)
        assert interpolation_error(
            column.keys, index.spline_keys, index.spline_positions
        ) <= index.error_bound

    def test_last_position_included(self):
        column = VirtualSortedColumn(1000, stride=4)
        index = RadixSplineIndex(Relation(name="R", column=column), max_error=17)
        assert index._uniform_interval == 289
        __, positions = implicit_spline(index)
        assert positions[-1] == 999


class TestRadixSplineIndex:
    def test_auto_fit_greedy_for_materialized(self, small_relation):
        index = RadixSplineIndex(small_relation)
        keys, positions = greedy_spline_corridor(small_relation.column.keys, 32)
        np.testing.assert_array_equal(index.spline_keys, keys)
        np.testing.assert_array_equal(index.spline_positions, positions)
        assert index._uniform_interval is None

    def test_auto_fit_uniform_for_virtual(self, virtual_relation):
        index = RadixSplineIndex(virtual_relation, max_error=32)
        assert index._uniform_interval == 32**2
        assert index.spline_keys is None and index.spline_positions is None

    def test_spline_density_is_realistic(self, virtual_relation):
        """Virtual columns must not get an unrealistically sparse spline
        (DESIGN.md: interval defaults to max_error**2)."""
        index = RadixSplineIndex(virtual_relation, max_error=32)
        expected_points = len(virtual_relation.column) / 32**2
        assert index.num_spline_points == pytest.approx(expected_points, rel=0.01)

    def test_footprint_includes_table_and_points(self, small_relation):
        index = RadixSplineIndex(small_relation)
        assert index.footprint_bytes >= len(index.radix_table) * 8

    def test_radix_table_bounded(self, virtual_relation):
        index = RadixSplineIndex(virtual_relation, radix_bits=18)
        assert len(index.radix_table) <= 2**18 + 2

    def test_radix_table_monotone(self, small_relation):
        index = RadixSplineIndex(small_relation)
        table = index.radix_table
        assert np.all(np.diff(table) >= 0)

    def test_max_error_controls_search_window(self, small_relation):
        tight = RadixSplineIndex(small_relation, max_error=2)
        loose = RadixSplineIndex(small_relation, max_error=64)
        assert tight.error_bound <= loose.error_bound

    def test_rejects_bad_radix_bits(self, small_relation):
        with pytest.raises(ConfigurationError):
            RadixSplineIndex(small_relation, radix_bits=0)
        with pytest.raises(ConfigurationError):
            RadixSplineIndex(small_relation, radix_bits=40)

    def test_rejects_bad_max_error(self, small_relation):
        with pytest.raises(ConfigurationError):
            RadixSplineIndex(small_relation, max_error=0)

    def test_static_only(self):
        assert RadixSplineIndex.supports_updates is False


@settings(max_examples=20, deadline=None)
@given(
    size=st.integers(min_value=3, max_value=2000),
    max_error=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_greedy_corridor_property(size, max_error, seed):
    """Knots are a data subsequence and the index's measured bound is a
    true bound on the interpolation error, for arbitrary sorted data."""
    from repro.indexes.radix_spline import measure_spline_error

    rng = np.random.default_rng(seed)
    gaps = rng.integers(1, 1000, size=size).astype(np.uint64)
    keys = np.cumsum(gaps).astype(np.uint64)
    point_keys, point_positions = greedy_spline_corridor(keys, max_error)
    measured = measure_spline_error(keys, point_keys, point_positions)
    assert interpolation_error(keys, point_keys, point_positions) <= measured
    # Spline points are a subsequence of the data.
    assert np.all(np.isin(point_keys, keys))
    assert point_positions[0] == 0 and point_positions[-1] == size - 1


class TestLargeKeyRegressions:
    """Named regression tests for bugs surfaced by the differential
    suite (tests/indexes/test_differential.py)."""

    @staticmethod
    def _oracle(keys, probes):
        positions = np.searchsorted(keys, probes)
        clamped = np.minimum(positions, len(keys) - 1)
        hit = (positions < len(keys)) & (keys[clamped] == probes)
        return np.where(hit, positions, -1).astype(np.int64)

    def test_regression_adjacent_large_keys_build(self):
        """Keys near 2^62 with gap 3 used to abort the corridor builder.

        ``greedy_spline_corridor`` subtracted keys *after* converting to
        float64; at 2^62 the float64 ulp is 1024, so a gap of 3 rounded
        to dx = 0 and the builder raised "keys must be strictly
        increasing" on perfectly valid input.  Deltas are now formed on
        exact integers before the float division.
        """
        keys = (np.uint64(2**62) + np.arange(100, dtype=np.uint64) * 3).astype(
            np.uint64
        )
        point_keys, point_positions = greedy_spline_corridor(keys, max_error=4)
        assert point_positions[-1] == len(keys) - 1
        from repro.data.relation import Relation

        index = RadixSplineIndex(
            Relation(name="R", column=MaterializedColumn(keys))
        )
        probes = np.concatenate([keys, keys + np.uint64(1)])
        np.testing.assert_array_equal(
            index.lookup(probes), self._oracle(keys, probes)
        )

    def test_regression_high_bit_keys_radix_table(self):
        """Keys at or above 2^63 used to wrap in the radix table.

        Prefix computation cast keys to int64 *before* subtracting the
        domain minimum; keys >= 2^63 became negative, producing garbage
        table slots.  Subtraction now happens in uint64.
        """
        rng = np.random.default_rng(13)
        keys = np.unique(
            (np.uint64(2**63 + 17) + rng.integers(0, 2**20, 500)).astype(
                np.uint64
            )
        )
        from repro.data.relation import Relation

        index = RadixSplineIndex(
            Relation(name="R", column=MaterializedColumn(keys))
        )
        probes = np.concatenate(
            [keys[::3], keys[::5] + np.uint64(1), keys[:1] - np.uint64(1)]
        )
        np.testing.assert_array_equal(
            index.lookup(probes), self._oracle(keys, probes)
        )

    def test_regression_out_of_domain_probe_overflow(self):
        """A probe far above the domain used to overflow the int cast.

        The interpolation estimate for an out-of-domain probe (e.g.
        2^64 - 1 against a small-key relation) exceeded the int64 range
        and the float->int cast raised "invalid value encountered in
        cast".  The estimate is now clamped in float space first; the
        probe is a clean miss, warning-free.
        """
        import warnings

        keys = np.arange(0, 4000, 4, dtype=np.uint64)
        from repro.data.relation import Relation

        index = RadixSplineIndex(
            Relation(name="R", column=MaterializedColumn(keys))
        )
        probes = np.asarray(
            [np.iinfo(np.uint64).max, 2**63, 3996, 3997], dtype=np.uint64
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = index.lookup(probes)
        np.testing.assert_array_equal(result, [-1, -1, 999, -1])


#: A host large enough to place any index next to a 111 GiB relation.
ROOMY = dataclasses.replace(
    V100_NVLINK2,
    cpu=dataclasses.replace(V100_NVLINK2.cpu, memory_capacity_bytes=2**50),
)

#: The bisecting table build reads every 64th spline point first; this
#: many points keeps that pass to 2^16 reads.
MAX_SPLINE_POINTS = 2**22

#: The R sizes the figures sweep, in GiB.
SWEEP_GIB = (1, 8, 16, 32, 48, 100, 111)


@st.composite
def virtual_geometries(draw):
    """(column, max_error, radix_bits) of an implicit spline."""
    max_error = draw(st.sampled_from((1, 2, 5, 32)))
    limit = max(2, max_error**2) * MAX_SPLINE_POINTS
    sweep_sizes = [gib * GIB // KEY_BYTES for gib in SWEEP_GIB]
    num_keys = draw(
        st.one_of(
            st.integers(2, 5000),
            st.integers(2, limit),
            st.sampled_from([n for n in sweep_sizes if n <= limit] or [limit]),
        )
    )
    stride = draw(st.sampled_from((1, 2, 3, 4, 9, 2**20)))
    # Offsets up to the top of the 63-bit virtual domain.
    offset = draw(st.integers(0, 2**63 - 1 - num_keys * stride))
    column = VirtualSortedColumn(
        num_keys, stride=stride, offset=offset, seed=draw(st.integers(0, 3))
    )
    return column, max_error, draw(st.integers(1, 18))


def spline_probes(index, rng):
    """Members, spline-point keys, radix-slot bounds, their neighbours,
    and keys outside the domain up to 2^64 - 1."""
    column = index.column
    n = len(column)
    members = column.key_at(rng.integers(0, n, size=64))
    points = column.key_at(
        np.minimum(
            rng.integers(0, index.num_spline_points, size=32)
            * index._uniform_interval,
            n - 1,
        )
    )
    slots = rng.integers(0, len(index.radix_table), size=32).astype(np.uint64)
    bounds = np.uint64(index._min_key) + (slots << np.uint64(index._shift))
    with np.errstate(over="ignore"):
        near = np.concatenate(
            [
                keys + delta
                for keys in (members, points, bounds)
                for delta in (np.uint64(1), np.uint64(2**64 - 1))
            ]
        )
    lo, hi = column.min_key, column.max_key
    extremes = np.asarray(
        [0, 1, max(lo - 1, 0), lo, hi, hi + 1, 2**63 - 1, 2**63, 2**63 + 1,
         2**64 - 2, 2**64 - 1],
        dtype=KEY_DTYPE,
    )
    wide = rng.integers(0, 2**64 - 1, size=16, dtype=np.uint64, endpoint=True)
    return np.concatenate([members, points, bounds, near, extremes, wide])


def traced_prediction(index, predict, keys):
    """Prediction, recorded steps and spline rounds of one call."""
    was_enabled = obs.enabled()
    obs.enable()
    obs.reset()
    try:
        recorder = TraceRecorder(len(keys))
        estimate = predict(keys, recorder)
        rounds = obs.counter("index.spline_search_rounds", index=index.name)
    finally:
        obs.enable(was_enabled)
        obs.reset()
    return estimate, recorder.build().step_addresses, rounds


class TestRankDerivedSpline:
    """The implicit spline's radix table and spline-point search, derived
    from column ranks, against the bisections over on-demand spline keys
    they replaced (``oracles.radix_spline_radix_table`` and
    ``oracles.radix_spline_predict``): equal tables, predictions,
    recorded spline addresses and ``index.spline_search_rounds``."""

    @given(geometry=virtual_geometries(), probe_seed=st.integers(0, 2**32 - 1))
    def test_matches_the_bisecting_build_and_search(self, geometry, probe_seed):
        column, max_error, radix_bits = geometry
        memory = SystemMemory(ROOMY)
        relation = Relation(name="R", column=column)
        relation.place(memory, MemorySpace.HOST)
        index = RadixSplineIndex(
            relation, max_error=max_error, radix_bits=radix_bits
        )
        index.place(memory)
        np.testing.assert_array_equal(
            index.radix_table, oracles.radix_spline_radix_table(index)
        )
        keys = spline_probes(index, np.random.default_rng(probe_seed))

        def rank_first(keys, recorder):
            lower = index.column.bound_positions(keys)
            return index._predict(keys, lower, recorder)

        def bisecting(keys, recorder):
            return oracles.radix_spline_predict(index, keys, recorder)

        expected, expected_steps, expected_rounds = traced_prediction(
            index, bisecting, keys
        )
        estimate, steps, rounds = traced_prediction(index, rank_first, keys)
        np.testing.assert_array_equal(estimate, expected)
        np.testing.assert_array_equal(steps, expected_steps)
        assert rounds == expected_rounds
        assert not obs.enabled()
        np.testing.assert_array_equal(rank_first(keys, None), expected)

    @pytest.mark.parametrize("gib", SWEEP_GIB)
    def test_sweep_tables_match_the_bisecting_build(self, gib):
        """Every R size the figures sweep, at the default geometry."""
        column = VirtualSortedColumn(gib * GIB // KEY_BYTES, stride=4)
        index = RadixSplineIndex(Relation(name="R", column=column))
        np.testing.assert_array_equal(
            index.radix_table, oracles.radix_spline_radix_table(index)
        )
