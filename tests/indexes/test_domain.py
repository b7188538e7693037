"""The clamped float->int64 cast helper behind the NP002 sanitizer."""

import warnings

import numpy as np
import pytest

from repro.indexes.domain import clamped_int64


class TestClampedInt64:
    def test_in_range_values_round_half_even(self):
        values = np.array([0.4, 0.5, 1.5, 2.49, 7.0])
        result = clamped_int64(values, 0.0, 10.0)
        # np.rint rounds half to even, matching the spline's previous
        # inline rint-then-cast behavior exactly.
        np.testing.assert_array_equal(
            result, np.array([0, 0, 2, 2, 7], dtype=np.int64)
        )
        assert result.dtype == np.int64

    def test_out_of_range_values_clamp_to_the_domain(self):
        values = np.array([-1e30, -0.6, 5.0, 1e300, np.inf, -np.inf])
        result = clamped_int64(values, 0.0, 9.0)
        np.testing.assert_array_equal(
            result, np.array([0, 0, 5, 9, 9, 0], dtype=np.int64)
        )

    def test_overflow_magnitude_casts_warning_free(self):
        # The PR-5 failure shape: a spline extrapolation past 2**63.
        # Unclamped, numpy warns "invalid value encountered in cast"
        # and the result is undefined; clamped, it is exact and silent.
        values = np.array([2.0**64, 2.0**70])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = clamped_int64(values, 0.0, 999.0)
        np.testing.assert_array_equal(
            result, np.array([999, 999], dtype=np.int64)
        )

    def test_matches_the_previous_inline_sequence(self):
        # Bit-identity with the code it replaced in the RadixSpline
        # probe: clip to [0, n-1], rint, cast.
        rng = np.random.default_rng(9)
        n = 1000
        predicted = rng.uniform(-50.0, float(n) + 50.0, size=4096)
        old = np.rint(np.clip(predicted, 0.0, float(n - 1))).astype(np.int64)
        np.testing.assert_array_equal(
            clamped_int64(predicted, 0.0, float(n - 1)), old
        )

    def test_exported_from_the_package(self):
        from repro.indexes import clamped_int64 as exported

        assert exported is clamped_int64

    @pytest.mark.parametrize("power", [0, 1, 13, 37, 62, 63])
    def test_log2_of_a_power_of_two_is_exact(self, power):
        # A lower-bound extraction by log2: a power of two in [1, 2^63]
        # must come back as exactly that power.
        block = np.array([np.uint64(1) << np.uint64(power)])
        shift = clamped_int64(np.log2(block.astype(np.float64)), 0.0, 63.0)
        np.testing.assert_array_equal(
            shift, np.array([power], dtype=np.int64)
        )
