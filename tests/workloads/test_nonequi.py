"""Band width for a target selectivity: inversion and degenerate cases."""

import numpy as np
import pytest

from repro.data.column import MaterializedColumn
from repro.errors import WorkloadError
from repro.workloads.nonequi import band_epsilon_for_matches


@pytest.fixture
def column():
    return MaterializedColumn(np.arange(1, 2**12, 4, dtype=np.uint64))


class TestEpsilonInversion:
    def test_round_trips_through_expected_matches(self, column):
        from repro.join.nonequi import expected_band_matches

        for matches in (1.0, 4.0, 16.0):
            epsilon = band_epsilon_for_matches(column, matches)
            recovered = expected_band_matches(column, epsilon)
            assert recovered == pytest.approx(matches, rel=0.01)

    def test_degenerate_cases(self, column):
        assert band_epsilon_for_matches(column, 1.0) == 0
        singleton = MaterializedColumn(np.asarray([7], dtype=np.uint64))
        assert band_epsilon_for_matches(singleton, 4.0) == 0
        with pytest.raises(WorkloadError):
            band_epsilon_for_matches(column, 0.0)
