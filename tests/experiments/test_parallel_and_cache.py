"""Parallel sweep runner and session cache.

The contracts under test:

* serial and parallel sweeps produce bit-identical figures (same series,
  same notes) -- determinism is by construction, every point runs through
  :func:`repro.experiments.common.run_standard_point`;
* the session cache returns identical results with and without caching,
  shares one build across Zipf variants, and replays capacity failures;
* caching is off by default, so unrelated tests build independent
  environments.
"""

import pytest

from repro.config import SimulationConfig
from repro.errors import CapacityError
from repro.experiments import cache, common, fig3, fig5, nonequi
from repro.hardware.spec import V100_NVLINK2
from repro.indexes import BPlusTreeIndex, RadixSplineIndex

TINY_SIM = SimulationConfig(probe_sample=2**10)
TINY_SIZES = (0.5, 1.0)
TINY_INDEXES = (RadixSplineIndex,)


def series_dump(result):
    return [(s.label, list(s.x), list(s.y)) for s in result.series]


@pytest.fixture(autouse=True)
def _clean_cache():
    cache.clear()
    yield
    cache.enable(False)
    cache.clear()


class TestParallelRunner:
    def test_parallel_matches_serial_fig3(self):
        serial = fig3.run(
            r_sizes_gib=TINY_SIZES, sim=TINY_SIM, index_types=TINY_INDEXES
        )
        parallel = fig3.run(
            r_sizes_gib=TINY_SIZES,
            sim=TINY_SIM,
            index_types=TINY_INDEXES,
            workers=2,
        )
        for left, right in zip(serial, parallel):
            assert series_dump(left) == series_dump(right)
            assert left.notes == right.notes

    def test_parallel_matches_serial_fig5(self):
        serial = fig5.run(
            r_sizes_gib=TINY_SIZES, sim=TINY_SIM, index_types=TINY_INDEXES
        )
        parallel = fig5.run(
            r_sizes_gib=TINY_SIZES,
            sim=TINY_SIM,
            index_types=TINY_INDEXES,
            workers=2,
        )
        for left, right in zip(serial, parallel):
            assert series_dump(left) == series_dump(right)
            assert left.notes == right.notes

    def test_parallel_matches_serial_nonequi(self):
        """The non-equi sweep is bit-identical serial vs pooled -- the
        acceptance contract its CI bench-smoke diff relies on."""
        kwargs = dict(
            matches=(1.0, 4.0), window_tuples=(2**20,), thetas=(0.0,)
        )
        serial = nonequi.run(**kwargs)
        parallel = nonequi.run(workers=2, **kwargs)
        assert series_dump(serial) == series_dump(parallel)
        assert serial.notes == parallel.notes

    def test_skips_recorded_in_task_order(self):
        """Capacity skips surface as notes exactly as in the serial path."""
        result, _ = fig3.run(
            r_sizes_gib=(160.0,),
            sim=TINY_SIM,
            index_types=(BPlusTreeIndex,),
            workers=2,
        )
        assert any("skipped" in note for note in result.notes)

    def test_unknown_kind_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            common.run_standard_point(
                ("bogus", V100_NVLINK2, 2**20, None, TINY_SIM)
            )


class TestSessionCache:
    def test_disabled_by_default(self):
        assert not cache.is_enabled()
        env_a = common.make_environment(
            V100_NVLINK2, 2**20, index_cls=RadixSplineIndex, sim=TINY_SIM
        )
        env_b = common.make_environment(
            V100_NVLINK2, 2**20, index_cls=RadixSplineIndex, sim=TINY_SIM
        )
        assert env_a is not env_b

    def test_environment_shared_when_enabled(self):
        cache.enable()
        env_a = common.make_environment(
            V100_NVLINK2, 2**20, index_cls=RadixSplineIndex, sim=TINY_SIM
        )
        env_b = common.make_environment(
            V100_NVLINK2, 2**20, index_cls=RadixSplineIndex, sim=TINY_SIM
        )
        assert env_a is env_b
        assert cache.stats()["environment_hits"] == 1

    def test_zipf_variants_share_build(self):
        cache.enable()
        base = common.make_environment(
            V100_NVLINK2, 2**20, index_cls=RadixSplineIndex, sim=TINY_SIM
        )
        skewed = common.make_environment(
            V100_NVLINK2,
            2**20,
            index_cls=RadixSplineIndex,
            sim=TINY_SIM,
            zipf_theta=1.5,
        )
        assert skewed is not base
        assert skewed.index is base.index
        assert skewed.workload.zipf_theta == 1.5
        assert base.workload.zipf_theta == 0.0

    def test_capacity_error_replayed(self):
        cache.enable()
        r_tuples = common.gib_to_tuples(160.0)
        with pytest.raises(CapacityError):
            common.make_environment(
                V100_NVLINK2, r_tuples, index_cls=BPlusTreeIndex, sim=TINY_SIM
            )
        with pytest.raises(CapacityError):
            common.make_environment(
                V100_NVLINK2, r_tuples, index_cls=BPlusTreeIndex, sim=TINY_SIM
            )

    def test_cached_sweep_identical(self):
        plain = fig3.run(
            r_sizes_gib=(0.5,), sim=TINY_SIM, index_types=TINY_INDEXES
        )
        with cache.session():
            first = fig3.run(
                r_sizes_gib=(0.5,), sim=TINY_SIM, index_types=TINY_INDEXES
            )
            second = fig3.run(
                r_sizes_gib=(0.5,), sim=TINY_SIM, index_types=TINY_INDEXES
            )
        assert (
            series_dump(plain[0])
            == series_dump(first[0])
            == series_dump(second[0])
        )
        assert not cache.is_enabled()
