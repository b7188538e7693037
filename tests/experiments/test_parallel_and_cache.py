"""Parallel sweep runner and session cache.

The contracts under test:

* serial and parallel sweeps produce bit-identical figures (same series,
  same notes) -- determinism is by construction, every figure's points
  run through :func:`repro.experiments.common.run_point`;
* a point's label keeps the name existing ``match=`` fault plans select;
* the session cache returns identical results with and without caching,
  shares one build across Zipf variants, and replays capacity failures;
* caching is off by default, so unrelated tests build independent
  environments.
"""

import pytest

from repro.config import SimulationConfig
from repro.errors import CapacityError
from repro.experiments import cache, common, fig3, fig5, fig7, fig8, fig9, nonequi
from repro.hardware.spec import A100_PCIE4, V100_NVLINK2
from repro.indexes import BPlusTreeIndex, HarmoniaIndex, RadixSplineIndex
from repro.units import MIB

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

    @pytest.mark.parametrize(
        "run",
        [
            lambda **kw: fig7.run(
                r_gib=2.0, window_tuples=(2**16, 2**18), sim=TINY_SIM,
                index_types=TINY_INDEXES, **kw,
            ),
            lambda **kw: fig8.run(
                r_gib=2.0, thetas=(0.0, 1.5), sim=TINY_SIM,
                index_types=TINY_INDEXES, **kw,
            ),
            lambda **kw: fig9.run(
                r_sizes_gib=(2.0, 8.0), sim=TINY_SIM,
                index_types=TINY_INDEXES, **kw,
            ),
        ],
        ids=["fig7", "fig8", "fig9"],
    )
    def test_parallel_matches_serial_windowed_figures(self, run):
        serial = run()
        parallel = run(workers=2)
        assert series_dump(serial) == series_dump(parallel)
        assert serial.notes == parallel.notes

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

        with pytest.raises(ConfigurationError, match="bogus"):
            common.run_point(
                common.Point("bogus", V100_NVLINK2, 2**20, sim=TINY_SIM)
            )


class TestPointLabels:
    def test_standard_labels_keep_their_names(self):
        """``match=`` fault plans written against the old point names
        select the same points (band labels: ``TestNonEqui``)."""
        r_tuples = 2**20
        assert [
            common.Point("inlj", V100_NVLINK2, r_tuples, RadixSplineIndex).label,
            common.Point("partitioned", V100_NVLINK2, r_tuples, BPlusTreeIndex).label,
            common.Point("hash", V100_NVLINK2, r_tuples).label,
        ] == [
            "inlj:RadixSplineIndex:1048576",
            "partitioned:BPlusTreeIndex:1048576",
            "hash:none:1048576",
        ]

    def test_windowed_figure_labels_are_distinct(self):
        """Every point of the Fig. 7/8/9 axes has a label of its own."""
        points = [
            common.Point(
                "windowed", spec, r_tuples, index_cls,
                zipf_theta=theta, window_bytes=window_mib * MIB,
            )
            for spec in (V100_NVLINK2, A100_PCIE4)
            for r_tuples in (2**20, 2**21)
            for index_cls in (RadixSplineIndex, HarmoniaIndex)
            for theta in (0.0, 1.0)
            for window_mib in (2, 32)
        ] + [
            common.Point("hash", spec, r_tuples, zipf_theta=theta)
            for spec in (V100_NVLINK2, A100_PCIE4)
            for r_tuples in (2**20, 2**21)
            for theta in (0.0, 1.0)
        ]
        labels = [point.label for point in points]
        assert len(set(labels)) == len(labels)
        assert (
            common.Point(
                "windowed", A100_PCIE4, 2**20, RadixSplineIndex,
                zipf_theta=1.5, window_bytes=32 * MIB,
            ).label
            == "windowed:RadixSplineIndex:1048576:w33554432:z1.5@PCI-e 4.0"
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

    def test_repeated_hash_estimates_keep_fitting(self):
        """Regression: estimates reserved device memory on the cached
        environment, which its Zipf variants share, so a long session
        ran out -- the 17th 2 GiB hash table found the V100's 32 GiB full
        and the point was skipped.  Estimates now only check capacity."""
        r_tuples = common.gib_to_tuples(1.0)
        with cache.session():
            outcomes = [
                common.run_point(
                    common.Point(
                        "hash", V100_NVLINK2, r_tuples, sim=TINY_SIM,
                        zipf_theta=theta,
                    )
                )
                for theta in (0.0, 1.0) * 10
            ]
        assert [status for status, _ in outcomes] == ["ok"] * 20
        assert len({cost.seconds for _, cost in outcomes}) == 2

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
