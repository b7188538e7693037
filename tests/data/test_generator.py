"""Workload generators."""

import numpy as np
import pytest

from repro.data.generator import (
    ProbeSet,
    WorkloadConfig,
    make_build_relation,
    make_ordered_probe_sample,
    make_probe_keys,
    make_workload,
)
from repro.errors import WorkloadError


class TestWorkloadConfig:
    def test_defaults_match_paper(self):
        config = WorkloadConfig(r_tuples=2**30)
        assert config.s_tuples == 2**26
        assert config.match_rate == 1.0
        assert config.zipf_theta == 0.0

    def test_selectivity(self):
        config = WorkloadConfig(r_tuples=2**28, s_tuples=2**26)
        assert config.join_selectivity == pytest.approx(0.25)

    def test_selectivity_capped(self):
        config = WorkloadConfig(r_tuples=2**10, s_tuples=2**26)
        assert config.join_selectivity == 1.0

    def test_paper_crossover_selectivities(self):
        # 8.0% at 6.2 GiB and 3.6% at 13.9 GiB (Section 5.2.3).
        gib = 2**30
        at_6_2 = WorkloadConfig(r_tuples=int(6.2 * gib / 8))
        at_13_9 = WorkloadConfig(r_tuples=int(13.9 * gib / 8))
        assert at_6_2.join_selectivity == pytest.approx(0.080, abs=0.002)
        assert at_13_9.join_selectivity == pytest.approx(0.036, abs=0.002)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r_tuples=0),
            dict(r_tuples=10, s_tuples=0),
            dict(r_tuples=10, match_rate=1.5),
            dict(r_tuples=10, match_rate=-0.1),
            dict(r_tuples=10, zipf_theta=-1),
            dict(r_tuples=10, match_rate=0.5, stride=2),
            dict(r_tuples=10, zipf_theta=float("nan")),
            dict(r_tuples=10, zipf_theta=float("inf")),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(WorkloadError):
            WorkloadConfig(**kwargs)


class TestBuildRelation:
    def test_unique_sorted_keys(self):
        config = WorkloadConfig(r_tuples=2**12, seed=1)
        relation = make_build_relation(config)
        keys = relation.column.key_at(np.arange(2**12))
        assert np.all(keys[:-1] < keys[1:])

    def test_named_r(self):
        relation = make_build_relation(WorkloadConfig(r_tuples=16))
        assert relation.name == "R"


class TestProbeKeys:
    def test_all_match_at_rate_one(self):
        config = WorkloadConfig(r_tuples=2**12, seed=2)
        relation, probes = make_workload(config, probe_count=512)
        assert probes.num_matches == 512
        looked_up = relation.column.rank_of(probes.keys)
        assert np.array_equal(looked_up, probes.expected_positions)

    def test_match_rate_honored(self):
        config = WorkloadConfig(r_tuples=2**14, match_rate=0.5, seed=3)
        relation, probes = make_workload(config, probe_count=4096)
        fraction = probes.num_matches / len(probes)
        assert fraction == pytest.approx(0.5, abs=0.05)

    def test_non_matching_keys_absent_from_r(self):
        config = WorkloadConfig(r_tuples=2**14, match_rate=0.5, seed=3)
        relation, probes = make_workload(config, probe_count=4096)
        misses = probes.expected_positions < 0
        assert np.all(relation.column.rank_of(probes.keys[misses]) == -1)

    def test_reproducible(self):
        config = WorkloadConfig(r_tuples=2**12, seed=9)
        relation = make_build_relation(config)
        a = make_probe_keys(relation.column, config, count=256)
        b = make_probe_keys(relation.column, config, count=256)
        assert np.array_equal(a.keys, b.keys)

    def test_zipf_probes_repeat_hot_keys(self):
        config = WorkloadConfig(r_tuples=2**16, zipf_theta=1.5, seed=4)
        relation = make_build_relation(config)
        probes = make_probe_keys(relation.column, config, count=4096)
        __, counts = np.unique(probes.keys, return_counts=True)
        assert counts.max() > 50  # a hot key dominates

    def test_uniform_probes_rarely_repeat(self):
        config = WorkloadConfig(r_tuples=2**20, seed=4)
        relation = make_build_relation(config)
        probes = make_probe_keys(relation.column, config, count=4096)
        __, counts = np.unique(probes.keys, return_counts=True)
        assert counts.max() <= 3

    def test_rejects_zero_count(self):
        config = WorkloadConfig(r_tuples=2**12)
        relation = make_build_relation(config)
        with pytest.raises(WorkloadError):
            make_probe_keys(relation.column, config, count=0)


class TestProbeSet:
    def test_length_mismatch_rejected(self):
        with pytest.raises(WorkloadError):
            ProbeSet(
                keys=np.zeros(3, dtype=np.uint64),
                expected_positions=np.zeros(2, dtype=np.int64),
            )


class TestOrderedSample:
    def test_sorted_by_key(self):
        config = WorkloadConfig(r_tuples=2**20, seed=5)
        relation = make_build_relation(config)
        sample = make_ordered_probe_sample(
            relation.column, config, window_tuples=2**16, count=2**10
        )
        assert np.all(sample.keys[:-1] <= sample.keys[1:])

    def test_density_preserved(self):
        """Sample spacing must match |R| / W, not |R| / count."""
        config = WorkloadConfig(r_tuples=2**20, seed=5)
        relation = make_build_relation(config)
        window = 2**16
        count = 2**10
        sample = make_ordered_probe_sample(
            relation.column, config, window_tuples=window, count=count
        )
        covered = int(sample.expected_positions.max())
        expected_segment = config.r_tuples * count / window
        assert covered == pytest.approx(expected_segment, rel=0.2)

    def test_zipf_sample_repeats_like_a_real_window(self):
        config = WorkloadConfig(r_tuples=2**20, zipf_theta=1.25, seed=5)
        relation = make_build_relation(config)
        sample = make_ordered_probe_sample(
            relation.column, config, window_tuples=2**18, count=2**10
        )
        __, counts = np.unique(sample.keys, return_counts=True)
        assert counts.max() > 5  # hot keys duplicated within the window

    def test_count_clamped_to_window(self):
        config = WorkloadConfig(r_tuples=2**16, seed=5)
        relation = make_build_relation(config)
        sample = make_ordered_probe_sample(
            relation.column, config, window_tuples=64, count=2**12
        )
        assert len(sample) <= 4 * 64

    def test_expected_positions_correct(self):
        config = WorkloadConfig(r_tuples=2**16, seed=6)
        relation = make_build_relation(config)
        sample = make_ordered_probe_sample(
            relation.column, config, window_tuples=2**12, count=2**8
        )
        assert np.array_equal(
            relation.column.rank_of(sample.keys), sample.expected_positions
        )

    def test_rejects_bad_inputs(self):
        config = WorkloadConfig(r_tuples=2**12)
        relation = make_build_relation(config)
        with pytest.raises(WorkloadError):
            make_ordered_probe_sample(
                relation.column, config, window_tuples=0, count=10
            )
        with pytest.raises(WorkloadError):
            make_ordered_probe_sample(
                relation.column, config, window_tuples=10, count=0
            )
