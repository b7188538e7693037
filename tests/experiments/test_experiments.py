"""Experiment harness: tiny-configuration runs of every module.

These tests run each experiment with reduced sweeps to verify plumbing
(series populated, notes attached, derived quantities sane); the full
paper-shape assertions live in tests/test_paper_shapes.py.
"""

import io

import pytest

from repro.config import SimulationConfig
from repro.experiments import (
    common,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    nonequi,
    table1,
)
from repro.experiments.runner import run_report
from repro.hardware.spec import A100_PCIE4, V100_NVLINK2
from repro.indexes import HarmoniaIndex, RadixSplineIndex
from repro.perf.report import Series

TINY_SIM = SimulationConfig(probe_sample=2**10)
TINY_SIZES = (0.5, 2.0)
TINY_INDEXES = (RadixSplineIndex, HarmoniaIndex)


class TestCommon:
    def test_gib_to_tuples(self):
        assert common.gib_to_tuples(0.5) == 2**26

    def test_make_environment(self):
        env = common.make_environment(
            V100_NVLINK2, 2**20, index_cls=RadixSplineIndex, sim=TINY_SIM
        )
        assert env.index is not None

    def test_default_partitioner_is_2048_way(self):
        env = common.make_environment(V100_NVLINK2, 2**24, sim=TINY_SIM)
        partitioner = common.default_partitioner(env.column)
        assert partitioner.bits.num_partitions == 2048

    def test_experiment_result_text(self):
        result = common.ExperimentResult(
            name="figX", title="demo", x_label="R"
        )
        series = Series("a")
        series.append(1, 2)
        result.series.append(series)
        result.notes.append("hello")
        text = result.to_text()
        assert "figX" in text and "hello" in text


class TestTable1:
    def test_five_rows(self):
        assert len(table1.rows()) == 5

    def test_render_contains_bandwidths(self):
        text = table1.run()
        for value in ("32 GB/s", "64 GB/s", "72 GB/s", "75 GB/s", "450 GB/s"):
            assert value in text


class TestFig3And4:
    def test_returns_both_results(self):
        throughput, requests = fig3.run(
            r_sizes_gib=TINY_SIZES, sim=TINY_SIM, index_types=TINY_INDEXES
        )
        assert throughput.name == "fig3"
        assert requests.name == "fig4"
        labels = {series.label for series in throughput.series}
        assert "hash join" in labels
        assert "RadixSpline" in labels

    def test_series_cover_all_sizes(self):
        throughput, __ = fig3.run(
            r_sizes_gib=TINY_SIZES, sim=TINY_SIM, index_types=TINY_INDEXES
        )
        for series in throughput.series:
            assert len(series) == len(TINY_SIZES)


class TestFig5And6:
    def test_partitioned_series(self):
        throughput, requests = fig5.run(
            r_sizes_gib=TINY_SIZES, sim=TINY_SIM, index_types=TINY_INDEXES
        )
        assert any("x over the hash join" in note for note in throughput.notes)
        assert len(requests.series) == len(TINY_INDEXES)

    def test_fig6_percentages(self):
        result = fig6.run(
            r_sizes_gib=TINY_SIZES,
            naive_sim=TINY_SIM,
            ordered_sim=TINY_SIM,
            index_types=TINY_INDEXES,
        )
        for series in result.series:
            assert all(0.0 <= y <= 100.0 for y in series.y)

    def test_fig6_accepts_precomputed_inputs(self):
        __, naive = fig3.run(
            r_sizes_gib=TINY_SIZES, sim=TINY_SIM, index_types=TINY_INDEXES
        )
        __, partitioned = fig5.run(
            r_sizes_gib=TINY_SIZES, sim=TINY_SIM, index_types=TINY_INDEXES,
            include_hash_join=False,
        )
        result = fig6.run(
            index_types=TINY_INDEXES,
            naive_requests=naive,
            partitioned_requests=partitioned,
        )
        assert len(result.series) == len(TINY_INDEXES)


class TestFig7:
    def test_window_sweep(self):
        result = fig7.run(
            r_gib=2.0,
            window_tuples=(2**16, 2**18),
            sim=TINY_SIM,
            index_types=TINY_INDEXES,
        )
        assert all(len(series) == 2 for series in result.series)
        assert any("best at" in note for note in result.notes)


class TestFig8:
    def test_skew_sweep(self):
        result = fig8.run(
            r_gib=2.0,
            thetas=(0.0, 1.5),
            sim=TINY_SIM,
            index_types=TINY_INDEXES,
        )
        labels = {series.label for series in result.series}
        assert "hash join" in labels
        assert any("69%" in note or "hot-set" in note for note in result.notes)

    def test_hash_join_dnf_recorded_at_high_skew(self):
        result = fig8.run(
            r_gib=8.0,
            thetas=(1.75,),
            sim=TINY_SIM,
            index_types=(RadixSplineIndex,),
        )
        assert any("DNF" in note for note in result.notes)


class TestFig9:
    def test_both_machines_reported(self):
        result = fig9.run(
            specs=(V100_NVLINK2, A100_PCIE4),
            r_sizes_gib=(2.0, 8.0),
            sim=TINY_SIM,
            index_types=(RadixSplineIndex,),
        )
        labels = {series.label for series in result.series}
        assert any("NVLink" in label for label in labels)
        assert any("PCI-e" in label for label in labels)
        assert len(result.notes) >= 2

    def test_find_crossover_interpolates(self):
        # Tie at x=2, win at x=3: the sign change sits exactly at the tie.
        inlj = Series("inlj")
        hash_join = Series("hash")
        for x, (a, b) in {1: (1.0, 3.0), 2: (2.0, 2.0), 3: (3.0, 1.0)}.items():
            inlj.append(x, a)
            hash_join.append(x, b)
        crossover = fig9.find_crossover(inlj, hash_join)
        assert crossover == pytest.approx(2.0)

    def test_find_crossover_midpoint(self):
        inlj = Series("inlj")
        hash_join = Series("hash")
        for x, (a, b) in {1: (1.0, 3.0), 3: (3.0, 1.0)}.items():
            inlj.append(x, a)
            hash_join.append(x, b)
        crossover = fig9.find_crossover(inlj, hash_join)
        assert crossover == pytest.approx(2.0)

    def test_find_crossover_none(self):
        inlj = Series("inlj")
        hash_join = Series("hash")
        inlj.append(1, 1.0)
        hash_join.append(1, 2.0)
        assert fig9.find_crossover(inlj, hash_join) is None


class TestNonEqui:
    def test_band_sweep_series_and_notes(self):
        result = nonequi.run(
            matches=(1.0, 4.0), window_tuples=(2**20,), thetas=(0.0,)
        )
        by_label = result.series_by_label()
        assert set(by_label) == {"naive z=0", "windowed 8 MiB z=0"}
        assert by_label["naive z=0"].x == [1.0, 4.0]
        # The windowed variant wins at every selectivity of this point.
        for naive_qps, windowed_qps in zip(
            by_label["naive z=0"].y, by_label["windowed 8 MiB z=0"].y
        ):
            assert windowed_qps > naive_qps
        # Replay-counter attribution rides along as notes.
        attribution = [n for n in result.notes if "divergence replays" in n]
        assert len(attribution) == 2
        assert any("cold faults" in n for n in attribution)
        assert any(n.startswith("z=0: best windowed") for n in result.notes)

    def test_epsilon_grows_with_matches(self):
        result = nonequi.run(
            matches=(1.0, 16.0), window_tuples=(2**20,), thetas=(0.0,)
        )
        assert result.series_by_label()["naive z=0"].y[0] > 0

    def test_task_labels_are_unique(self):
        points = [
            common.Point(
                "band", V100_NVLINK2, 2**20, RadixSplineIndex, matches=4.0
            ),
            common.Point(
                "windowed-band", V100_NVLINK2, 2**20, RadixSplineIndex,
                zipf_theta=1.0, window_bytes=2**18 * 8, matches=4.0,
            ),
        ]
        labels = [point.label for point in points]
        assert len(set(labels)) == len(labels)
        assert labels == [
            "nonequi:naive:1048576:m4:w0:z0",
            "nonequi:windowed:1048576:m4:w262144:z1",
        ]


class TestRunner:
    def test_subset_run(self):
        stream = io.StringIO()
        results = run_report(["table1"], quick=True, stream=stream).results
        assert "table1" in results
        assert "NVLink" in stream.getvalue()
