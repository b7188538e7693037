"""Ordered probe samples are drawn once per session, not once per index.

Every environment the session cache hands out draws through one shared
:class:`~repro.join.base.SampleStore`, so the four index classes probing
one Fig. 8 window share one ``make_ordered_probe_sample`` call.  Outside
a session each environment keeps its own store, and no sample survives
into the next session.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.data.generator import WorkloadConfig
from repro.experiments import cache, fig8
from repro.experiments.common import default_partitioner, make_environment
from repro.hardware.spec import V100_NVLINK2
from repro.indexes import ALL_INDEX_TYPES
from repro.join import base
from repro.join.inlj import IndexNestedLoopJoin
from repro.join.nonequi import WindowedBandJoin, WindowedKNNJoin
from repro.join.partitioned import PartitionedINLJ
from repro.join.window import WindowedINLJ
from repro.units import MIB

SIM = SimulationConfig(probe_sample=2**10)
R_TUPLES = 2**26
WINDOW_BYTES = 2 * MIB


@pytest.fixture(autouse=True)
def isolated_cache():
    cache.enable(False)
    cache.clear()
    yield
    cache.enable(False)
    cache.clear()


@pytest.fixture
def spy():
    """Counts calls into the sampler behind ``QueryEnvironment``."""
    with mock.patch.object(
        base, "make_ordered_probe_sample",
        wraps=base.make_ordered_probe_sample,
    ) as wrapped:
        yield wrapped


def windowed_estimate(index_cls, theta):
    env = make_environment(
        V100_NVLINK2, R_TUPLES, index_cls=index_cls, sim=SIM, zipf_theta=theta
    )
    join = WindowedINLJ(
        env.index, default_partitioner(env.column), window_bytes=WINDOW_BYTES
    )
    return join.estimate(env)


def fig8_loop(thetas):
    for theta in thetas:
        for index_cls in ALL_INDEX_TYPES:
            windowed_estimate(index_cls, theta)


def series_of(result):
    return [(s.label, list(s.x), list(s.y)) for s in result.series], result.notes


class TestSharing:
    def test_one_draw_per_theta_in_a_session(self, spy):
        thetas = (0.0, 1.0, 1.75)
        with cache.session():
            fig8_loop(thetas)
            stats = cache.stats()
        assert spy.call_count == len(thetas)
        assert stats["samples"] == len(thetas)
        assert stats["sample_hits"] == len(thetas) * (len(ALL_INDEX_TYPES) - 1)

    def test_without_a_session_every_environment_draws(self, spy):
        fig8_loop((1.0,))
        assert spy.call_count == len(ALL_INDEX_TYPES)

    def test_clear_empties_the_store(self, spy):
        with cache.session():
            fig8_loop((1.0,))
            cache.clear()
            assert cache.stats()["samples"] == 0
            assert cache.stats()["sample_hits"] == 0
            fig8_loop((1.0,))
        assert spy.call_count == 2

    def test_nothing_is_shared_across_sessions(self, spy):
        with cache.session():
            fig8_loop((1.0,))
        # The environments are still cached, but their old store is not.
        with cache.session():
            fig8_loop((1.0,))
            assert cache.stats()["sample_hits"] == len(ALL_INDEX_TYPES) - 1
        assert spy.call_count == 2

    def test_every_caller_shares_one_draw(self, spy):
        """Windowed, partitioned and sorted INLJ, windowed band/KNN joins.

        With |S| equal to the window, all five ask for the same sample.
        """
        window = WINDOW_BYTES // 8
        workload = WorkloadConfig(r_tuples=R_TUPLES, s_tuples=window)
        with cache.session():
            env = cache.environment(
                V100_NVLINK2, workload, index_cls=ALL_INDEX_TYPES[0], sim=SIM
            )
            partitioner = default_partitioner(env.column)
            for join in (
                WindowedINLJ(env.index, partitioner, WINDOW_BYTES),
                PartitionedINLJ(env.index, partitioner),
                IndexNestedLoopJoin(env.index, probe_order="sorted"),
                WindowedBandJoin(
                    env.index, partitioner, epsilon=4, window_bytes=WINDOW_BYTES
                ),
                WindowedKNNJoin(
                    env.index, partitioner, k=2, window_bytes=WINDOW_BYTES
                ),
            ):
                join.estimate(env)
            assert cache.stats()["sample_hits"] == 4
        assert spy.call_count == 1

    def test_fig8_identical_with_and_without_the_session_cache(self):
        thetas = (0.0, 1.0, 1.75)
        plain = fig8.run(thetas=thetas)
        with cache.session():
            cached = fig8.run(thetas=thetas)
            assert cache.stats()["samples"] == len(thetas)
        assert series_of(plain) == series_of(cached)


class TestReadOnly:
    def test_shared_arrays_reject_writes(self):
        with cache.session():
            env = make_environment(
                V100_NVLINK2, R_TUPLES, index_cls=ALL_INDEX_TYPES[0],
                sim=SIM, zipf_theta=1.0,
            )
            sample = env.ordered_sample(2**18, 2**10)
            assert env.ordered_sample(2**18, 2**10) is sample
        with pytest.raises(ValueError):
            sample.keys[0] = np.uint64(1)
        with pytest.raises(ValueError):
            sample.expected_positions[0] = 0
