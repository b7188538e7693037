"""Non-equi join observability: metric names, labels, and span counts.

The ``join.band.*`` counters and the range primitive's
``index.range_*`` counters follow the repo metric contract (OBS001:
literal lowercase dotted names, consistent label keys); this suite pins
the values they report for a known workload so a renamed or mislabelled
metric fails here, not just in the lint.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.data.column import MaterializedColumn
from repro.data.relation import Relation
from repro.indexes import RadixSplineIndex
from repro.join.nonequi import BandJoin, WindowedBandJoin
from repro.partition.bits import PartitionBits
from repro.partition.radix import RadixPartitioner


@pytest.fixture
def index():
    keys = np.arange(0, 640, 5, dtype=np.uint64)
    return RadixSplineIndex(Relation(name="R", column=MaterializedColumn(keys)))


def test_band_join_metrics(traced, index):
    probes = np.asarray([100, 101, 615], dtype=np.uint64)
    result = BandJoin(index, 5).join(probes)
    labels = {"index": index.name, "variant": "naive"}
    assert obs.counter("join.band.probes", **labels) == 3.0
    assert obs.counter("join.band.pairs", **labels) == float(len(result))
    # The fused range probe rides the index-level range counters.
    assert obs.counter("index.range_lookups", index=index.name) == 3.0
    assert obs.counter("index.range_kernels", index=index.name) == 1.0


def test_windowed_band_join_metrics(traced, index):
    probes = np.asarray([100, 101, 615, 20], dtype=np.uint64)
    partitioner = RadixPartitioner(PartitionBits(shift=2, bits=4))
    join = WindowedBandJoin(index, partitioner, 5, window_bytes=16)
    result = join.join(probes)
    labels = {"index": index.name, "variant": "windowed"}
    assert obs.counter("join.band.probes", **labels) == 4.0
    assert obs.counter("join.band.pairs", **labels) == float(len(result))
    # 16-byte windows hold two probes: two range kernel launches.
    assert obs.counter("index.range_kernels", index=index.name) == 2.0


def test_metrics_silent_when_disabled(clean_obs, index):
    BandJoin(index, 5).join(np.asarray([100], dtype=np.uint64))
    assert obs.counter("join.band.probes") == 0.0
    assert obs.snapshot()["counters"] == {}
