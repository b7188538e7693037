"""Property-based differential suite: the band join vs brute force.

The band join runs over :meth:`Index.probe_range_batch`, so a bug in any
index's range traversal (or in the span plumbing above it) shows up here
as a divergence from an oracle that shares *no* code with the index
traversals: it materializes the full ``|probes| x |keys|`` comparison
matrix -- every pair with ``|s.key - r.key| <= epsilon`` in exact uint64
arithmetic.

The join runs in its naive and its windowed-partitioned variant, over
every index type, through the same adversarial key regimes as the
equi-join differential suite (float53 precision loss, int64 wrap,
clustered gaps, duplicates, Zipf skew).  Results compare by
:meth:`JoinResult.equals` -- multiset equality of (probe, position)
pairs -- so window permutation is invisible, as it must be.

Derandomized under the ``repro``/``ci`` profiles (tests/conftest.py);
anything this suite surfaces gets pinned as a ``test_regression_*`` case
per TESTING.md.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.data.column import MaterializedColumn  # noqa: E402
from repro.data.relation import Relation  # noqa: E402
from repro.indexes import ALL_INDEX_TYPES  # noqa: E402
from repro.indexes.domain import saturating_band  # noqa: E402
from repro.join.base import JoinResult, reference_join  # noqa: E402
from repro.join.nonequi import BandJoin, WindowedBandJoin  # noqa: E402
from repro.partition.bits import PartitionBits  # noqa: E402
from repro.partition.radix import RadixPartitioner  # noqa: E402

from ..indexes.test_differential import workloads  # noqa: E402

#: Tiny window (8 probe tuples) so every generated stream spans several
#: windows -- the regime where offset bookkeeping can go wrong.
SMALL_WINDOW_BYTES = 64

#: Band widths: degenerate (equi), small, around the generated key gaps,
#: and huge enough to saturate at the domain edges.
EPSILONS = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=2**16 - 4, max_value=2**16 + 4),
    st.integers(min_value=2**40, max_value=2**44),
    st.just(2**63),
)

def build_index(index_cls, keys: np.ndarray):
    return index_cls(Relation(name="R", column=MaterializedColumn(keys)))


def small_partitioner() -> RadixPartitioner:
    """A partitioner valid for any key domain (partition correctness is
    the radix suite's job; here it only has to permute within windows)."""
    return RadixPartitioner(PartitionBits(shift=2, bits=5))


def oracle_band(keys: np.ndarray, probes: np.ndarray, epsilon: int) -> JoinResult:
    """Full-matrix band join: every pair within the saturating band."""
    lo, hi = saturating_band(probes, np.uint64(epsilon))
    mask = (keys[None, :] >= lo[:, None]) & (keys[None, :] <= hi[:, None])
    probe, positions = np.nonzero(mask)
    return JoinResult(
        probe_indices=probe.astype(np.int64),
        build_positions=positions.astype(np.int64),
    )


@pytest.mark.parametrize("index_cls", ALL_INDEX_TYPES)
class TestBandJoinDifferential:
    @given(workload=workloads(), epsilon=EPSILONS)
    def test_naive_matches_brute_force(self, index_cls, workload, epsilon):
        keys, probes = workload
        index = build_index(index_cls, keys)
        result = BandJoin(index, epsilon).join(probes)
        assert result.equals(oracle_band(keys, probes, epsilon)), (
            f"{index_cls.name} naive band join diverges at epsilon={epsilon}"
        )

    @given(workload=workloads(), epsilon=EPSILONS)
    @settings(max_examples=20)
    def test_windowed_matches_brute_force(self, index_cls, workload, epsilon):
        keys, probes = workload
        index = build_index(index_cls, keys)
        join = WindowedBandJoin(
            index,
            small_partitioner(),
            epsilon,
            window_bytes=SMALL_WINDOW_BYTES,
        )
        assert join.join(probes).equals(oracle_band(keys, probes, epsilon)), (
            f"{index_cls.name} windowed band join diverges at "
            f"epsilon={epsilon}"
        )

    @given(workload=workloads(), epsilon=EPSILONS)
    @settings(max_examples=20)
    def test_reference_join_agrees_with_matrix_oracle(
        self, index_cls, workload, epsilon
    ):
        # reference_join is itself span-based (bound_positions); pinning
        # it against the comparison matrix keeps the two oracles honest
        # with each other.  index_cls is unused -- the class-level
        # parametrize just reruns the check per profile shard.
        del index_cls
        keys, probes = workload
        column = MaterializedColumn(keys)
        assert reference_join(column, probes, epsilon=epsilon).equals(
            oracle_band(keys, probes, epsilon)
        )


@pytest.mark.parametrize("index_cls", ALL_INDEX_TYPES)
def test_regression_clustered_gap_band(index_cls):
    """Band probes inside a huge key gap, pinned for every index.

    The RadixSpline's range traversal searches a ``error_bound + 2``
    window around the interpolated estimate; a probe in the middle of a
    2^42-wide gap is where an off-by-one in that margin (or in any
    index's lower-bound descent) first emits a wrong span.  Development
    versions of the range kernels were caught by exactly this shape.
    """
    rng = np.random.default_rng(7)
    gaps = np.ones(128, dtype=np.object_)
    gaps[32] = 2**42
    gaps[96] = 2**41 + 3
    keys = np.asarray(
        [int(k) for k in np.cumsum(gaps) + 2**53 - 2**10], dtype=np.uint64
    )
    mid_gap = keys[31] + np.uint64(2**41)
    probes = np.concatenate(
        [
            keys[rng.integers(0, len(keys), size=64)],
            np.asarray(
                [mid_gap, keys[31] + np.uint64(1), keys[32] - np.uint64(1)],
                dtype=np.uint64,
            ),
        ]
    )
    index = build_index(index_cls, keys)
    for epsilon in (0, 3, 2**41, 2**43):
        result = BandJoin(index, epsilon).join(probes)
        assert result.equals(oracle_band(keys, probes, epsilon)), (
            f"{index_cls.name} diverges in the clustered-gap regime at "
            f"epsilon={epsilon}"
        )
