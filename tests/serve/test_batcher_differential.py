"""Property-based differential suite: the batcher against its first form.

``ShardBatcher`` keeps one stateful ``WindowOperator`` per shard;
``oracles.ShardBatcher`` is the batcher as first written, which kept each
shard's pending batches itself and re-cut them with a fresh pull-only
window pass on every push that filled a window.  Hypothesis drives both
through arbitrary multi-shard call sequences -- batch sizes from 0 to
three windows, switches between probe and update batches, ``flush`` of
one shard mid-stream and ``flush_all`` at the end -- and requires every
call to return the same windows (shard, keys, indices, ``full``, kind,
order, dtypes) and to leave the same ``pending_tuples`` on every shard.

The suite runs under the derandomized ``repro``/``ci`` profiles (see
tests/conftest.py and TESTING.md); CI replays with
``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.serve.batcher import ShardBatcher  # noqa: E402
from repro.units import KEY_BYTES  # noqa: E402

from . import oracles  # noqa: E402


@st.composite
def sessions(draw):
    """(shard count, window bytes, calls) of one batcher session.

    A call is ``("push", shard, size, kind)`` or ``("flush", shard)``.
    Window bytes need not be a multiple of the key width.
    """
    num_shards = draw(st.integers(min_value=1, max_value=3))
    window_tuples = draw(st.integers(min_value=1, max_value=8))
    window_bytes = window_tuples * KEY_BYTES + draw(
        st.integers(min_value=0, max_value=KEY_BYTES - 1)
    )
    shards = st.integers(min_value=0, max_value=num_shards - 1)
    calls = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("push"),
                    shards,
                    st.integers(min_value=0, max_value=3 * window_tuples),
                    st.sampled_from(["probe", "update"]),
                ),
                st.tuples(st.just("flush"), shards),
            ),
            max_size=40,
        )
    )
    return num_shards, window_bytes, calls


def assert_same_windows(got, want):
    assert len(got) == len(want)
    for ours, theirs in zip(got, want):
        assert (ours.shard_id, ours.full, ours.kind, len(ours)) == (
            theirs.shard_id,
            theirs.full,
            theirs.kind,
            len(theirs),
        )
        assert ours.keys.dtype == theirs.keys.dtype
        assert ours.indices.dtype == theirs.indices.dtype
        np.testing.assert_array_equal(ours.keys, theirs.keys)
        np.testing.assert_array_equal(ours.indices, theirs.indices)


def assert_same_pending(batcher, reference):
    shards = range(batcher.num_shards)
    assert [batcher.pending_tuples(s) for s in shards] == [
        reference.pending_tuples(s) for s in shards
    ]


@given(session=sessions())
def test_every_call_matches_the_reference_batcher(session):
    num_shards, window_bytes, calls = session
    batcher = ShardBatcher(num_shards, window_bytes)
    reference = oracles.ShardBatcher(num_shards, window_bytes)
    position = 0
    for call in calls:
        if call[0] == "push":
            _, shard_id, size, kind = call
            indices = np.arange(position, position + size, dtype=np.int64)
            keys = (indices * 3 + 1).astype(np.uint64)
            position += size
            assert_same_windows(
                batcher.push(shard_id, keys, indices, kind=kind),
                reference.push(shard_id, keys, indices, kind=kind),
            )
        else:
            assert_same_windows(
                batcher.flush(call[1]), reference.flush(call[1])
            )
        assert_same_pending(batcher, reference)
    assert_same_windows(batcher.flush_all(), reference.flush_all())
    assert_same_pending(batcher, reference)
    assert all(batcher.pending_tuples(s) == 0 for s in range(num_shards))
