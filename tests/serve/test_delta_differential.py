"""Property-based differential suite: the one-pass merge and lazy folds.

``merge_newest_wins`` sorts only the batch and lands it in the strictly
increasing run with one ``searchsorted``; ``oracles.merge_newest_wins``
is the concatenate-and-stable-argsort merge it replaced.  Hypothesis
drives both through the key regimes of the index differential suite
(dense runs, huge gaps, the float64 precision cliff at 2^53, keys at and
above 2^63), empty runs and batches, batches heavy with duplicates, and
keys at 0 and MAX, and requires identical keys, values and dtypes.

``DeltaBuffer.apply`` only queues a copy of its batch; every reader folds
the queued batches with one merge first.  For each reader, a buffer read
for the first time after several queued batches must answer exactly as
a buffer folded after every apply, and scribbling over the caller's
arrays after ``apply`` must change nothing.

The suite runs under the derandomized ``repro``/``ci`` profiles (see
tests/conftest.py and TESTING.md); CI replays with
``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.data.column import KEY_DTYPE  # noqa: E402
from repro.serve.delta import DeltaBuffer, merge_newest_wins  # noqa: E402

from . import oracles  # noqa: E402

MAX_KEY = 2**64 - 1

#: (base, max_gap) key regimes, matching tests/indexes/test_differential:
#: the last three sit in the float/int conversion danger zones.
KEY_REGIMES = (
    (0, 3),
    (0, 2**16),
    (2**32, 2**20),
    (2**53 - 2**10, 3),
    (2**62, 3),
    (2**63 + 17, 2**10),
)


@st.composite
def runs(draw) -> np.ndarray:
    """Strictly increasing uint64 runs (possibly empty) in one regime."""
    size = draw(st.integers(min_value=0, max_value=96))
    base, max_gap = draw(st.sampled_from(KEY_REGIMES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = rng.integers(1, max_gap + 1, size=size).astype(np.object_)
    keys = np.cumsum(gaps) + base
    if size and draw(st.booleans()):
        # Park the run at the top of the key space: its last key is MAX.
        keys = keys + (MAX_KEY - int(keys[-1]))
    return np.asarray([int(key) for key in keys], dtype=KEY_DTYPE)


@st.composite
def batches(draw, run: np.ndarray, first_value: int):
    """One update batch against ``run``: upserts, inserts and extremes.

    Keys mix run members, near misses, fresh keys in the run's span and
    the domain edges 0 and MAX; a duplicate-heavy batch repeats a few of
    them many times over.  Values count up in arrival order from
    ``first_value``, so keep-first and keep-last differ.
    """
    count = draw(st.integers(min_value=0, max_value=48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [0, MAX_KEY, 1, MAX_KEY - 1]
    if len(run):
        members = [int(key) for key in run[rng.integers(0, len(run), size=count)]]
        pool += members
        pool += [min(key + 1, MAX_KEY) for key in members]
        pool += [max(key - 1, 0) for key in members]
        low, high = int(run[0]), int(run[-1])
    else:
        low, high = 0, 2**20
    pool += [
        int(key)
        for key in rng.integers(low, high, size=count, dtype=np.uint64, endpoint=True)
    ]
    picks = rng.integers(0, len(pool), size=count)
    keys = [pool[pick] for pick in picks]
    if draw(st.booleans()) and count:
        # Heavy duplication: a handful of keys written many times over.
        heavy = [keys[pick] for pick in rng.integers(0, count, size=3)]
        keys = [heavy[pick] for pick in rng.integers(0, 3, size=count * 4)]
    values = np.arange(first_value, first_value + len(keys), dtype=np.int64)
    return np.asarray(keys, dtype=KEY_DTYPE), values


def pairs(keys: np.ndarray, values: np.ndarray):
    """Comparable form of a key/value run, dtypes included."""
    return keys.dtype.str, keys.tolist(), values.dtype.str, values.tolist()


class TestMergeMatchesReference:
    @given(data=st.data())
    def test_merge_matches_the_sort_everything_reference(self, data):
        run = data.draw(runs())
        run_values = np.arange(len(run), dtype=np.int64)
        keys, values = data.draw(batches(run, len(run)))
        inputs = [array.copy() for array in (run, run_values, keys, values)]
        expected = oracles.merge_newest_wins(run, run_values, keys, values)
        merged = merge_newest_wins(run, run_values, keys, values)
        assert pairs(*merged) == pairs(*expected)
        # The merge reads its inputs and writes only fresh arrays.
        for before, after in zip(inputs, (run, run_values, keys, values)):
            np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize(
        "run",
        [[], [0], [MAX_KEY], [0, 7, MAX_KEY], [MAX_KEY - 2, MAX_KEY - 1]],
        ids=["empty", "zero", "max", "both-ends", "top"],
    )
    @pytest.mark.parametrize(
        "batch",
        [[], [0], [MAX_KEY], [MAX_KEY, 0, MAX_KEY, 0], [5, 5, 5, 0, 5]],
        ids=["empty", "zero", "max", "ends-twice", "duplicates"],
    )
    def test_domain_edges_and_empty_inputs(self, run, batch):
        run = np.asarray(run, dtype=KEY_DTYPE)
        run_values = np.arange(len(run), dtype=np.int64)
        keys = np.asarray(batch, dtype=KEY_DTYPE)
        values = 100 + np.arange(len(keys), dtype=np.int64)
        assert pairs(*merge_newest_wins(run, run_values, keys, values)) == pairs(
            *oracles.merge_newest_wins(run, run_values, keys, values)
        )


def _lookup_into(delta: DeltaBuffer, probes: np.ndarray):
    positions = np.arange(len(probes), dtype=np.int64) - 1
    hits = delta.lookup_into(probes, positions)
    return hits, positions.tolist()


def _drain(delta: DeltaBuffer, probes: np.ndarray):
    drained = pairs(*delta.drain())
    return drained, delta.num_tuples


#: Every reader of a delta buffer, as a function of (buffer, probe keys).
READERS = {
    "num_tuples": lambda delta, probes: delta.num_tuples,
    "search_steps": lambda delta, probes: delta.search_steps,
    "lookup_into": _lookup_into,
    "read_counters": lambda delta, probes: delta.read_counters(len(probes)),
    "drain": _drain,
    "snapshot": lambda delta, probes: pairs(*delta.snapshot()),
}


@st.composite
def update_histories(draw):
    """A base run, a stream of batches against it, and probe keys."""
    run = draw(runs())
    history = []
    written = len(run)
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        keys, values = draw(batches(run, written))
        written += len(values)
        history.append((keys, values))
    probes = np.concatenate([run] + [keys for keys, _ in history])
    probes = np.concatenate(
        [probes, np.asarray([0, 1, MAX_KEY - 1, MAX_KEY], dtype=KEY_DTYPE)]
    )
    # Reads after some batches fold part of the stream early; the last
    # batch stays queued for the reader under test.
    folds = draw(st.sets(st.integers(0, len(history) - 1)))
    folds.discard(len(history) - 1)
    return history, probes, folds


class TestLazyFoldReadsLikeEagerMerge:
    @pytest.mark.parametrize("reader", sorted(READERS))
    @given(data=st.data())
    def test_queued_batches_read_like_an_eager_buffer(self, reader, data):
        history, probes, folds = data.draw(update_histories())
        lazy, eager = DeltaBuffer(), DeltaBuffer()
        reference = (
            np.empty(0, dtype=KEY_DTYPE), np.empty(0, dtype=np.int64)
        )
        for step, (keys, values) in enumerate(history):
            eager.apply(keys, values)
            reference = oracles.merge_newest_wins(*reference, keys, values)
            # Reading folds at once: the eager buffer merges per batch.
            assert eager.num_tuples == len(reference[0])
            # The lazy buffer gets the caller's own arrays, which the
            # caller then reuses for something else.
            mine_keys, mine_values = keys.copy(), values.copy()
            lazy.apply(mine_keys, mine_values)
            mine_keys[:] = np.uint64(MAX_KEY // 3)
            mine_values[:] = -7
            if step in folds:
                assert lazy.num_tuples == len(reference[0])
        assert pairs(*eager.snapshot()) == pairs(*reference)
        read = READERS[reader]
        assert read(lazy, probes) == read(eager, probes)
        # Folding is idempotent: a second read of each sees the same run.
        assert pairs(*lazy.snapshot()) == pairs(*eager.snapshot())
