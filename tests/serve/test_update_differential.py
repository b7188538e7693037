"""Property-based differential suite: the delta tier vs the update oracle.

The serving layer answers mixed read/write streams through a per-shard
sorted delta buffer reconciled into every probe, with policy-triggered
compactions folding the buffer back into the base index.  The reference
semantics are deliberately trivial: :class:`SortedArrayOracle` is a
plain key -> row-id mapping applied in arrival order.  Hypothesis
drives interleaved insert/probe/compact streams through both and
asserts element equality, across the same adversarial key regimes as
the PR-5 index suite (dense runs, huge gaps, the float64 precision
cliff at 2^53, and keys at/above 2^63 where int64 casts wrap).

The suite runs under the derandomized ``repro``/``ci`` profiles (see
tests/conftest.py and TESTING.md), so a counterexample reproduces from
the printed falsifying example alone; CI replays with
``HYPOTHESIS_PROFILE=ci``.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.data.column import MaterializedColumn  # noqa: E402
from repro.data.relation import Relation  # noqa: E402
from repro.indexes import BinarySearchIndex, BPlusTreeIndex  # noqa: E402
from repro.serve.delta import DeltaBuffer, merge_newest_wins  # noqa: E402
from repro.serve.shard import range_shard  # noqa: E402
from repro.workloads.updates import SortedArrayOracle  # noqa: E402

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
def base_keys_arrays(draw) -> np.ndarray:
    """Strictly increasing uint64 key arrays across the regimes."""
    size = draw(st.integers(min_value=2, max_value=128))
    base, max_gap = draw(st.sampled_from(KEY_REGIMES))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    gaps = rng.integers(1, max_gap + 1, size=size).astype(np.object_)
    keys = np.cumsum(gaps) + base
    if int(keys[-1]) > MAX_KEY:
        keys = keys - (int(keys[-1]) - MAX_KEY)
        if int(keys[0]) < 0:
            keys = keys - int(keys[0])
    return np.asarray([int(k) for k in keys], dtype=np.uint64)


@st.composite
def update_streams(draw):
    """(base_keys, steps): interleaved update/probe/compact streams.

    Update keys mix upserts of members with inserts of ``member + 1``
    (clamped away from the uint64 wrap; colliding with another member
    just makes it an upsert, which both sides treat identically).
    Probe keys mix members, previously written keys, near-misses, and
    out-of-domain extremes.  Values are the dense global row-id
    sequence the serving layer uses: base positions ``[0, n)``, update
    tuple ``j`` writing ``n + j``.
    """
    base_keys = draw(base_keys_arrays())
    n = len(base_keys)
    num_steps = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    steps = []
    written: list = []
    next_row_id = n
    for _ in range(num_steps):
        kind = draw(
            st.sampled_from(["update", "probe", "probe", "compact"])
        )
        if kind == "update":
            width = draw(st.integers(min_value=1, max_value=32))
            slots = rng.integers(0, n, size=width)
            inserts = rng.random(width) < 0.5
            keys = [int(base_keys[slot]) for slot in slots]
            keys = [
                min(key + 1, MAX_KEY) if insert else key
                for key, insert in zip(keys, inserts)
            ]
            values = np.arange(
                next_row_id, next_row_id + width, dtype=np.int64
            )
            next_row_id += width
            keys_arr = np.asarray(keys, dtype=np.uint64)
            written.extend(keys)
            steps.append(("update", keys_arr, values))
        elif kind == "probe":
            width = draw(st.integers(min_value=1, max_value=64))
            members = base_keys[rng.integers(0, n, size=width)]
            probes = [int(key) for key in members]
            if written:
                picks = rng.integers(0, len(written), size=width // 2 + 1)
                probes.extend(written[pick] for pick in picks)
            probes.extend(
                min(int(key) + 1, MAX_KEY)
                for key in members[: width // 4 + 1]
            )
            probes.extend([0, int(base_keys[-1]), MAX_KEY])
            probes_arr = np.asarray(probes, dtype=np.uint64)
            steps.append(
                ("probe", probes_arr[rng.permutation(len(probes_arr))], None)
            )
        else:
            steps.append(("compact", None, None))
    return base_keys, steps


def _serve_probe(plan, keys: np.ndarray) -> np.ndarray:
    """Route + probe one request through the plan, arrival order kept."""
    positions = np.empty(len(keys), dtype=np.int64)
    for shard_id, shard_keys, indices in plan.split(
        keys, np.arange(len(keys), dtype=np.int64)
    ):
        positions[indices] = plan.shards[shard_id].probe(shard_keys)
    return positions


class TestInterleavedStreamsMatchOracle:
    @pytest.mark.parametrize(
        "index_cls", [BinarySearchIndex, BPlusTreeIndex]
    )
    @given(stream=update_streams())
    @settings(deadline=None)
    def test_sharded_delta_tier_matches_oracle(self, index_cls, stream):
        base_keys, steps = stream
        plan = range_shard(
            Relation(name="R", column=MaterializedColumn(base_keys)),
            num_shards=min(3, len(base_keys)),
            index_classes=[index_cls],
        )
        oracle = SortedArrayOracle(base_keys)
        for kind, keys, values in steps:
            if kind == "update":
                for shard_id, shard_keys, indices in plan.split(
                    keys, np.arange(len(keys), dtype=np.int64)
                ):
                    plan.shards[shard_id].apply_updates(
                        shard_keys, values[indices]
                    )
                oracle.apply(keys, values)
            elif kind == "probe":
                np.testing.assert_array_equal(
                    _serve_probe(plan, keys),
                    oracle.lookup(keys),
                    err_msg=f"{index_cls.name} delta tier diverges",
                )
            else:
                for shard in plan.shards:
                    shard.compact()

    @given(stream=update_streams())
    @settings(deadline=None)
    def test_compaction_never_changes_answers(self, stream):
        """Probing right after compacting equals probing right before."""
        base_keys, steps = stream
        plan = range_shard(
            Relation(name="R", column=MaterializedColumn(base_keys)),
            num_shards=1,
            index_classes=[BinarySearchIndex],
        )
        shard = plan.shards[0]
        for kind, keys, values in steps:
            if kind == "update":
                shard.apply_updates(keys, values)
            elif kind == "probe":
                before = shard.probe(keys).copy()
                shard.compact()
                np.testing.assert_array_equal(shard.probe(keys), before)


class TestMergeNewestWins:
    @given(stream=update_streams())
    @settings(deadline=None)
    def test_merge_agrees_with_arrival_order_dict(self, stream):
        """One merge of all updates == the oracle's final mapping."""
        base_keys, steps = stream
        delta = DeltaBuffer()
        table = {
            int(key): position for position, key in enumerate(base_keys)
        }
        for kind, keys, values in steps:
            if kind != "update":
                continue
            delta.apply(keys, values)
            for key, value in zip(keys.tolist(), values.tolist()):
                table[int(key)] = int(value)
        base_values = np.arange(len(base_keys), dtype=np.int64)
        delta_keys, delta_values = delta.drain()
        merged_keys, merged_values = merge_newest_wins(
            base_keys, base_values, delta_keys, delta_values
        )
        assert np.all(merged_keys[1:] > merged_keys[:-1])
        expected = dict(sorted(table.items()))
        assert [int(k) for k in merged_keys] == list(expected)
        assert [int(v) for v in merged_values] == list(expected.values())

    @given(
        size=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_merge_is_idempotent(self, size, seed):
        """Re-merging an already merged run with the same delta is a
        no-op: newest-wins keeps the same (key, value) pairs."""
        rng = np.random.default_rng(seed)
        base_keys = np.cumsum(
            rng.integers(1, 5, size=size)
        ).astype(np.uint64)
        base_values = np.arange(size, dtype=np.int64)
        delta_keys = base_keys[rng.integers(0, size, size=size)]
        delta_values = size + np.arange(size, dtype=np.int64)
        once_k, once_v = merge_newest_wins(
            base_keys, base_values, delta_keys, delta_values
        )
        twice_k, twice_v = merge_newest_wins(
            once_k, once_v, delta_keys, delta_values
        )
        np.testing.assert_array_equal(once_k, twice_k)
        np.testing.assert_array_equal(once_v, twice_v)
