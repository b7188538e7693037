"""Mixed read/write request streams and their sorted-array reference."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.updates import SortedArrayOracle, make_update_stream


class TestMakeUpdateStream:
    def setup_method(self):
        self.base_keys = np.arange(0, 4096 * 4, 4, dtype=np.uint64)
        self.probe_keys = np.tile(self.base_keys, 2)[: 16 * 64]

    def make(self, update_fraction=0.5, seed=42, num_requests=16,
             request_tuples=64):
        return make_update_stream(
            self.base_keys,
            self.probe_keys,
            num_requests,
            request_tuples,
            update_fraction,
            seed,
        )

    def test_deterministic_in_seed(self):
        first, second = self.make(), self.make()
        assert first.kinds == second.kinds
        for a, b in zip(first.keys, second.keys):
            np.testing.assert_array_equal(a, b)

    def test_seed_changes_the_stream(self):
        assert self.make(seed=1).kinds != self.make(seed=2).kinds

    def test_zero_fraction_is_pure_probe_slices(self):
        stream = self.make(update_fraction=0.0)
        assert "update" not in stream.kinds
        for i, keys in enumerate(stream.keys):
            np.testing.assert_array_equal(
                keys, self.probe_keys[i * 64 : (i + 1) * 64]
            )

    def test_values_are_the_dense_global_row_id_sequence(self):
        stream = self.make()
        expected_next = len(self.base_keys)
        for kind, values in zip(stream.kinds, stream.values):
            if kind == "update":
                assert values is not None
                assert values[0] == expected_next
                np.testing.assert_array_equal(
                    values,
                    np.arange(
                        expected_next,
                        expected_next + len(values),
                        dtype=np.int64,
                    ),
                )
                expected_next += len(values)
            else:
                assert values is None
        assert stream.update_tuples == expected_next - len(self.base_keys)

    def test_inserts_are_non_members(self):
        stream = self.make(update_fraction=1.0)
        members = set(self.base_keys.tolist())
        inserted = [
            key
            for keys in stream.keys
            for key in keys.tolist()
            if key not in members
        ]
        # The +1 stride-4 construction guarantees true inserts exist
        # and every one of them misses the base relation.
        assert inserted
        assert all((key - 1) % 4 == 0 for key in inserted)

    def test_probes_read_back_written_keys(self):
        stream = self.make(seed=42)
        written: set = set()
        readback_seen = False
        for kind, keys in zip(stream.kinds, stream.keys):
            if kind == "update":
                written.update(keys.tolist())
            elif written and set(keys.tolist()) & written:
                readback_seen = True
        assert readback_seen

    def test_rejects_bad_fraction_and_short_probe_stream(self):
        with pytest.raises(ConfigurationError):
            self.make(update_fraction=1.5)
        with pytest.raises(ConfigurationError):
            make_update_stream(
                self.base_keys, self.probe_keys[:8], 16, 64, 0.5, 42
            )


class TestSortedArrayOracle:
    def test_base_positions_then_updates_win(self):
        keys = np.asarray([2, 5, 9], dtype=np.uint64)
        oracle = SortedArrayOracle(keys)
        np.testing.assert_array_equal(
            oracle.lookup(np.asarray([2, 9, 7], dtype=np.uint64)),
            np.asarray([0, 2, -1], dtype=np.int64),
        )
        oracle.apply(
            np.asarray([5, 7], dtype=np.uint64),
            np.asarray([3, 4], dtype=np.int64),
        )
        np.testing.assert_array_equal(
            oracle.lookup(np.asarray([5, 7, 2], dtype=np.uint64)),
            np.asarray([3, 4, 0], dtype=np.int64),
        )

    def test_later_entries_win_within_a_batch(self):
        oracle = SortedArrayOracle(np.asarray([1], dtype=np.uint64))
        oracle.apply(
            np.asarray([1, 1], dtype=np.uint64),
            np.asarray([10, 11], dtype=np.int64),
        )
        assert oracle.lookup(np.asarray([1], dtype=np.uint64))[0] == 11

    def test_rejects_unsorted_base_and_ragged_batch(self):
        with pytest.raises(ConfigurationError):
            SortedArrayOracle(np.asarray([3, 2], dtype=np.uint64))
        oracle = SortedArrayOracle(np.asarray([1, 2], dtype=np.uint64))
        with pytest.raises(ConfigurationError):
            oracle.apply(
                np.asarray([1], dtype=np.uint64),
                np.asarray([1, 2], dtype=np.int64),
            )
