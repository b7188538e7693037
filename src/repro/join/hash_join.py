"""The hash-join baseline: a WarpCore-style multi-value hash table.

The paper's baseline (Section 3.2) uses WarpCore's MultiValueHashTable
with a 50% load factor and 512-key blocks, keeps the table in GPU memory,
builds on the smaller relation (S) on the fly, and probes by scanning R
over the interconnect.

The functional table here is a linear-probing multi-value table with the
same structural behaviour: duplicate keys occupy consecutive chain slots,
so heavy skew produces the long probe chains that made the paper terminate
its Zipf-1.75 hash-join run after ten hours (Section 5.2.2).  The cost
model computes chain statistics analytically from the key distribution, so
paper-scale estimates do not require materializing 2^26 keys.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..config import DEFAULT_HASH_BLOCK_KEYS, DEFAULT_HASH_LOAD_FACTOR
from ..data.column import KEY_DTYPE, MaterializedColumn, _splitmix64
from ..data.relation import Relation
from ..data.zipf import zipf_sum_p2
from ..errors import CapacityError, ConfigurationError, WorkloadError
from ..hardware.memory import MemorySpace
from ..perf.model import QueryCost
from .base import JoinResult, QueryEnvironment

_EMPTY = np.uint64(np.iinfo(np.uint64).max)

#: Bytes per hash-table slot (8 B key + 8 B value).
_SLOT_BYTES = 16


class MultiValueHashTable:
    """Linear-probing multi-value hash table (functional path).

    Duplicate keys are stored in separate slots along the probe chain, as
    WarpCore's value blocks do at block granularity; lookups walk the
    chain until an empty slot, collecting every match.
    """

    def __init__(
        self,
        expected_keys: int,
        load_factor: float = DEFAULT_HASH_LOAD_FACTOR,
        block_keys: int = DEFAULT_HASH_BLOCK_KEYS,
    ):
        if expected_keys <= 0:
            raise ConfigurationError(
                f"expected_keys must be positive, got {expected_keys}"
            )
        if not 0.0 < load_factor < 1.0:
            raise ConfigurationError(
                f"load_factor must be in (0, 1), got {load_factor}"
            )
        if block_keys <= 0:
            raise ConfigurationError(
                f"block_keys must be positive, got {block_keys}"
            )
        capacity = 1
        while capacity < expected_keys / load_factor:
            capacity *= 2
        self.capacity = capacity
        self.load_factor = load_factor
        self.block_keys = block_keys
        self._keys = np.full(capacity, _EMPTY, dtype=KEY_DTYPE)
        self._values = np.zeros(capacity, dtype=np.int64)
        self.size = 0
        self.total_insert_probes = 0
        self.max_insert_probes = 0

    def _slots_of(self, keys: np.ndarray) -> np.ndarray:
        mixed = _splitmix64(np.asarray(keys, dtype=KEY_DTYPE))
        return (mixed & np.uint64(self.capacity - 1)).astype(np.int64)

    def insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert (key, value) pairs; duplicates allowed (multi-value)."""
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        values = np.asarray(values, dtype=np.int64)
        if len(keys) != len(values):
            raise WorkloadError(
                f"keys/values length mismatch: {len(keys)} != {len(values)}"
            )
        if np.any(keys == _EMPTY):
            raise WorkloadError("the maximum uint64 key is reserved as empty")
        if self.size + len(keys) > self.capacity:
            raise CapacityError(
                f"table of capacity {self.capacity} cannot hold "
                f"{self.size + len(keys)} entries"
            )
        table_keys = self._keys
        table_values = self._values
        mask = self.capacity - 1
        for slot0, key, value in zip(  # repro: noqa[PERF001] -- reference open-addressing build, correctness oracle at test scale
            self._slots_of(keys).tolist(), keys.tolist(), values.tolist()
        ):
            slot = slot0
            probes = 1
            while table_keys[slot] != _EMPTY:
                slot = (slot + 1) & mask
                probes += 1
            table_keys[slot] = key
            table_values[slot] = value
            self.total_insert_probes += probes
            self.max_insert_probes = max(self.max_insert_probes, probes)
        self.size += len(keys)

    def lookup(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All matches of each key: (probe_index, value) pair arrays."""
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        table_keys = self._keys
        table_values = self._values
        mask = self.capacity - 1
        out_probe = []
        out_value = []
        for index, (slot0, key) in enumerate(  # repro: noqa[PERF001] -- reference open-addressing probe, correctness oracle at test scale
            zip(self._slots_of(keys).tolist(), keys.tolist())
        ):
            slot = slot0
            while table_keys[slot] != _EMPTY:
                if table_keys[slot] == key:
                    out_probe.append(index)
                    out_value.append(int(table_values[slot]))
                slot = (slot + 1) & mask
        return (
            np.asarray(out_probe, dtype=np.int64),
            np.asarray(out_value, dtype=np.int64),
        )

    @property
    def mean_insert_probes(self) -> float:
        if self.size == 0:
            return 0.0
        return self.total_insert_probes / self.size

    @property
    def footprint_bytes(self) -> int:
        return self.capacity * _SLOT_BYTES


class HashJoin:
    """Hash join: build on the smaller relation (S), probe with R.

    "We flip the input relations to build on the smaller relation and
    reduce the hash table size.  The hash table is kept in GPU memory.
    ... the query builds the hash table on-the-fly, which we include in
    the throughput measurement." (Section 3.2)
    """

    name = "hash join"

    def __init__(
        self,
        relation: Relation,
        load_factor: float = DEFAULT_HASH_LOAD_FACTOR,
        block_keys: int = DEFAULT_HASH_BLOCK_KEYS,
    ):
        self.relation = relation
        self.load_factor = load_factor
        self.block_keys = block_keys

    # ------------------------------------------------------------------
    # Functional path.
    # ------------------------------------------------------------------

    def join(self, probe_keys: np.ndarray) -> JoinResult:
        """Exact join; requires a materialized R (the probe side scan)."""
        if not isinstance(self.relation.column, MaterializedColumn):
            raise WorkloadError(
                "the functional hash join scans R and therefore needs a "
                "materialized column; paper-scale runs use estimate()"
            )
        probe_keys = np.asarray(probe_keys, dtype=KEY_DTYPE)
        table = MultiValueHashTable(
            expected_keys=max(1, len(probe_keys)),
            load_factor=self.load_factor,
            block_keys=self.block_keys,
        )
        table.insert(probe_keys, np.arange(len(probe_keys), dtype=np.int64))
        r_keys = self.relation.column.keys
        r_indices, s_indices = table.lookup(r_keys)
        return JoinResult(
            probe_indices=s_indices, build_positions=r_indices
        )

    # ------------------------------------------------------------------
    # Simulated path.
    # ------------------------------------------------------------------

    def _duplicate_sum_of_squares(self, env: QueryEnvironment) -> float:
        """E[sum_k c_k^2] for the S key multiset (c_k = copies of key k).

        Uniform draws of |S| keys over |R| positions give
        ``|S| + |S|*(|S|-1)/|R|``; Zipf(theta) draws give
        ``|S| + |S|*(|S|-1)*sum_p^2`` with the analytic collision mass.
        """
        s = float(env.workload.s_tuples)
        n = float(env.workload.r_tuples)
        if env.workload.zipf_theta > 0:
            collision_mass = zipf_sum_p2(
                env.workload.r_tuples, env.workload.zipf_theta
            )
        else:
            collision_mass = 1.0 / n
        return s + s * (s - 1.0) * collision_mass

    def estimate(self, env: QueryEnvironment) -> QueryCost:
        """Cost-model throughput of the hash join on ``env``'s machine."""
        constants = env.cost_model.constants
        workload = env.workload
        s_tuples = float(workload.s_tuples)
        r_tuples = float(workload.r_tuples)
        capacity = 1
        while capacity < s_tuples / self.load_factor:
            capacity *= 2
        env.machine.memory.check_capacity(
            capacity * _SLOT_BYTES, MemorySpace.DEVICE, label="hash table"
        )
        sum_c2 = self._duplicate_sum_of_squares(env)
        # Inserting the i-th duplicate of a key walks the key's existing
        # chain: ~i/block_keys block reads; summed over all keys that is
        # (sum c^2 - |S|) / (2 * block_keys).
        duplicate_chain_accesses = max(
            0.0, (sum_c2 - s_tuples) / (2.0 * self.block_keys)
        )
        build = env.machine.scan_counters(env.s_bytes)
        build.add(
            env.machine.gpu_random_counters(
                s_tuples * constants.hash_build_accesses
                + duplicate_chain_accesses,
                bytes_per_access=constants.gpu_sector_bytes,
            )
        )
        build.lookups = 0.0
        # Probing a slot inside a duplicate cluster walks to the cluster's
        # end; averaged over uniform probe slots that adds the cluster
        # "excess area" over the table.
        probe_excess_per_probe = max(0.0, (sum_c2 - s_tuples)) / (
            2.0 * capacity
        )
        probe = env.machine.scan_counters(env.r_bytes)
        probe.add(
            env.machine.gpu_random_counters(
                r_tuples
                * (constants.hash_probe_accesses + probe_excess_per_probe),
                bytes_per_access=constants.gpu_sector_bytes,
            )
        )
        probe.add(env.machine.result_counters(env.result_bytes()))
        probe.lookups = s_tuples
        return env.cost_model.price_stages([("build", build), ("probe", probe)])
