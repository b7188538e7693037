"""Index maintenance under insert batches.

Two views of the same question ("what does it cost to keep the index
fresh?"):

* :func:`functional_insert_throughput` -- actually insert key batches
  into a materialized index (merge-based, as the implicit structures
  rebuild) and report inserts/second achieved in this process.  Useful
  for validating semantics, not for absolute rates.
* :func:`maintenance_cost` -- cost-model seconds per insert batch at
  paper scale.  Tree indexes absorb a batch with per-key traversals and
  localized writes; the RadixSpline has no incremental form and must
  refit, paying a full scan of R -- which is exactly why the paper
  recommends Harmonia when updates matter (Section 6).

The serving layer's online-update path adds a third view: a mixed
read/write *request stream* (:func:`make_update_stream`) served through
the delta tier, checked element-for-element against
:class:`SortedArrayOracle` -- an intentionally naive
sorted-array-with-updates reference whose only job is to be obviously
correct.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional, Tuple, Type

import numpy as np

from ..data.column import KEY_DTYPE, MaterializedColumn
from ..data.relation import Relation
from ..errors import ConfigurationError, WorkloadError
from ..hardware.spec import CpuSpec
from ..indexes.base import Index
from ..indexes.btree import BPlusTreeIndex
from ..indexes.harmonia import HarmoniaIndex
from ..perf.cpu import CpuCostModel
from ..units import KEY_BYTES


@dataclass(frozen=True)
class UpdateCost:
    """Maintenance estimate for one insert batch.

    Attributes:
        seconds_per_batch: modeled time to absorb the batch.
        strategy: "in-place" (tree insert paths) or "rebuild" (refit the
            whole structure).
        amortized_seconds_per_insert: seconds_per_batch / batch_size.
    """

    seconds_per_batch: float
    strategy: str

    def amortized_seconds_per_insert(self, batch_size: int) -> float:
        if batch_size <= 0:
            raise ConfigurationError(
                f"batch size must be positive, got {batch_size}"
            )
        return self.seconds_per_batch / batch_size


def maintenance_cost(
    index: Index, batch_size: int, cpu: CpuSpec
) -> UpdateCost:
    """Cost-model seconds for one insert batch into ``index``.

    Updates run CPU-side (the index lives in CPU memory; Section 3.2).
    Updateable trees pay, per key, a traversal plus a leaf write --
    ``height + 2`` random cacheline accesses.  Static structures
    (RadixSpline, binary search's sorted array) must rebuild: a
    streaming pass over the data plus writing the structure.
    """
    if batch_size <= 0:
        raise ConfigurationError(
            f"batch size must be positive, got {batch_size}"
        )
    model = CpuCostModel(cpu)
    if index.supports_updates:
        accesses = float(batch_size) * (index.height + 2)
        return UpdateCost(
            seconds_per_batch=model.random_time(accesses),
            strategy="in-place",
        )
    data_bytes = float(len(index.column)) * KEY_BYTES
    rebuild = model.scan_time(data_bytes) + model.scan_time(
        float(index.footprint_bytes)
    )
    return UpdateCost(seconds_per_batch=rebuild, strategy="rebuild")


def functional_insert_throughput(
    index_cls: Type, base_tuples: int, batch_size: int, batches: int = 3,
    seed: int = 0,
) -> float:
    """Measured inserts/second for merge-based inserts on real data.

    Only meaningful for update-capable indexes (B+tree, Harmonia); static
    ones raise, mirroring their lack of an insert path.
    """
    if index_cls not in (BPlusTreeIndex, HarmoniaIndex):
        raise WorkloadError(
            f"{index_cls.__name__} has no insert path; Section 6 reserves "
            "update workloads for the tree indexes"
        )
    if base_tuples <= 0 or batch_size <= 0 or batches <= 0:
        raise ConfigurationError("sizes must be positive")
    # Base keys on even positions of a wide domain leave odd gaps free
    # for inserts.
    base_keys = np.arange(0, base_tuples * 4, 4, dtype=KEY_DTYPE)
    index = index_cls(Relation("R", MaterializedColumn(base_keys)))
    inserted = 0
    # Measured wall-clock throughput *is* this function's deliverable
    # (like the bench harness); the clock never feeds model state.
    started = time.perf_counter()  # repro: noqa[DET002]
    top = base_tuples * 4
    for batch in range(batches):
        offset = top + batch * batch_size * 4
        new_keys = (
            offset + np.arange(batch_size, dtype=np.int64) * 4 + 1
        ).astype(KEY_DTYPE)
        index = index.insert_keys(new_keys)
        inserted += batch_size
        # Every batch must remain fully queryable.
        found = index.lookup(new_keys)
        if np.any(found < 0):
            raise WorkloadError("inserted keys not found after merge")
    elapsed = time.perf_counter() - started  # repro: noqa[DET002]
    return inserted / elapsed if elapsed > 0 else float("inf")


# ----------------------------------------------------------------------
# Mixed read/write request streams and their reference semantics.
# ----------------------------------------------------------------------

#: Probability an update tuple is an insert (vs. an upsert of an
#: existing key).
INSERT_SHARE = 0.5

#: Share of a probe request's keys redirected at recently written keys
#: once any exist -- mixed workloads must actually *read their writes*
#: or the delta tier goes untested.
READBACK_SHARE = 0.25


@dataclass(frozen=True)
class UpdateStream:
    """A deterministic interleaved probe/update request stream.

    Per request ``i``: ``kinds[i]`` is ``"probe"`` or ``"update"``,
    ``keys[i]`` the request's keys, and ``values[i]`` the global row id
    each key writes (``None`` for probes).  Row ids continue R's global
    position space: base tuples occupy ``[0, base_tuples)`` and update
    tuple ``j`` of the stream writes ``base_tuples + j``, so every
    served position names exactly one version of one key.
    """

    kinds: Tuple[str, ...]
    keys: Tuple[np.ndarray, ...]
    values: Tuple[Optional[np.ndarray], ...]
    base_tuples: int

    @property
    def num_requests(self) -> int:
        return len(self.kinds)

    @property
    def update_requests(self) -> int:
        return sum(1 for kind in self.kinds if kind == "update")

    @property
    def update_tuples(self) -> int:
        return sum(
            len(keys)
            for kind, keys in zip(self.kinds, self.keys)
            if kind == "update"
        )


def make_update_stream(
    base_keys: np.ndarray,
    probe_keys: np.ndarray,
    num_requests: int,
    request_tuples: int,
    update_fraction: float,
    seed: int,
) -> UpdateStream:
    """Interleave update requests into a probe-key stream.

    Each request is an update with probability ``update_fraction``.
    Update tuples split ~evenly between *upserts* of existing keys and
    *inserts* of fresh keys (``member + 1`` -- the generator's stride
    guarantees those are non-members).  Probe requests slice
    ``probe_keys`` as the read-only bench does, then redirect
    ``READBACK_SHARE`` of their keys at previously written keys once
    any exist, so reads exercise the delta tier and post-compaction
    base.  Fully deterministic in ``seed``.
    """
    if update_fraction < 0.0 or update_fraction > 1.0:
        raise ConfigurationError(
            f"update fraction must be in [0, 1], got {update_fraction}"
        )
    if len(probe_keys) < num_requests * request_tuples:
        raise ConfigurationError(
            f"probe stream holds {len(probe_keys)} keys but the request "
            f"stream needs {num_requests * request_tuples}"
        )
    base_keys = np.asarray(base_keys, dtype=KEY_DTYPE)
    base_tuples = len(base_keys)
    rng = np.random.default_rng([seed, 0x5EED])
    is_update = rng.random(num_requests) < update_fraction
    kinds: list = []
    keys_out: list = []
    values_out: list = []
    written: list = []  # keys touched so far, in write order
    next_row_id = base_tuples
    for i in range(num_requests):
        if is_update[i]:
            slots = rng.integers(0, base_tuples, size=request_tuples)
            inserts = rng.random(request_tuples) < INSERT_SHARE
            keys = base_keys[slots].copy()
            keys[inserts] += KEY_DTYPE(1)
            values = next_row_id + np.arange(
                request_tuples, dtype=np.int64
            )
            next_row_id += request_tuples
            kinds.append("update")
            keys_out.append(keys)
            values_out.append(values)
            written.append(keys)
        else:
            keys = probe_keys[
                i * request_tuples : (i + 1) * request_tuples
            ].copy()
            if written:
                pool = np.concatenate(written)
                readback = rng.random(request_tuples) < READBACK_SHARE
                picks = rng.integers(
                    0, len(pool), size=int(np.count_nonzero(readback))
                )
                keys[readback] = pool[picks]
            kinds.append("probe")
            keys_out.append(keys)
            values_out.append(None)
    return UpdateStream(
        kinds=tuple(kinds),
        keys=tuple(keys_out),
        values=tuple(values_out),
        base_tuples=base_tuples,
    )


class SortedArrayOracle:
    """Reference semantics of a sorted array absorbing an update stream.

    Deliberately naive and structurally unrelated to the serve layer's
    delta tier (a plain key -> row-id mapping applied in arrival
    order), so differential tests compare two independent
    implementations.  ``lookup`` answers the *newest* row id of a key,
    -1 for keys never present.
    """

    def __init__(self, base_keys: np.ndarray):
        keys = np.asarray(base_keys, dtype=KEY_DTYPE)
        if np.any(keys[1:] <= keys[:-1]):
            raise ConfigurationError(
                "oracle base keys must be strictly increasing"
            )
        self._table = dict(zip(keys.tolist(), range(len(keys))))

    def apply(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Absorb one update batch, in order (later entries win)."""
        if len(keys) != len(values):
            raise ConfigurationError(
                f"oracle batch carries {len(keys)} keys but "
                f"{len(values)} values"
            )
        self._table.update(zip(keys.tolist(), values.tolist()))

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Newest row id per key; -1 for absent keys."""
        return np.fromiter(
            map(self._table.get, keys.tolist(), itertools.repeat(-1)),
            dtype=np.int64,
            count=len(keys),
        )
