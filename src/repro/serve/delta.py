"""Per-shard delta tier: a sorted buffer absorbing online updates.

The serve layer's indexes are the paper's *static* structures -- even
the "updatable" trees are implicit arrays here -- so online traffic
that writes cannot touch the base index per key.  Instead every shard
(and every replica of it, and the fallback) carries a
:class:`DeltaBuffer`: a small sorted array of ``(key, row id)`` pairs
absorbing insert/upsert windows.  Probes reconcile the base
``probe_batch`` answer against a ``searchsorted`` over the delta,
newest-wins, so served positions stay element-equal to a sorted-array
oracle applying the same update stream (the FliX-motivated design from
ROADMAP open item 1: GPU-resident indexes struggle with in-place
updates, so buffer-and-merge).  Update windows queue as they arrive and
fold into the sorted array on the buffer's next read, in one
:func:`merge_newest_wins` pass over it.

Reads over a deep delta pay for the extra binary search -- the *read
amplification* the :class:`CompactionPolicy` trades against the priced
cost of folding the delta back into the base index
(:func:`~repro.serve.recovery.price_compaction`): B+tree/Harmonia
absorb cheaply, the RadixSpline must retrain, binary search
rebuilds.  Compaction is scheduled on the simulated clock exactly like
a PR-7 recovery rebuild.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..data.column import KEY_DTYPE
from ..errors import ConfigurationError
from ..hardware.counters import PerfCounters


def merge_newest_wins(
    base_keys: np.ndarray,
    base_values: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge a batch into a sorted, unique run; later entries win.

    ``base_keys`` must be strictly increasing, as a delta buffer's run
    and a shard's column both are.  Within ``keys`` itself the *last*
    occurrence of a duplicate wins, and any key present in both takes
    its value from ``keys``/``values`` -- the update stream's
    arrival-order semantics.  Only the batch is sorted; it lands in the
    run with one ``searchsorted`` and one masked copy per array, a
    single pass over the run.  Returns new sorted, unique arrays.
    """
    base_keys = np.asarray(base_keys, dtype=KEY_DTYPE)
    base_values = np.asarray(base_values, dtype=np.int64)
    keys = np.asarray(keys, dtype=KEY_DTYPE)
    # Stable sort keeps arrival order within equal keys, so keep-last
    # per key group implements newest-wins inside the batch.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    values = np.asarray(values, dtype=np.int64)[order]
    if len(keys):
        last = np.empty(len(keys), dtype=bool)
        last[:-1] = keys[1:] != keys[:-1]
        last[-1] = True
        keys, values = keys[last], values[last]
    if len(base_keys) == 0:
        return keys, values
    slots = np.searchsorted(base_keys, keys)
    # A key past the run clips onto its last key, which is smaller.
    new = base_keys.take(slots, mode="clip") != keys
    # Each batch key lands after the run keys below it and the new keys
    # before it; a key already in the run lands on (overwrites) its slot.
    targets = slots + (np.cumsum(new) - new)
    placed = targets[new]
    kept = np.ones(len(base_keys) + len(placed), dtype=bool)
    kept[placed] = False
    merged_keys = np.empty(len(kept), dtype=KEY_DTYPE)
    merged_values = np.empty(len(kept), dtype=np.int64)
    merged_keys[kept] = base_keys
    merged_keys[placed] = keys[new]
    merged_values[kept] = base_values
    merged_values[targets] = values
    return merged_keys, merged_values


def delta_search_steps(delta_tuples: int) -> int:
    """Binary-search touches one delta lookup costs (0 when empty)."""
    if delta_tuples <= 0:
        return 0
    return int(math.ceil(math.log2(delta_tuples))) + 1 if delta_tuples > 1 else 1


def read_amplification(delta_tuples: int, index_height: int) -> float:
    """Structural read tax: delta search depth over base index height.

    1.0 means every probe does as much extra pointer-chasing in the
    delta as one full base traversal -- the quantity the compaction
    policy thresholds.
    """
    return delta_search_steps(delta_tuples) / float(max(1, index_height))


class DeltaBuffer:
    """Sorted ``(key, row id)`` pairs absorbing an update stream.

    Values are *global row ids*: base R rows occupy ``[0, N)`` and each
    update tuple carries ``N + its global sequence in the stream``, so
    a served position names exactly one version of one key.  ``apply``
    is idempotent for a repeated batch (newest-wins of equal values),
    which keeps retried update windows safe.

    ``apply`` only queues a copy of its batch; every reader first folds
    the queued batches into the sorted run with one merge.  A buffer
    nobody reads (the fallback's, until a fault routes a window to it)
    therefore never merges at all.
    """

    __slots__ = ("_keys", "_values", "_pending")

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=KEY_DTYPE)
        self._values = np.empty(0, dtype=np.int64)
        #: Batches applied since the last fold, in arrival order.
        self._pending: List[Tuple[np.ndarray, np.ndarray]] = []

    def _fold(self) -> None:
        """Merge the queued batches into the sorted run, newest-wins."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        # Arrival order survives the concatenation, so the merge's
        # newest-wins holds across batches as within one.
        self._keys, self._values = merge_newest_wins(
            self._keys,
            self._values,
            np.concatenate([keys for keys, _ in pending]),
            np.concatenate([values for _, values in pending]),
        )

    @property
    def num_tuples(self) -> int:
        self._fold()
        return len(self._keys)

    @property
    def search_steps(self) -> int:
        return delta_search_steps(self.num_tuples)

    def apply(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Absorb one update window (newest-wins against current state).

        The batch is copied: callers may reuse their arrays.
        """
        if len(keys) != len(values):
            raise ConfigurationError(
                f"update window carries {len(keys)} keys but "
                f"{len(values)} values"
            )
        if len(keys) == 0:
            return
        self._pending.append(
            (np.array(keys, dtype=KEY_DTYPE), np.array(values, dtype=np.int64))
        )

    def lookup_into(self, keys: np.ndarray, positions: np.ndarray) -> int:
        """Override ``positions`` with delta hits; returns the hit count.

        The delta is newer than any base answer, so a hit replaces
        whatever the base probe produced (match or miss) -- the
        newest-wins reconciliation of the tentpole contract.
        """
        self._fold()
        if len(self._keys) == 0:
            return 0
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        slots = np.searchsorted(self._keys, keys)
        clipped = np.minimum(slots, len(self._keys) - 1)
        hits = self._keys[clipped] == keys
        positions[hits] = self._values[clipped[hits]]
        return int(np.count_nonzero(hits))

    def drain(self) -> Tuple[np.ndarray, np.ndarray]:
        """Hand the buffered pairs to a compaction and reset to empty."""
        self._fold()
        keys, values = self._keys, self._values
        self._keys = np.empty(0, dtype=KEY_DTYPE)
        self._values = np.empty(0, dtype=np.int64)
        return keys, values

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of the buffered pairs (tests and payload plumbing)."""
        self._fold()
        return self._keys.copy(), self._values.copy()

    def read_counters(self, window_tuples: int) -> Optional[PerfCounters]:
        """Extra replay counters one probe window pays for this delta.

        Analytic model of the reconciliation ``searchsorted``: each of
        the window's lookups walks ``search_steps`` levels of the
        delta.  The buffer is small and hot, so all but the deepest two
        touches hit cache; two go remote (the delta lives host-side
        like the index).  ``None`` when the delta is empty, so the
        fast path stays counter-free.
        """
        if self.num_tuples == 0 or window_tuples <= 0:
            return None
        steps = float(self.search_steps)
        width = float(window_tuples)
        remote = width * float(min(self.search_steps, 2))
        return PerfCounters(
            memory_accesses=width * steps,
            l2_hits=width * max(0.0, steps - 2.0),
            remote_accesses=remote,
            simt_instructions=width * steps,
        )


#: Delta size at which compaction is forced regardless of pricing.
DEFAULT_MAX_DELTA_TUPLES = 1024

#: Read-amplification cap: compact once delta search depth reaches this
#: multiple of the base index height.
DEFAULT_MAX_READ_AMPLIFICATION = 2.0

#: Rent-to-own ratio: compact once accrued delta-read seconds exceed
#: this multiple of the (per-index-type) compaction price.
DEFAULT_COST_RATIO = 1.0


@dataclass(frozen=True)
class CompactionPolicy:
    """When to fold a replica's delta back into its base index.

    Three triggers, checked in order:

    * hard size cap (``max_delta_tuples``) -- bounds worst-case delta
      depth whatever the prices say;
    * read-amplification cap (``max_read_amplification``) -- bounds the
      structural read tax per probe;
    * the priced rent-to-own rule (``cost_ratio``) -- compact once the
      *accrued* extra read seconds a replica has paid for its delta
      exceed ``cost_ratio`` times the compaction price.  This is what
      makes compact-now-vs-degrade-reads a real per-index-type cost
      decision: a B+tree absorbs cheaply and compacts early, a
      RadixSpline retrain is expensive so it tolerates a deeper delta.
    """

    max_delta_tuples: int = DEFAULT_MAX_DELTA_TUPLES
    max_read_amplification: float = DEFAULT_MAX_READ_AMPLIFICATION
    cost_ratio: float = DEFAULT_COST_RATIO

    def __post_init__(self) -> None:
        if self.max_delta_tuples < 1:
            raise ConfigurationError(
                f"max_delta_tuples must be >= 1, got {self.max_delta_tuples}"
            )
        if self.max_read_amplification <= 0:
            raise ConfigurationError(
                "max_read_amplification must be positive, got "
                f"{self.max_read_amplification}"
            )
        if self.cost_ratio <= 0:
            raise ConfigurationError(
                f"cost_ratio must be positive, got {self.cost_ratio}"
            )

    def should_compact(
        self,
        delta_tuples: int,
        read_amp: float,
        accrued_read_seconds: float,
        compaction_seconds: float,
    ) -> bool:
        if delta_tuples <= 0:
            return False
        if delta_tuples >= self.max_delta_tuples:
            return True
        if read_amp >= self.max_read_amplification:
            return True
        return accrued_read_seconds >= self.cost_ratio * compaction_seconds


#: The executor's default policy instance.
DEFAULT_COMPACTION_POLICY = CompactionPolicy()
