"""Mixed read/write request streams and their reference semantics.

The paper closes with operational guidance (Section 6): choose Harmonia
(or a B+tree) "if the index must support inserts and updates".  The
serving layer's online-update path answers it with a mixed read/write
*request stream* (:func:`make_update_stream`) served through the delta
tier, checked element-for-element against :class:`SortedArrayOracle`
-- an intentionally naive sorted-array-with-updates reference whose
only job is to be obviously correct.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..data.column import KEY_DTYPE
from ..errors import ConfigurationError


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
