"""Reference implementations the delta-tier tests check against.

:func:`merge_newest_wins` is the merge the delta tier was first written
with: concatenate the run and the batch, stable-argsort the whole lot and
keep the last entry of each key.  It sorts the whole run on every call
and needs no precondition on either input.  The library's merge sorts
only the batch and lands it in the strictly increasing run with one
``searchsorted``; the tests require identical keys and values.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.column import KEY_DTYPE


def merge_newest_wins(
    base_keys: np.ndarray,
    base_values: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two key/value runs; later entries override earlier ones."""
    all_keys = np.concatenate(
        [np.asarray(base_keys, dtype=KEY_DTYPE),
         np.asarray(keys, dtype=KEY_DTYPE)]
    )
    all_values = np.concatenate(
        [np.asarray(base_values, dtype=np.int64),
         np.asarray(values, dtype=np.int64)]
    )
    # Stable sort keeps arrival order within equal keys, so keep-last
    # per key group implements newest-wins.
    order = np.argsort(all_keys, kind="stable")
    sorted_keys = all_keys[order]
    sorted_values = all_values[order]
    keep = np.empty(len(sorted_keys), dtype=bool)
    if len(sorted_keys):
        keep[:-1] = sorted_keys[1:] != sorted_keys[:-1]
        keep[-1] = True
    return sorted_keys[keep], sorted_values[keep]

