"""Sorted key columns: materialized (numpy) and virtual (implicit).

Every index in :mod:`repro.indexes` is built over a :class:`Column`.  The
abstraction exists because the paper scales the indexed relation R to
120 GiB -- far beyond what this environment can materialize.  A
:class:`VirtualSortedColumn` makes the key at position ``i`` a pure O(1)
function of ``i``:

    key(i) = offset + i * stride + noise(i),   noise(i) = hash(i) mod g

with ``g = max(1, stride - 1)`` (``noise == 0`` for stride <= 2).  The
sequence is strictly increasing and, for stride >= 3, has a minimum gap of
2, so ``key + 1`` is never a member -- which is how generators produce
guaranteed non-matching probe keys.  Crucially the rank of any member key is
recoverable in O(1) (``(key - offset) // stride``), so membership tests and
reference join results stay exact at any scale.

Both column kinds expose the same interface; index code never branches on
the concrete type.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..errors import ConfigurationError, WorkloadError
from ..units import KEY_BYTES

#: Dtype of all keys (paper: single 8-byte integer attributes).
KEY_DTYPE = np.uint64

ArrayLike = Union[np.ndarray, int]


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 hash; deterministic and well mixed.

    Used to derive per-position noise for virtual columns.  Operates on
    uint64 with wrap-around, which numpy provides natively.
    """
    with np.errstate(over="ignore"):
        z = values.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ConfigurationError(
            f"side must be 'left' or 'right', got {side!r}"
        )


class Column:
    """Interface shared by materialized and virtual sorted key columns.

    A column is an immutable, strictly increasing sequence of uint64 keys.
    """

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        """Storage footprint of the column (8 bytes per key)."""
        return len(self) * KEY_BYTES

    def key_at(self, positions: ArrayLike) -> np.ndarray:
        """Keys at the given positions (vectorized)."""
        raise NotImplementedError

    def rank_of(self, keys: ArrayLike) -> np.ndarray:
        """Exact positions of the given keys; -1 where a key is absent."""
        raise NotImplementedError

    def lower_bound_hint(self, keys: ArrayLike) -> np.ndarray:
        """Approximate position of each key and a guaranteed error bound.

        Returns an int64 array ``est`` such that the true lower-bound
        position of every key lies within ``[est - error_bound(),
        est + error_bound()]`` clamped to the column.  Learned indexes
        (RadixSpline) build on this for virtual columns.
        """
        raise NotImplementedError

    def hint_error_bound(self) -> int:
        """Error bound accompanying :meth:`lower_bound_hint`."""
        raise NotImplementedError

    def bound_positions(self, keys: ArrayLike, side: str = "left") -> np.ndarray:
        """Vectorized ``searchsorted`` over the column: each key's rank.

        ``side="left"`` returns the first position whose key is ``>=``
        each probe (the lower bound); ``side="right"`` the first whose
        key is ``>`` it.  Both return ``len(self)`` when no such
        position exists.  Materialized columns answer with one
        ``searchsorted``, virtual columns in O(1) per key.  Index
        descents derive every slot from these ranks, and the non-equi
        join oracles are built on them.
        """
        raise NotImplementedError

    @property
    def min_key(self) -> int:
        return int(self.key_at(np.asarray([0]))[0])

    @property
    def max_key(self) -> int:
        return int(self.key_at(np.asarray([len(self) - 1]))[0])

    @property
    def min_gap(self) -> int:
        """Guaranteed minimum difference between adjacent keys."""
        raise NotImplementedError

    def validate_sample(self, rng: np.random.Generator, samples: int = 4096) -> None:
        """Spot-check monotonicity on a random sample of adjacent pairs.

        Full validation of a virtual 2^34-key column is infeasible;
        sampling catches parameterization bugs cheaply.
        """
        n = len(self)
        if n < 2:
            return
        positions = rng.integers(0, n - 1, size=min(samples, n - 1))
        left = self.key_at(positions)
        right = self.key_at(positions + 1)
        if not np.all(left < right):
            raise WorkloadError("column is not strictly increasing")


class MaterializedColumn(Column):
    """A sorted unique key column backed by a real numpy array."""

    def __init__(self, keys: np.ndarray):
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        if keys.ndim != 1:
            raise ConfigurationError(
                f"keys must be one-dimensional, got shape {keys.shape}"
            )
        if len(keys) == 0:
            raise ConfigurationError("a column cannot be empty")
        if len(keys) > 1 and not np.all(keys[:-1] < keys[1:]):
            raise ConfigurationError("keys must be strictly increasing")
        self._keys = keys
        if len(keys) > 1:
            gaps = keys[1:] - keys[:-1]
            self._min_gap = int(gaps.min())
        else:
            self._min_gap = 1

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def keys(self) -> np.ndarray:
        """The backing array (read-only view)."""
        view = self._keys.view()
        view.flags.writeable = False
        return view

    def key_at(self, positions: ArrayLike) -> np.ndarray:
        positions = np.asarray(positions)
        return self._keys[positions]

    def rank_of(self, keys: ArrayLike) -> np.ndarray:
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        positions = np.searchsorted(self._keys, keys).astype(np.int64)
        in_range = positions < len(self._keys)
        found = np.zeros(len(keys), dtype=bool)
        found[in_range] = self._keys[positions[in_range]] == keys[in_range]
        positions[~found] = -1
        return positions

    def lower_bound_hint(self, keys: ArrayLike) -> np.ndarray:
        # A materialized column answers exactly; hint == truth, error 0.
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        return np.searchsorted(self._keys, keys).astype(np.int64)

    def hint_error_bound(self) -> int:
        return 0

    def bound_positions(self, keys: ArrayLike, side: str = "left") -> np.ndarray:
        _check_side(side)
        keys = np.atleast_1d(np.asarray(keys, dtype=KEY_DTYPE))
        return np.searchsorted(self._keys, keys, side=side).astype(np.int64)

    @property
    def min_gap(self) -> int:
        return self._min_gap


class VirtualSortedColumn(Column):
    """An implicit sorted unique key column of arbitrary size.

    Attributes:
        num_keys: column length (up to 2^34 and beyond).
        stride: average key spacing; keys occupy
            ``[offset, offset + num_keys * stride)``.
        offset: key of position 0 before noise.
        seed: noise stream selector.
    """

    def __init__(
        self,
        num_keys: int,
        stride: int = 4,
        offset: int = 0,
        seed: int = 0,
    ):
        if num_keys <= 0:
            raise ConfigurationError(f"num_keys must be positive, got {num_keys}")
        if stride <= 0:
            raise ConfigurationError(f"stride must be positive, got {stride}")
        if offset < 0:
            raise ConfigurationError(f"offset must be non-negative, got {offset}")
        span = offset + num_keys * stride
        if span >= 2**63:
            raise ConfigurationError(
                f"key domain [{offset}, {span}) exceeds 63 bits"
            )
        self.num_keys = num_keys
        self.stride = stride
        self.offset = offset
        self.seed = seed
        # Noise range keeps the sequence strictly increasing with the
        # largest possible gap floor: noise in [0, stride-2] for stride>=3.
        self._noise_mod = max(1, stride - 1)

    def __len__(self) -> int:
        return self.num_keys

    def _noise(self, positions: np.ndarray) -> np.ndarray:
        if self._noise_mod == 1:
            return np.zeros(len(positions), dtype=KEY_DTYPE)
        seed_mix = np.uint64((self.seed * 0x5851F42D4C957F2D) % 2**64)
        mixed = _splitmix64(positions.astype(np.uint64) ^ seed_mix)
        return mixed % np.uint64(self._noise_mod)

    def key_at(self, positions: ArrayLike) -> np.ndarray:
        positions = np.atleast_1d(np.asarray(positions))
        if positions.size and (
            positions.min() < 0 or positions.max() >= self.num_keys
        ):
            raise ConfigurationError(
                f"positions out of range [0, {self.num_keys})"
            )
        base = (
            np.uint64(self.offset)
            + positions.astype(np.uint64) * np.uint64(self.stride)
        )
        return base + self._noise(positions)

    def _rank_estimate(self, keys: np.ndarray) -> np.ndarray:
        """``(key - offset) // stride`` clamped to ``[0, num_keys]``.

        key(i) lies in ``[offset + i*stride, offset + i*stride + stride - 2]``
        (just ``offset + i*stride`` for stride <= 2), so every position
        below the estimate holds a smaller key and every position above
        it a larger one: only the key at the estimate itself can compare
        either way.  The subtraction runs in uint64, clamped at zero, so
        keys at or above 2^63 never wrap negative.
        """
        offset = np.uint64(self.offset)
        shifted = np.where(keys > offset, keys - offset, np.uint64(0))
        estimate = np.minimum(
            shifted // np.uint64(self.stride), np.uint64(self.num_keys)
        )
        return estimate.astype(np.int64)

    def rank_of(self, keys: ArrayLike) -> np.ndarray:
        keys = np.atleast_1d(np.asarray(keys, dtype=KEY_DTYPE))
        estimate = self._rank_estimate(keys)
        inside = estimate < self.num_keys
        member = inside & (
            self.key_at(np.where(inside, estimate, 0)) == keys
        )
        return np.where(member, estimate, np.int64(-1))

    def bound_positions(self, keys: ArrayLike, side: str = "left") -> np.ndarray:
        # One key read per probe: the rank is the estimate, plus one when
        # the key at the estimate still counts (below the probe for the
        # lower bound, at or below it for the upper bound).
        _check_side(side)
        keys = np.atleast_1d(np.asarray(keys, dtype=KEY_DTYPE))
        estimate = self._rank_estimate(keys)
        inside = estimate < self.num_keys
        at_estimate = self.key_at(np.where(inside, estimate, 0))
        if side == "left":
            counts = at_estimate < keys
        else:
            counts = at_estimate <= keys
        return estimate + (inside & counts)

    def lower_bound_hint(self, keys: ArrayLike) -> np.ndarray:
        keys = np.atleast_1d(np.asarray(keys, dtype=KEY_DTYPE))
        return np.minimum(self._rank_estimate(keys), self.num_keys - 1)

    def hint_error_bound(self) -> int:
        # key(i) lies in [offset + i*stride, offset + i*stride + stride - 2],
        # so (key - offset) // stride recovers i for member keys and is off
        # by at most one position for arbitrary keys in the domain.
        return 1

    @property
    def min_gap(self) -> int:
        if self.stride >= 3:
            return 2
        return self.stride

    def sample_positions(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """Uniform random positions, for drawing foreign keys."""
        if count < 0:
            raise WorkloadError(f"sample count must be non-negative, got {count}")
        return rng.integers(0, self.num_keys, size=count, dtype=np.int64)


def make_column(
    num_keys: int,
    materialize_threshold: int = 2**22,
    stride: int = 4,
    seed: int = 0,
) -> Column:
    """Build a column, materializing it when small enough to be cheap.

    Experiments use this helper so that laptop-scale runs exercise the real
    array path and paper-scale runs use the implicit path, with identical
    key sequences (the materialized variant evaluates the same formula).
    """
    virtual = VirtualSortedColumn(num_keys=num_keys, stride=stride, seed=seed)
    if num_keys <= materialize_threshold:
        positions = np.arange(num_keys, dtype=np.int64)
        return MaterializedColumn(virtual.key_at(positions))
    return virtual
