"""GPU cache simulators (reference models).

Section 3.1 of the paper explains why out-of-core index traversals do not
cost ``O(log n)`` *remote* accesses: "After the first few key lookups, the
upper-most tree levels are assumed to be cached and do not incur memory
accesses."  The cache models here make that behaviour emergent: upper index
levels occupy few distinct cachelines, stay resident, and stop generating
interconnect traffic after warm-up.

Two models share one interface (``access(line) -> bool``):

* :class:`LruCache` -- fully associative LRU, the reference for the
  vectorized model the TLB builds on (warp coalescing stands in for the
  L1, so no L1 is replayed).
* :class:`SetAssociativeCache` -- set-associative LRU, used for the L2.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional

from .. import obs
from ..errors import ConfigurationError


class LruCache:
    """Fully associative LRU cache over line numbers."""

    #: Set by the owner to emit ``model.<obs_name>.*`` counters from batch
    #: entry points while tracing is on (see :mod:`repro.obs`).  Scalar
    #: ``access`` never emits: per-access counter updates would dominate
    #: the reference replay loop.
    obs_name: Optional[str] = None

    def __init__(self, capacity_bytes: int, line_bytes: int):
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"cache capacity must be positive, got {capacity_bytes}"
            )
        if line_bytes <= 0:
            raise ConfigurationError(
                f"line size must be positive, got {line_bytes}"
            )
        if capacity_bytes < line_bytes:
            raise ConfigurationError(
                f"cache capacity {capacity_bytes} smaller than one line "
                f"({line_bytes})"
            )
        self.capacity_lines = capacity_bytes // line_bytes
        self.line_bytes = line_bytes
        self._lines: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self._lines.clear()
        self.hits = 0
        self.misses = 0

    def access(self, line: int) -> bool:
        """Touch one line; returns True on a hit, inserting on a miss."""
        lines = self._lines
        if line in lines:
            lines.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(lines) >= self.capacity_lines:
            lines.popitem(last=False)
        lines[line] = None
        return False

    def contains(self, line: int) -> bool:
        """Whether a line is resident, without touching LRU state."""
        return line in self._lines

    @property
    def occupancy(self) -> int:
        return len(self._lines)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


class SetAssociativeCache:
    """Set-associative LRU cache over line numbers.

    The set index is the line number modulo the set count, matching how
    physical caches slice addresses above the line offset.
    """

    #: See :attr:`LruCache.obs_name`.
    obs_name: Optional[str] = None

    def __init__(self, capacity_bytes: int, line_bytes: int, ways: int = 16):
        if ways <= 0:
            raise ConfigurationError(f"ways must be positive, got {ways}")
        if capacity_bytes <= 0 or line_bytes <= 0:
            raise ConfigurationError(
                "capacity and line size must be positive, got "
                f"{capacity_bytes} / {line_bytes}"
            )
        capacity_lines = capacity_bytes // line_bytes
        if capacity_lines < ways:
            raise ConfigurationError(
                f"capacity of {capacity_lines} lines cannot hold {ways} ways"
            )
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = max(1, capacity_lines // ways)
        self._sets = [OrderedDict() for __ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()
        self.hits = 0
        self.misses = 0

    def access(self, line: int) -> bool:
        """Touch one line; returns True on a hit, inserting on a miss."""
        cache_set = self._sets[line % self.num_sets]
        if line in cache_set:
            cache_set.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(cache_set) >= self.ways:
            cache_set.popitem(last=False)
        cache_set[line] = None
        return False

    def access_sequence(self, lines: Iterable[int]) -> int:
        """Touch a sequence of lines; returns the number of misses."""
        before = self.misses
        hits_before = self.hits
        for line in lines:
            self.access(line)
        misses = self.misses - before
        if self.obs_name is not None and obs.enabled():
            hits = self.hits - hits_before
            obs.add(f"model.{self.obs_name}.accesses", float(hits + misses))
            obs.add(f"model.{self.obs_name}.hits", float(hits))
            obs.add(f"model.{self.obs_name}.misses", float(misses))
        return misses

    def contains(self, line: int) -> bool:
        """Whether a line is resident, without touching LRU state."""
        return line in self._sets[line % self.num_sets]

    @property
    def occupancy(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


def lines_for(address: int, size_bytes: int, line_bytes: int) -> range:
    """Line numbers touched by an access of ``size_bytes`` at ``address``.

    Index nodes can span multiple cachelines (a 4 KiB B+tree node covers 32
    lines); a binary search inside such a node touches one line per probe,
    but bulk node reads touch them all.
    """
    if size_bytes <= 0:
        raise ConfigurationError(f"access size must be positive, got {size_bytes}")
    if line_bytes <= 0 or line_bytes & (line_bytes - 1) != 0:
        raise ConfigurationError(
            f"line size must be a positive power of two, got {line_bytes}"
        )
    shift = line_bytes.bit_length() - 1
    first = address >> shift
    last = (address + size_bytes - 1) >> shift
    return range(first, last + 1)
