"""OrderedDict reference models for the replay engine, and a reference replay.

The simulator replays coalesced lines through the vectorized models in
:mod:`repro.hardware.fastlru` only.  These per-line models are the
oracles those kernels are held to: every hit/miss outcome, counter and
eviction order must match on any stream (``test_fast_models.py``,
``test_replay_differential.py``).  They are deliberately the plainest
possible LRU: one ``OrderedDict`` per set, touched one access at a time.

* :class:`LruCache` -- fully associative LRU over line numbers.
* :class:`SetAssociativeCache` -- set-associative LRU; the set index is
  the line number modulo the set count.
* :class:`LruTlb` -- fully associative LRU over page numbers, plus
  first-touch (cold) miss tracking.
* :func:`coalesced_lines` -- :meth:`MachineModel.coalesced_lines` as a
  fixed-width per-warp sort over the lane-expanded trace, one column per
  lane whatever the trace's run lengths.
* :func:`replay` -- :meth:`MachineModel.simulate_lookups` rebuilt on
  these models, for end-to-end counter equality.
* :func:`kernel_passes` and :func:`assert_replays_from_empty` -- cut the
  vectorized models' pass length, so a short stream spans several
  passes, and hold a model's replay to an oracle's hit mask at both
  lengths.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterable, Optional
from unittest import mock

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.executor import LookupTrace, MachineModel
from repro.hardware import fastlru
from repro.hardware.counters import PerfCounters


class LruCache:
    """Fully associative LRU cache over line numbers."""

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
        return self.hits / total if total else 0.0


class SetAssociativeCache:
    """Set-associative LRU cache over line numbers."""

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
        for line in lines:
            self.access(line)
        return self.misses - before

    def contains(self, line: int) -> bool:
        """Whether a line is resident, without touching LRU state."""
        return line in self._sets[line % self.num_sets]

    @property
    def occupancy(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LruTlb:
    """Exact LRU TLB over page numbers, fed in program order."""

    def __init__(self, entries: int):
        if entries <= 0:
            raise ConfigurationError(f"TLB entries must be positive, got {entries}")
        self.entries = entries
        self._cached: "OrderedDict[int, None]" = OrderedDict()
        self._seen = set()
        self.hits = 0
        self.misses = 0
        #: First-touch (compulsory) misses.
        self.cold_misses = 0

    def reset(self) -> None:
        """Clear cached translations and counters."""
        self._cached.clear()
        self._seen.clear()
        self.hits = 0
        self.misses = 0
        self.cold_misses = 0

    def access(self, page: int) -> bool:
        """Translate one page; returns True on a hit."""
        cached = self._cached
        if page in cached:
            cached.move_to_end(page)
            self.hits += 1
            return True
        self.misses += 1
        if page not in self._seen:
            self._seen.add(page)
            self.cold_misses += 1
        if len(cached) >= self.entries:
            cached.popitem(last=False)
        cached[page] = None
        return False

    def access_sequence(self, pages: Iterable[int]) -> int:
        """Translate a sequence of pages; returns the number of misses."""
        before = self.misses
        for page in pages:
            self.access(page)
        return self.misses - before

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


def lane_matrix(trace: LookupTrace) -> np.ndarray:
    """The trace's address matrix with one column per lane."""
    return np.repeat(trace.step_addresses, trace.run_lengths, axis=1)


def coalesced_lines(machine: MachineModel, trace: LookupTrace) -> tuple:
    """``(lines, issued)`` of ``trace``, coalesced lane by lane.

    Waves of ``interleave_width`` lanes; per wave, each step's lanes are
    sorted warp by warp and a lane whose line equals its sorted predecessor
    coalesces away.  Inactive (negative) entries are dropped.
    """
    width = machine.sim.interleave_width
    warp = machine.spec.gpu.warp_size
    line_shift = machine.spec.gpu.cacheline_bytes.bit_length() - 1
    matrix = lane_matrix(trace)
    steps, num_lookups = matrix.shape
    if steps == 0 or num_lookups == 0:
        return np.empty(0, dtype=np.int64), 0
    issued = 0
    parts = []
    for start in range(0, num_lookups, width):
        block = matrix[:, start : start + width]
        wave_width = block.shape[1]
        padded_width = -(-wave_width // warp) * warp
        active = block >= 0
        issued += int(np.count_nonzero(active))
        lines = np.full((steps, padded_width), -1, dtype=np.int64)
        lines[:, :wave_width] = np.where(active, block >> line_shift, -1)
        by_warp = np.sort(lines.reshape(steps, -1, warp), axis=2)
        first = np.ones_like(by_warp, dtype=bool)
        first[:, :, 1:] = by_warp[:, :, 1:] != by_warp[:, :, :-1]
        first &= by_warp >= 0
        parts.append(by_warp[first])
    return np.concatenate(parts), issued


def replay(machine: MachineModel, trace: LookupTrace) -> PerfCounters:
    """Raw counters of ``trace`` on a cold hierarchy, one line at a time.

    The reference for ``machine.simulate_lookups(trace)``, which always
    replays on an empty hierarchy, event TLB on, unshuffled: the same coalesced
    line stream, from :func:`coalesced_lines`, goes through a 16-way
    :class:`SetAssociativeCache` L2 and, on a miss, an :class:`LruTlb`
    sized like the machine's.
    """
    spec = machine.spec
    gpu = spec.gpu
    l2 = SetAssociativeCache(gpu.l2_bytes, gpu.cacheline_bytes, ways=16)
    tlb = LruTlb(spec.tlb_entries)
    page_line_shift = (
        gpu.tlb_entry_bytes.bit_length() - gpu.cacheline_bytes.bit_length()
    )
    stream, issued = coalesced_lines(machine, trace)
    counters = PerfCounters()
    counters.lookups = float(trace.num_lookups)
    counters.memory_accesses = float(issued)
    if len(stream) == 0:
        return counters
    l2_hits = remote = tlb_misses = 0
    for line in stream.tolist():
        if l2.access(line):
            l2_hits += 1
            continue
        remote += 1
        if not tlb.access(line >> page_line_shift):
            tlb_misses += 1
    counters.l1_hits = float(issued - len(stream))
    counters.l2_hits = float(l2_hits)
    counters.remote_accesses = float(remote)
    counters.remote_bytes = float(remote * gpu.cacheline_bytes)
    counters.tlb_misses = float(tlb_misses)
    counters.tlb_cold_misses = float(tlb.cold_misses)
    counters.translation_requests = tlb_misses * gpu.tlb_replay_factor
    return counters


@contextmanager
def kernel_passes(bits: int):
    """Cut the vectorized models' kernel pass to ``2**bits`` accesses."""
    with mock.patch.object(fastlru, "_POS_BITS", bits), mock.patch.object(
        fastlru, "_POS_CAP", 1 << bits
    ):
        yield


def assert_replays_from_empty(
    model, stream, expected: np.ndarray, cold_misses: Optional[int] = None
) -> None:
    """``model.access_batch(stream)`` returns the oracle's hit mask.

    The stream replays twice: in passes of the current length, then in
    passes short enough for four or more.  With ``cold_misses`` (a TLB),
    the model must hold that count after each call.
    """
    stream = np.asarray(stream, dtype=np.int64)
    short = max(0, len(stream).bit_length() - 3)
    for bits in (fastlru._POS_BITS, short):
        with kernel_passes(bits):
            np.testing.assert_array_equal(model.access_batch(stream), expected)
        if cold_misses is not None:
            assert model.cold_misses == cold_misses
