"""Vectorized cache/TLB models (the replay engine).

A figure sweeps millions of coalesced transactions through the L2 and
the TLB, far too many to replay one line per Python call.  This module
answers the LRU questions with numpy batch kernels built on one
identity: an access hits iff fewer than ``C`` distinct keys (per set, for a
set-associative cache) were touched since the previous access to the same
key -- its reuse (Mattson stack) distance is below the capacity.

* :class:`VectorLruCache` -- fully associative LRU.  When the resident
  stack and the batch's distinct keys fit in the capacity together, nothing
  can be evicted and the batch resolves in one sort.  Otherwise it
  processes the stream in chunks of at most ``min(capacity, 4096)``
  accesses: within a chunk every re-access is a guaranteed hit, and
  accesses to pre-chunk residents hit iff ``depth + new_distinct_before <
  capacity`` -- a stack-distance test resolved with two cumulative bounds
  and an exact dominance count for the few accesses between the bounds.
* :class:`VectorSetAssociativeCache` -- set-associative LRU.  One kernel
  resolves every set at once: the batch is grouped per set behind the
  set's residents, previous occurrences come from one packed sort
  (:func:`_previous_touches`), and in :func:`_reuse_hits` trivial classes
  settle most accesses outright and only the rest count their reuse
  distance with lag gathers.
* :class:`VectorLruTlb` -- :class:`VectorLruCache` plus first-touch (cold
  miss) tracking.

Exactness is the contract, not an aspiration: every model produces the
same per-access hit/miss outcomes, the same eviction order, and the same
counters as its ``OrderedDict`` oracle in ``tests/hardware/oracles.py``
on any stream (see ``tests/hardware/test_fast_models.py`` and
``tests/hardware/test_replay_differential.py``).  The scalar ``access``
API shares the oracles' interface; the batch APIs are what the executor
uses.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .. import obs
from ..errors import ConfigurationError

#: Chunk length for the fully-associative models.  Must not exceed the
#: capacity (the free-hit argument above needs it).  4096 balances the
#: per-chunk numpy call overhead against the in-chunk ambiguity band,
#: which grows superlinearly with the chunk length (measured fastest on
#: the standard sweeps among 1k-16k).
_CHUNK = 4096

#: Position bits packed next to a key when stable-sorting ``(key, pos)``
#: pairs as one int64.  Bounds the batch length one packed sort can cover.
_POS_BITS = 21
_POS_CAP = 1 << _POS_BITS


def _emit_model_counters(name: str, accesses: int, hits: int) -> None:
    """Batch-granularity obs counters for one named hierarchy level."""
    obs.add(f"model.{name}.accesses", float(accesses))
    obs.add(f"model.{name}.hits", float(hits))
    obs.add(f"model.{name}.misses", float(accesses - hits))


class VectorLruCache:
    """Fully associative LRU over line numbers, batch-vectorized.

    Adds :meth:`access_batch` and :meth:`resident_lines` to the scalar
    ``access``/``contains`` interface.
    """

    #: Set by the owner (e.g. ``MachineModel`` names its levels "l2"/"tlb")
    #: to emit ``model.<obs_name>.*`` counters from batch accesses while
    #: tracing is on.  Unnamed models stay silent.
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
        self._stack = np.empty(0, np.int64)  # resident keys, MRU first
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self._stack = np.empty(0, np.int64)
        self.hits = 0
        self.misses = 0

    # -- batch path ----------------------------------------------------

    def access_batch(self, lines: np.ndarray) -> np.ndarray:
        """Touch a stream of lines; returns the per-access hit mask."""
        return self._access(lines)[0]

    def _access(self, lines: np.ndarray):
        """:meth:`access_batch`, plus the sorted distinct lines of the
        batch's last kernel pass (all of them when one pass covers it)."""
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        n = len(lines)
        if n == 0:
            return np.zeros(0, bool), np.empty(0, np.int64)
        hit_mask = np.empty(n, bool)
        for lo in range(0, n, _POS_CAP):
            hits, self._stack, distinct = _lru_replay(
                lines[lo : lo + _POS_CAP], self.capacity_lines, self._stack
            )
            hit_mask[lo : lo + _POS_CAP] = hits
        nhit = int(np.count_nonzero(hit_mask))
        self.hits += nhit
        self.misses += n - nhit
        if self.obs_name is not None and obs.enabled():
            _emit_model_counters(self.obs_name, n, nhit)
        return hit_mask, distinct

    # -- scalar compatibility ------------------------------------------

    def access(self, line: int) -> bool:
        """Touch one line; returns True on a hit, inserting on a miss."""
        return bool(self.access_batch(np.array([line], np.int64))[0])

    def contains(self, line: int) -> bool:
        """Whether a line is resident, without touching LRU state."""
        return bool(np.any(self._stack == line))

    def resident_lines(self) -> np.ndarray:
        """Resident lines in LRU-to-MRU order (OrderedDict iteration order)."""
        return self._stack[::-1].copy()

    @property
    def occupancy(self) -> int:
        return len(self._stack)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


def _lru_replay(batch: np.ndarray, capacity: int, stack: np.ndarray):
    """Exact LRU replay of a batch of keys.

    ``stack`` holds the resident keys, most recent first.  Returns the hit
    mask, the updated stack and the batch's sorted distinct keys.  When the
    stack and the batch's distinct keys fit in the capacity together,
    nothing can be evicted: a touch hits iff its key is resident or was
    touched earlier in the batch, and the new stack is the batch's keys by
    last touch (newest first), then the untouched residents in their old
    order.  Otherwise the batch replays in chunks over dense ids; see the
    module docstring for the stack-distance argument behind the chunked
    evaluation.
    """
    n = len(batch)
    packed = batch << _POS_BITS
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    pos = packed & (_POS_CAP - 1)
    packed >>= _POS_BITS
    group_start = np.ones(n, bool)
    group_start[1:] = packed[1:] != packed[:-1]
    distinct = packed[group_start]
    del packed
    slot = np.searchsorted(distinct, stack)
    in_batch = np.zeros(len(stack), bool)
    inside = slot < len(distinct)
    in_batch[inside] = distinct[slot[inside]] == stack[inside]
    idle = stack[~in_batch]  # residents the batch does not touch
    if len(distinct) + len(idle) <= capacity:
        resident = np.zeros(len(distinct), bool)
        resident[slot[in_batch]] = True
        hits = np.ones(n, bool)
        hits[pos[group_start][~resident]] = False
        last = np.sort(pos[np.append(group_start[1:], True)])[::-1]
        return hits, np.concatenate([batch[last], idle]), distinct
    # Dense ids: batch keys index ``distinct``, idle residents follow.
    ids = np.cumsum(group_start)
    del group_start
    ids -= 1
    keys = np.empty(n, np.int64)
    keys[pos] = ids
    del pos, ids
    id_to_key = np.concatenate([distinct, idle])
    stack = np.where(in_batch, slot, len(distinct) + np.cumsum(~in_batch) - 1)
    umax = len(id_to_key)
    T = min(capacity, _CHUNK)
    hits = np.zeros(n, bool)
    depth_map = np.full(umax, -1, np.int32)
    for lo in range(0, n, T):
        k = keys[lo : lo + T]
        t = len(k)
        depth_map[stack] = np.arange(len(stack), dtype=np.int32)
        packed = np.sort((k << 14) | np.arange(t, dtype=np.int64))
        pk = packed >> 14
        ppos = packed & 0x3FFF
        group_start = np.ones(t, bool)
        group_start[1:] = pk[1:] != pk[:-1]
        first = np.zeros(t, bool)
        first[ppos] = group_start          # first in-chunk touch, time order
        hits[lo + np.nonzero(~first)[0]] = True   # re-touches always hit
        fk = k[first]
        fpos = np.nonzero(first)[0]
        delta = depth_map[fk].astype(np.int64)    # -1 = not resident
        absent = delta < 0
        resident = ~absent
        # Exclusive running counts over first-occurrences, time order:
        # f = all first-occurrences so far (upper bound on sinkage),
        # g = absent first-occurrences so far (lower bound on sinkage).
        f_excl = np.arange(len(fk), dtype=np.int64)
        g_excl = np.cumsum(absent, dtype=np.int64) - absent
        free_hit = resident & (delta + f_excl < capacity)
        certain_miss = absent | (delta + g_excl >= capacity)
        ambiguous = ~(free_hit | certain_miss)
        first_hit = free_hit
        n_amb = int(np.count_nonzero(ambiguous))
        if n_amb:
            # Exact sinkage: of the f_excl first-occurrences before the
            # query, those touching a shallower resident do not push it
            # down -- count them (a 2-D dominance count: src_t < qt and
            # src_d <= qd) and subtract.  The count is evaluated blocked:
            # residents are split into 64-wide time blocks whose depths
            # are sorted once (all blocks in a single flat sort, keyed by
            # block * (capacity + 1) + depth), full blocks answer with one
            # batched searchsorted, and each query's partial block is a
            # 64-element masked compare -- O((A + R) log) instead of the
            # A x R broadcast.
            src_t = f_excl[resident]            # strictly increasing
            src_d = delta[resident]
            qt = f_excl[ambiguous]
            qd = delta[ambiguous]
            L = 64
            num_blocks = -(-len(src_d) // L)
            span = capacity + 1                 # depths < capacity; pad = capacity
            padded = np.full(num_blocks * L, capacity, np.int64)
            padded[: len(src_d)] = src_d
            block_of = np.repeat(
                np.arange(num_blocks, dtype=np.int64), L
            )
            flat = np.sort(block_of * span + padded)
            eligible = np.searchsorted(src_t, qt, side="left")
            full_blocks = eligible // L
            remainder = eligible - full_blocks * L
            q_keys = (
                np.arange(num_blocks, dtype=np.int64)[:, None] * span
                + qd[None, :]
            )
            per_block = np.searchsorted(
                flat, q_keys.reshape(-1), side="right"
            ).reshape(num_blocks, n_amb)
            per_block -= np.arange(num_blocks, dtype=np.int64)[:, None] * L
            cumulative = np.zeros((num_blocks + 1, n_amb), np.int64)
            np.cumsum(per_block, axis=0, out=cumulative[1:])
            shallower = cumulative[full_blocks, np.arange(n_amb)]
            lane = np.arange(L, dtype=np.int64)
            window = np.minimum(
                full_blocks[:, None] * L + lane[None, :],
                num_blocks * L - 1,
            )
            shallower += (
                (padded[window] <= qd[:, None])
                & (lane[None, :] < remainder[:, None])
            ).sum(axis=1)
            first_hit = free_hit.copy()
            first_hit[ambiguous] = qd + qt - shallower < capacity
        hits[lo + fpos[first_hit]] = True
        # New stack: chunk keys by last touch (newest first), then the
        # untouched old residents in their old order, capped at capacity.
        # (LRU inclusion: the content is always the capacity most recently
        # used distinct keys, whatever evictions happened mid-chunk.)
        group_last = np.ones(t, bool)
        group_last[:-1] = pk[1:] != pk[:-1]
        last_pos = np.sort(ppos[group_last])[::-1]
        depth_map[stack] = -1              # clear for the next chunk
        untouched = np.ones(len(stack), bool)
        untouched[delta[resident]] = False
        stack = np.concatenate([k[last_pos], stack[untouched]])[:capacity]
    return hits, id_to_key[stack], distinct


class VectorSetAssociativeCache:
    """Set-associative LRU over line numbers, batch-vectorized.

    The set index is the line number modulo the set count.  State is one
    ``(sets, ways)`` array holding each set's resident lines in LRU-to-MRU
    order, right-aligned: empty ways are -1 and come first.

    A batch that reaches an empty cache and fits one kernel pass replays
    *cold*: no residents to prepend and no state to write.  The cache keeps
    the batch and folds its end state into the array on the first read
    (:meth:`contains`, :meth:`resident_lines`, :attr:`occupancy` or the
    next non-empty batch); :meth:`reset` drops it unbuilt.  It keeps the
    caller's array, not a copy: until the cache is read or reset, the
    caller must not write to a batch it passed.
    """

    #: See :attr:`VectorLruCache.obs_name`.
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
        self._tags = np.full((self.num_sets, ways), -1, np.int64)
        #: Whether ``_tags`` holds no line.
        self._blank = True
        #: The batch replayed cold, until a read folds it into ``_tags``.
        self._pending: Optional[np.ndarray] = None
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        if not self._blank:
            self._tags.fill(-1)
            self._blank = True
        self._pending = None
        self.hits = 0
        self.misses = 0

    def access_batch(self, lines: np.ndarray) -> np.ndarray:
        """Touch a stream of lines; returns the per-access hit mask."""
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        n = len(lines)
        if n == 0:
            return np.zeros(0, bool)
        if self._blank and self._pending is None and n <= _POS_CAP:
            hit_mask = self._replay(lines, cold=True)
            self._pending = lines
        else:
            self._fold()
            hit_mask = np.empty(n, bool)
            for lo in range(0, n, _POS_CAP):
                batch = lines[lo : lo + _POS_CAP]
                hit_mask[lo : lo + _POS_CAP] = self._replay(batch)
        nhit = int(np.count_nonzero(hit_mask))
        self.hits += nhit
        self.misses += n - nhit
        if self.obs_name is not None and obs.enabled():
            _emit_model_counters(self.obs_name, n, nhit)
        return hit_mask

    def _fold(self) -> None:
        """Write the end state of the batch replayed cold, if any."""
        if self._pending is not None:
            pending, self._pending = self._pending, None
            self._replay(pending)

    def _replay(self, lines: np.ndarray, cold: bool = False) -> np.ndarray:
        """Hit mask of one kernel pass, written into the state unless
        ``cold`` (an empty cache, whose end state waits for :meth:`_fold`)."""
        ways = self.ways
        n = len(lines)
        order = lines % self.num_sets
        if cold:
            stream = lines
        else:
            # Each touched set's residents go first, LRU to MRU, as
            # pseudo-accesses, so carried state needs no special casing.
            touched = np.flatnonzero(
                np.bincount(order, minlength=self.num_sets)
            )
            rows = self._tags[touched]
            held = rows >= 0
            stream = np.concatenate([rows[held], lines])
            order = np.concatenate([np.repeat(touched, held.sum(axis=1)), order])
        total = len(stream)
        prior = total - n
        bits = total.bit_length()
        # Group per set, stable by position.
        order <<= bits
        order |= np.arange(total)
        order.sort()
        rank = order & ((1 << bits) - 1)
        order >>= bits
        s = stream[rank]
        # A repeat of the set's previous line is a guaranteed hit on the MRU
        # way and leaves the LRU order unchanged -- drop it up front.  Equal
        # lines share a set, so this never pairs two sets and never drops
        # a set's first access: the set starts survive the drop.
        keep = np.ones(total, bool)
        keep[1:] = s[1:] != s[:-1]
        seg_start = np.ones(total, bool)
        seg_start[1:] = order[1:] != order[:-1]
        del order
        starts = np.flatnonzero(seg_start[keep])
        del seg_start
        s = s[keep]
        rank = rank[keep]
        del keep
        pv, last = _previous_touches(s, not cold)
        del s  # its buffer held the sort
        hit = _reuse_hits(pv, starts, ways)
        del pv
        missed = rank[~hit]
        del hit
        out = np.ones(n, bool)
        out[missed[missed >= prior] - prior] = False
        del missed
        if not cold:
            # New state per set: its ways most recently used distinct
            # lines, read off the last touches (ascending positions stay
            # set-grouped).
            last_pos = np.flatnonzero(last)
            last_line = stream[rank[last_pos]]
            last_set = last_line % self.num_sets
            ends = np.cumsum(np.bincount(last_set, minlength=self.num_sets))
            from_end = ends[last_set] - 1 - np.arange(len(last_pos))
            kept = from_end < ways
            self._tags[touched] = -1
            self._tags[last_set[kept], ways - 1 - from_end[kept]] = (
                last_line[kept]
            )
            self._blank = False
        return out

    # -- scalar compatibility ------------------------------------------

    def access(self, line: int) -> bool:
        """Touch one line; returns True on a hit, inserting on a miss."""
        return bool(self.access_batch(np.array([line], np.int64))[0])

    def access_sequence(self, lines: Iterable[int]) -> int:
        """Touch a sequence of lines; returns the number of misses."""
        arr = np.fromiter(lines, dtype=np.int64)
        before = self.misses
        self.access_batch(arr)
        return self.misses - before

    def contains(self, line: int) -> bool:
        """Whether a line is resident, without touching LRU state."""
        self._fold()
        return bool(np.any(self._tags[int(line) % self.num_sets] == line))

    def resident_lines(self, set_index: int) -> np.ndarray:
        """One set's resident lines in LRU-to-MRU order."""
        self._fold()
        row = self._tags[set_index]
        return row[row >= 0]

    @property
    def occupancy(self) -> int:
        self._fold()
        return int(np.count_nonzero(self._tags >= 0))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


def _previous_touches(s: np.ndarray, with_last: bool):
    """Each access's previous touch of its line, from one packed sort.

    Returns ``(pv, last)``: ``pv[i]`` is the position of the access before
    ``i`` to line ``s[i]`` (-1 for a first touch) and, ``with_last``,
    ``last`` masks each line's last access (else None).  Consumes ``s``:
    its buffer holds the packed ``(line, position)`` sort, then the
    sorted positions.
    """
    m = len(s)
    bits = m.bit_length()
    s <<= bits
    s |= np.arange(m)
    s.sort()
    lines = s >> bits
    same = lines[1:] == lines[:-1]
    del lines
    pos = s
    pos &= (1 << bits) - 1
    prev = pos[:-1][same]
    pv = np.full(m, -1, np.int32)
    pv[pos[1:][same]] = prev
    last = None
    if with_last:
        last = np.ones(m, bool)
        last[prev] = False
    return pv, last


def _reuse_hits(pv: np.ndarray, starts: np.ndarray, ways: int) -> np.ndarray:
    """Exact per-set LRU hit mask of a set-grouped stream.

    The stream holds each set's accesses contiguously, the segments
    beginning at ``starts``, and ``pv`` is each access's previous touch of
    its line (:func:`_previous_touches`); a line maps to one set, so a
    previous occurrence and the window since then never leave the line's
    segment.  Access ``i`` with previous occurrence ``pv(i)`` hits iff its
    reuse distance

        d(i) = #{j in (pv(i), i) : pv(j) < pv(i)}

    (a window position counts iff it is the window's first touch of its
    line) is below ``ways``.  Trivial classes settle most accesses: a first
    touch misses, a window shorter than ``ways`` hits, so does any access
    whose segment has touched at most ``ways`` distinct lines so far, and a
    window holding ``ways`` first-ever touches misses.  The rest count d
    with lag gathers and retire once the count reaches ``ways`` (a miss) or
    the window is covered; see DESIGN.md section 10.
    """
    m = len(pv)
    first = pv < 0
    cold = np.cumsum(first, dtype=np.int32)  # first touches in [0, i]
    window = np.arange(-1, m - 1, dtype=np.int32) - pv  # i - pv(i) - 1
    seen = cold - np.repeat(cold[starts] - 1, np.diff(np.append(starts, m)))
    hit = ~first & ((window < ways) | (seen <= ways))
    del seen
    q = np.flatnonzero(~(first | hit))
    del first
    q = q[cold[q] - cold[pv[q]] < ways]
    del cold
    pq = pv[q]
    wq = window[q]
    del window
    d = np.zeros(len(q), np.int32)
    lag = 0
    while len(q):
        if len(q) * ways > m:
            # Wide: one gather pass per lag over every open access.
            back = q - lag
            for _ in range(ways):
                back -= 1
                d += pv.take(back, mode="clip") < pq
            span = ways
        else:
            # Narrow: a block of lags per gather, no larger than the stream
            # and at most doubling the lags done.
            span = max(ways, min(lag, m // len(q)))
            lags = np.arange(lag + 1, lag + span + 1)
            counted = pv.take(q[:, None] - lags, mode="clip") < pq[:, None]
            d += counted.sum(axis=1, dtype=np.int32)
        lag += span
        # A lag past the window lands at or before pv(i) (or clips to
        # position 0, a first touch), where pv(j) < pv(i): it counted once.
        reached = d - np.maximum(lag - wq, 0) >= ways
        done = reached | (wq <= lag)
        hit[q[done & ~reached]] = True
        live = ~done
        q, pq, wq, d = q[live], pq[live], wq[live], d[live]
    return hit


class VectorLruTlb:
    """Exact LRU TLB with cold-miss tracking, batch-vectorized.

    Consumes page numbers (address >> page shift) in program order; the
    executor interleaves concurrent threads before calling it, which is
    what makes inter-thread eviction (thrashing) visible.
    """

    #: See :attr:`VectorLruCache.obs_name`.  The inner
    #: :class:`VectorLruCache` stays unnamed so TLB accesses are not
    #: double-counted.
    obs_name: Optional[str] = None

    def __init__(self, entries: int):
        if entries <= 0:
            raise ConfigurationError(
                f"TLB must have a positive number of entries, got {entries}"
            )
        self.entries = entries
        self._cache = VectorLruCache(entries, 1)
        self._seen = np.empty(0, np.int64)  # every page ever touched, sorted
        self.cold_misses = 0

    def reset(self) -> None:
        self._cache.reset()
        self._seen = np.empty(0, np.int64)
        self.cold_misses = 0

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    def access_batch(self, pages: np.ndarray) -> np.ndarray:
        """Touch a stream of pages; returns the per-access hit mask."""
        pages = np.ascontiguousarray(pages, dtype=np.int64)
        if len(pages) == 0:
            return np.zeros(0, bool)
        if len(self._seen) == 0 and len(pages) <= _POS_CAP:
            # Nothing touched yet: the seen set is the batch's distinct
            # pages, which the replay's own sort already produces.
            hit_mask, self._seen = self._cache._access(pages)
            fresh = len(self._seen)
        else:
            fresh = self._see(pages)
            hit_mask = self._cache.access_batch(pages)
        self.cold_misses += fresh
        if self.obs_name is not None and obs.enabled():
            nhit = int(np.count_nonzero(hit_mask))
            _emit_model_counters(self.obs_name, len(pages), nhit)
            if fresh:
                obs.add(f"model.{self.obs_name}.cold_misses", float(fresh))
        return hit_mask

    def _see(self, pages: np.ndarray) -> int:
        """Merge the batch's new pages into the seen set; returns their count."""
        ordered = np.sort(pages)  # np.unique's mergesort is far slower
        distinct = np.ones(len(ordered), bool)
        distinct[1:] = ordered[1:] != ordered[:-1]
        candidates = ordered[distinct]
        slot = np.searchsorted(self._seen, candidates)
        known = np.zeros(len(candidates), bool)
        inside = slot < len(self._seen)
        known[inside] = self._seen[slot[inside]] == candidates[inside]
        fresh = candidates[~known]
        if len(fresh):
            merged = np.empty(len(self._seen) + len(fresh), np.int64)
            at = slot[~known] + np.arange(len(fresh))
            merged[at] = fresh
            keep = np.ones(len(merged), bool)
            keep[at] = False
            merged[keep] = self._seen
            self._seen = merged
        return len(fresh)

    def access(self, page: int) -> bool:
        """Touch one page; returns True on a TLB hit."""
        return bool(self.access_batch(np.array([page], np.int64))[0])

    def access_sequence(self, pages: Iterable[int]) -> int:
        """Touch a sequence of pages; returns the number of misses."""
        arr = np.fromiter(pages, dtype=np.int64)
        before = self.misses
        self.access_batch(arr)
        return self.misses - before

    def contains(self, page: int) -> bool:
        """Whether a translation is cached, without touching LRU state."""
        return self._cache.contains(page)

    def resident_pages(self) -> np.ndarray:
        """Cached translations in LRU-to-MRU order."""
        return self._cache.resident_lines()

    @property
    def occupancy(self) -> int:
        return self._cache.occupancy

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.misses / total
