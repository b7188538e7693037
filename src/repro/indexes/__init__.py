"""Index structures evaluated by the paper (Section 3.1).

Four indexes over a sorted key column, all usable functionally (exact
lookups on real or virtual columns) and under simulation (producing the
address traces the machine model replays):

* :class:`~repro.indexes.binary_search.BinarySearchIndex` -- no auxiliary
  structure; searches the base column directly.
* :class:`~repro.indexes.btree.BPlusTreeIndex` -- a textbook B+tree with
  4 KiB nodes.
* :class:`~repro.indexes.harmonia.HarmoniaIndex` -- Yan et al.'s
  GPU-optimized B+tree: 32-key nodes in a breadth-first key region,
  children located by prefix sums, cooperative sub-warp traversal.
* :class:`~repro.indexes.radix_spline.RadixSplineIndex` -- Kipf et al.'s
  single-pass learned index: spline points plus a radix table.
"""

from .base import Index, LookupResult, TraceRecorder
from .binary_search import BinarySearchIndex
from .btree import BPlusTreeIndex
from .domain import clamped_int64
from .harmonia import HarmoniaIndex
from .radix_spline import RadixSplineIndex

#: All paper indexes, in the order the figures list them.
ALL_INDEX_TYPES = (
    BPlusTreeIndex,
    BinarySearchIndex,
    HarmoniaIndex,
    RadixSplineIndex,
)

__all__ = [
    "Index",
    "LookupResult",
    "TraceRecorder",
    "BinarySearchIndex",
    "BPlusTreeIndex",
    "HarmoniaIndex",
    "RadixSplineIndex",
    "ALL_INDEX_TYPES",
    "clamped_int64",
]
