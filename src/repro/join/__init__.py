"""Join operators: INLJ variants and the hash-join baseline.

* :class:`~repro.join.inlj.IndexNestedLoopJoin` -- the textbook INLJ of
  Section 3: one GPU thread per probe tuple, index lookup in the inner
  loop.
* :class:`~repro.join.partitioned.PartitionedINLJ` -- Section 4: radix
  partition *all* lookup keys (materializing them), then run the INLJ.
* :class:`~repro.join.window.WindowedINLJ` -- Section 5, the paper's
  contribution: partition the probe stream inside tumbling windows,
  pipelined, without materializing either input.
* :class:`~repro.join.hash_join.HashJoin` -- the WarpCore-style
  multi-value hash join baseline of Section 3.2.
* :class:`~repro.join.nonequi.BandJoin` (and its windowed variant) --
  the non-equi join over the range primitive: band predicate
  ``|r.key - s.key| <= epsilon``.

Each operator has a functional ``join`` (exact results, laptop scale) and a
simulated ``estimate`` (cost-model throughput at paper scale).
"""

from .base import JoinResult, QueryEnvironment, expand_spans, reference_join
from .hash_join import HashJoin, MultiValueHashTable
from .inlj import IndexNestedLoopJoin
from .nonequi import BandJoin, WindowedBandJoin
from .partitioned import PartitionedINLJ
from .window import WindowedINLJ

__all__ = [
    "JoinResult",
    "QueryEnvironment",
    "expand_spans",
    "reference_join",
    "HashJoin",
    "MultiValueHashTable",
    "IndexNestedLoopJoin",
    "PartitionedINLJ",
    "WindowedINLJ",
    "BandJoin",
    "WindowedBandJoin",
]
