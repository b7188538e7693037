"""PERF001: interpreted per-element loops in the probe hot paths.

The index and join layers are the probe hot path: every structure
traverses vectorized (``repro.indexes.*._traverse``, which
``probe_batch`` and ``probe_range_batch`` run too), and the join drivers
iterate over *windows*, never keys.  A Python-level ``for`` loop in
these packages is therefore either a bug magnet (an accidental
per-key loop runs orders of magnitude slower than the numpy path) or
one of a small set of sanctioned shapes:

* build-time geometry loops (run once per index build, O(height));
* per-level descent loops (O(height) iterations over whole arrays);
* O(|S|/W) window drivers.

Each sanctioned loop carries a ``# repro: noqa[PERF001]`` marker with a
justification, so any new loop in these packages must either vectorize
or argue its case in review.
"""

from __future__ import annotations

import ast
from typing import Iterable, Tuple

from ..engine import FileContext, Rule, register
from ..findings import Finding, Severity

#: Directory fragments of the probe hot path.
_HOT_PACKAGES: Tuple[str, ...] = ("repro/indexes/", "repro/join/")


@register
class InterpretedHotLoop(Rule):
    """PERF001: a Python ``for`` loop inside the index/join packages."""

    rule_id = "PERF001"
    severity = Severity.ERROR
    summary = (
        "Python-level for loop in the probe hot path (repro/indexes, "
        "repro/join); vectorize with numpy or justify with "
        "# repro: noqa[PERF001]"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not any(
            fragment in ctx.display_path for fragment in _HOT_PACKAGES
        ):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                yield ctx.finding(
                    self,
                    node,
                    "interpreted for loop in a probe hot-path package; "
                    "vectorize with numpy, or justify the loop with "
                    "# repro: noqa[PERF001]",
                )
