"""``repro obs report``: render and diff ``metrics.json`` manifests.

Two modes:

* ``repro obs report MANIFEST`` -- human-readable per-phase breakdown:
  wall time per phase, its op counters, and the span aggregate.
* ``repro obs report BASELINE CURRENT --diff [--fail-on-drift]`` --
  compare the deterministic sections of two manifests.  With
  ``--fail-on-drift`` any difference exits nonzero; this is the CI
  bench-smoke gate.  ``--rel-tol`` widens numeric comparison (default
  1e-9, absorbing cross-platform libm noise in analytic counters); it
  must be finite and in [0, 1).

Refreshing the committed CI baseline after an *intentional* perf or
model change: rerun the smoke command from ``.github/workflows/ci.yml``
and copy the fresh manifest over
``benchmarks/baselines/metrics_smoke.json`` (see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import IO, List, Mapping, Optional

from .manifest import DEFAULT_REL_TOL, diff_manifests, load_manifest
from .metrics import Drift


def _format_value(value: object) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return str(value)


def _counter_lines(counters: Mapping[str, object], indent: str) -> List[str]:
    width = max((len(key) for key in counters), default=0)
    return [
        f"{indent}{key:<{width}}  {_format_value(counters[key])}"
        for key in sorted(counters)
    ]


def format_report(manifest: Mapping[str, object]) -> str:
    """Human-readable per-phase breakdown of one manifest."""
    lines: List[str] = []
    run = manifest.get("run") or {}
    if isinstance(run, Mapping) and run:
        described = ", ".join(
            f"{key}={run[key]}" for key in sorted(run, key=str)
        )
        lines.append(f"run: {described}")
    phases = manifest.get("phases") or {}
    if isinstance(phases, Mapping) and phases:
        lines.append("phases:")
        for name, entry in phases.items():
            if not isinstance(entry, Mapping):
                continue
            wall = entry.get("wall_seconds")
            wall_text = f"{wall:.3f}s" if isinstance(wall, (int, float)) else "-"
            lines.append(f"  {name}  [{wall_text}]")
            counters = entry.get("counters") or {}
            if isinstance(counters, Mapping) and counters:
                lines.extend(_counter_lines(counters, "    "))
    counters = manifest.get("counters") or {}
    if isinstance(counters, Mapping) and counters:
        lines.append("counters (run total):")
        lines.extend(_counter_lines(counters, "  "))
    spans = manifest.get("spans") or {}
    if isinstance(spans, Mapping) and spans:
        lines.append("spans:")
        width = max(len(name) for name in spans)
        for name in sorted(spans):
            entry = spans[name]
            if not isinstance(entry, Mapping):
                continue
            count = entry.get("count", 0)
            total = entry.get("total_seconds", 0.0)
            total_text = (
                f"{total:.3f}s" if isinstance(total, (int, float)) else "-"
            )
            lines.append(f"  {name:<{width}}  x{count}  {total_text}")
    dropped = manifest.get("dropped_spans")
    if dropped:
        lines.append(f"dropped spans: {dropped}")
    if not lines:
        lines.append("(empty manifest)")
    return "\n".join(lines)


def format_drifts(drifts: List[Drift]) -> str:
    if not drifts:
        return "no drift: deterministic sections match"
    lines = [f"DRIFT: {len(drifts)} difference(s)"]
    lines.extend("  " + drift.to_text() for drift in drifts)
    return "\n".join(lines)


def run_report(
    paths: List[str],
    diff: bool = False,
    fail_on_drift: bool = False,
    rel_tol: float = DEFAULT_REL_TOL,
    stream: Optional[IO[str]] = None,
) -> int:
    """Programmatic entry point behind :func:`main`; returns exit code."""
    out = stream if stream is not None else sys.stdout
    if not (math.isfinite(rel_tol) and 0.0 <= rel_tol < 1.0):
        # inf would silently switch the drift gate off; nan and negative
        # values would silently mean "exact".
        print(
            f"error: --rel-tol must be finite and in [0, 1), got {rel_tol}",
            file=sys.stderr,
        )
        return 2
    if diff or fail_on_drift:
        if len(paths) != 2:
            print(
                "error: --diff needs exactly two manifests "
                "(BASELINE CURRENT)",
                file=sys.stderr,
            )
            return 2
        baseline = load_manifest(paths[0])
        current = load_manifest(paths[1])
        drifts = diff_manifests(baseline, current, rel_tol=rel_tol)
        out.write(format_drifts(drifts) + "\n")
        if drifts and fail_on_drift:
            return 1
        return 0
    if len(paths) != 1:
        print(
            "error: report renders exactly one manifest "
            "(use --diff for two)",
            file=sys.stderr,
        )
        return 2
    out.write(format_report(load_manifest(paths[0])) + "\n")
    return 0


def add_report_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "manifests",
        nargs="+",
        metavar="MANIFEST",
        help="one manifest to render, or BASELINE CURRENT with --diff",
    )
    parser.add_argument(
        "--diff",
        action="store_true",
        help="compare two manifests' deterministic sections",
    )
    parser.add_argument(
        "--fail-on-drift",
        action="store_true",
        help="with --diff: exit 1 when any counter differs (the CI gate)",
    )
    parser.add_argument(
        "--rel-tol",
        type=float,
        default=DEFAULT_REL_TOL,
        metavar="TOL",
        help="relative tolerance for numeric comparison, finite and in "
        f"[0, 1) (default {DEFAULT_REL_TOL:g})",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro obs report", description=__doc__
    )
    add_report_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return run_report(
            args.manifests,
            diff=args.diff,
            fail_on_drift=args.fail_on_drift,
            rel_tol=args.rel_tol,
        )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
