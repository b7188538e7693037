"""``repro bench2``: the BENCH_1 sweeps through the pool, plus serving.

BENCH_2 extends BENCH_1 (``repro bench``) with two phases:

* ``bench2_sweeps`` -- the BENCH_1 sweep set (Fig. 3 + Fig. 5 over the
  standard R sizes) re-run through the resilient multi-worker pool, so
  ``total_seconds`` is directly comparable to the committed
  ``BENCH_1.json`` baseline;
* ``bench2_serve`` -- the serve-bench sweep fanned across the pool,
  wall-timed; its peak throughput is *simulated* and therefore
  deterministic per seed, which is what the CI floor gate checks.

Every phase runs under :func:`repro.obs.phase`, and the payload carries
the per-phase wall clocks.  The ``baseline`` block compares the sweep
wall clock against BENCH_1's ``fast.total_seconds`` and records whether
the 5x multi-core target was met -- or, on a single-core runner,
documents the measured ceiling instead.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Optional, Sequence

from .. import obs
from ..ioutil import atomic_write_json
from .bench import BENCH_R_SIZES_GIB, _run_sweeps
from .common import resolve_workers

#: Multi-core speedup target over the BENCH_1 sweep wall clock.
TARGET_SPEEDUP = 5.0


def _read_bench1_total(path: Optional[str]) -> Optional[float]:
    """``fast.total_seconds`` of the committed BENCH_1 file, if present."""
    if not path or not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    fast = payload.get("fast", {})
    total = fast.get("total_seconds")
    return float(total) if total is not None else None


def _baseline_block(
    bench1_total: Optional[float], sweep_total: float, cpu_count: int
) -> dict:
    block: dict = {
        "bench1_total_seconds": bench1_total,
        "sweep_total_seconds": sweep_total,
        "target_speedup": TARGET_SPEEDUP,
    }
    if bench1_total is None:
        block["speedup"] = None
        block["met"] = False
        block["note"] = "no BENCH_1 baseline file available"
        return block
    speedup = bench1_total / max(sweep_total, 1e-9)
    block["speedup"] = round(speedup, 3)
    block["met"] = speedup >= TARGET_SPEEDUP
    if not block["met"] and cpu_count <= 1:
        block["note"] = (
            f"single-core runner: the pool resolves to 1 worker, so the "
            f"measured {speedup:.2f}x is the serial ceiling (session "
            f"cache only); the 5x target needs >= 5 cores.  See "
            f"attribution.phase_wall_seconds for where the time goes."
        )
    else:
        block["note"] = (
            f"{cpu_count}-core runner, pooled sweep vs. BENCH_1 serial "
            f"sweep"
        )
    return block


def run_bench2(
    r_sizes_gib: Sequence[float] = BENCH_R_SIZES_GIB,
    workers: int = 0,
    baseline_path: Optional[str] = "BENCH_1.json",
    serve: bool = True,
) -> dict:
    """Run all BENCH_2 phases; returns the JSON-ready payload."""
    resolved = resolve_workers(workers)
    cpu_count = os.cpu_count() or 1
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        with obs.phase("bench2_sweeps"):
            sweeps = _run_sweeps(r_sizes_gib, workers=resolved)
        serve_block: Optional[dict] = None
        if serve:
            with obs.phase("bench2_serve"):
                started = time.perf_counter()
                serve_payload = run_serve_payload(workers=resolved)
                serve_wall = time.perf_counter() - started
            rows = serve_payload["sweeps"]
            serve_block = {
                "wall_seconds": round(serve_wall, 3),
                "sweep_points": len(rows),
                "total_lookups": sum(row["total_lookups"] for row in rows),
                "peak_throughput_lookups_per_second": max(
                    row["throughput_lookups_per_second"] for row in rows
                ),
            }
        attribution = {
            "phase_wall_seconds": {
                name: round(seconds, 3)
                for name, seconds in obs.phase_wall_seconds().items()
            },
        }
    finally:
        obs.reset()
        obs.enable(was_enabled)
    return {
        "benchmark": "repro-bench2",
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": cpu_count,
        "workers": resolved,
        "sweeps": sweeps,
        "serve": serve_block,
        "baseline": _baseline_block(
            _read_bench1_total(baseline_path),
            sweeps["total_seconds"],
            cpu_count,
        ),
        "attribution": attribution,
    }


def run_serve_payload(workers: int) -> dict:
    """The serve-bench sweep at BENCH defaults (import kept local: the
    serve layer imports the experiments pool, not vice versa)."""
    from ..serve.bench import run_serve_bench

    return run_serve_bench(workers=workers)


def write_bench2(payload: dict, path: str) -> None:
    atomic_write_json(payload=payload, path=path, sort_keys=False)


def main(
    json_path: Optional[str] = None,
    workers: int = 0,
    baseline_path: Optional[str] = "BENCH_1.json",
    min_serve_throughput: Optional[float] = None,
) -> int:
    """CLI entry point: run, print a summary, gate, optionally write."""
    payload = run_bench2(workers=workers, baseline_path=baseline_path)
    sweeps = payload["sweeps"]
    baseline = payload["baseline"]
    print(
        f"sweeps: {sweeps['total_seconds']:.1f}s with "
        f"{payload['workers']} worker(s) on {payload['cpu_count']} core(s)"
    )
    if baseline["speedup"] is not None:
        print(
            f"baseline: {baseline['speedup']:.2f}x vs BENCH_1 "
            f"({baseline['bench1_total_seconds']:.1f}s); "
            f"target {baseline['target_speedup']:.0f}x "
            f"{'met' if baseline['met'] else 'not met'}"
        )
    print(f"note: {baseline['note']}")
    serve_block = payload["serve"]
    exit_code = 0
    if serve_block is not None:
        peak = serve_block["peak_throughput_lookups_per_second"]
        print(
            f"serve: {serve_block['sweep_points']} points in "
            f"{serve_block['wall_seconds']:.1f}s, peak "
            f"{peak:.0f} lookups/s"
        )
        if min_serve_throughput is not None and peak < min_serve_throughput:
            print(
                f"FAIL: peak serve throughput {peak:.0f} below the floor "
                f"{min_serve_throughput:.0f}"
            )
            exit_code = 1
    if json_path:
        write_bench2(payload, json_path)
        print(f"wrote {json_path}")
    return exit_code
