"""Wall-clock benchmark of the standard sweeps (``repro bench``).

Times the Fig. 3 (naive) and Fig. 5 (partitioned) R-size sweeps with the
session cache.  The results -- wall clocks, key series endpoints, and
cache statistics -- are written to a ``BENCH_*.json`` file so
performance regressions show up in review.

The benchmark harness under ``benchmarks/`` imports the sweep constants
from here so ``pytest benchmarks`` and ``repro bench`` measure the same
workload.
"""

from __future__ import annotations

import platform
import time
from typing import Optional, Sequence

from ..config import SimulationConfig
from ..ioutil import atomic_write_json
from ..perf.alloc import tune_allocator
from . import cache, fig3, fig5
from .common import resolve_workers

#: R sizes (GiB) the benchmark sweeps -- a spread around the paper's
#: 32 GiB TLB-range knee plus the 111 GiB endpoint.
BENCH_R_SIZES_GIB = (1.0, 8.0, 16.0, 32.0, 48.0, 111.0)

#: Event-simulation sample sizes for benchmarking: same structure as the
#: experiment defaults, scaled down so the sweep finishes in seconds.
BENCH_NAIVE_SIM = SimulationConfig(probe_sample=2**15)
BENCH_ORDERED_SIM = SimulationConfig(probe_sample=2**13)


def _series_summary(result) -> dict:
    """First/last y value per series -- the counters worth diffing."""
    summary = {}
    for series in result.series:
        if series.y:
            summary[series.label] = {
                "x": [series.x[0], series.x[-1]],
                "y": [round(series.y[0], 4), round(series.y[-1], 4)],
            }
    return summary


def run_bench(
    r_sizes_gib: Sequence[float] = BENCH_R_SIZES_GIB,
    workers: int = 0,
) -> dict:
    """Benchmark the standard sweeps; returns the JSON-ready payload.

    One timed pass over the Fig. 3 + Fig. 5 sweeps with the session
    cache.  ``workers=0`` (the default) resolves to one sweep process
    per CPU core through the process pool; figures are bit-identical
    at any worker count.
    """
    workers = resolve_workers(workers)
    tune_allocator()
    with cache.session(True):
        cache.clear()
        started = time.perf_counter()
        fig3_throughput, fig4_requests = fig3.run(
            r_sizes_gib=r_sizes_gib, sim=BENCH_NAIVE_SIM, workers=workers
        )
        fig3_seconds = time.perf_counter() - started
        started = time.perf_counter()
        fig5_throughput, _ = fig5.run(
            r_sizes_gib=r_sizes_gib, sim=BENCH_ORDERED_SIM, workers=workers
        )
        fig5_seconds = time.perf_counter() - started
        stats = cache.stats()
        cache.clear()
    return {
        "benchmark": "repro-sweeps",
        "r_sizes_gib": list(r_sizes_gib),
        "probe_samples": {
            "naive": BENCH_NAIVE_SIM.probe_sample,
            "ordered": BENCH_ORDERED_SIM.probe_sample,
        },
        "platform": platform.platform(),
        "python": platform.python_version(),
        "fast": {
            "cache": True,
            "workers": workers,
            "fig3_seconds": round(fig3_seconds, 3),
            "fig5_seconds": round(fig5_seconds, 3),
            "total_seconds": round(fig3_seconds + fig5_seconds, 3),
            "cache_stats": stats,
            "fig3_queries_per_second": _series_summary(fig3_throughput),
            "fig4_requests_per_lookup": _series_summary(fig4_requests),
            "fig5_queries_per_second": _series_summary(fig5_throughput),
        },
    }


def write_bench(payload: dict, path: str) -> None:
    atomic_write_json(payload=payload, path=path, sort_keys=False)


def main(json_path: Optional[str] = None, workers: int = 0) -> dict:
    """CLI entry point: run, print a short summary, optionally write JSON."""
    payload = run_bench(workers=workers)
    fast = payload["fast"]
    print(
        f"fast sweep: fig3 {fast['fig3_seconds']:.1f}s + "
        f"fig5 {fast['fig5_seconds']:.1f}s = {fast['total_seconds']:.1f}s "
        f"(workers={fast['workers']}, cache hits: "
        f"{fast['cache_stats']['point_hits']} points, "
        f"{fast['cache_stats']['environment_hits']} environments)"
    )
    if json_path:
        write_bench(payload, json_path)
        print(f"wrote {json_path}")
    return payload
