"""The benchmark's workloads, each a call into the ``repro`` library.

Every workload is split in two: :meth:`execute` is the timed part, from
the first call into the library to the last result, and :meth:`summarize`
turns that result into an :class:`Outcome` -- operations attempted and
failed, the simulated work done, and a digest of every simulated output.

* ``rsize-sweep`` -- the ``repro bench`` sweep: Fig. 3/4 (naive INLJ) and
  Fig. 5 (partitioned INLJ) plus the hash join over six R sizes and all
  four indexes, fanned out through the resilient pool.  The seed is the
  sweep's replay seed (``SimulationConfig.seed``), which orders the
  random-order probe stream the TLB sees.
* ``windowed-skew`` -- Fig. 7 (window size 2-512 MiB) and Fig. 8 (Zipf
  theta 0-1.75 at 32 MiB windows) in one process: the windowed INLJ at
  R = 100 GiB plus the skewed hash join.  The loop is Fig. 7's and Fig. 8's
  with the workload seed as an input; at the default seed it reproduces
  ``fig7.run()`` and ``fig8.run()`` exactly (``record.py`` checks this).
* ``serve-mixed`` -- ``run_serve_bench`` in one process: B+tree with two
  replicas over shards x window x theta x update fraction, every request
  checked against the sorted-array oracle.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import DEFAULT_S_TUPLES
from repro.data.generator import WorkloadConfig
from repro.errors import CapacityError
from repro.experiments import cache, fig3, fig5, fig7, fig8
from repro.experiments.bench import (
    BENCH_NAIVE_SIM,
    BENCH_ORDERED_SIM,
    BENCH_R_SIZES_GIB,
)
from repro.experiments.common import (
    ORDERED_SIM,
    ExperimentResult,
    default_partitioner,
    gib_to_tuples,
)
from repro.hardware.spec import V100_NVLINK2
from repro.indexes import ALL_INDEX_TYPES
from repro.join.hash_join import HashJoin
from repro.join.window import WindowedINLJ
from repro.perf.report import Series
from repro.serve import bench as serve_bench
from repro.units import KEY_BYTES, MIB

#: Paper values at R = 111 GiB (Sections 3.3.1-3.3.2): translation
#: requests per lookup (Fig. 4) and hash-join throughput (Fig. 3).
PAPER_AT_111_GIB = {
    "binary search requests/lookup": 105.0,
    "Harmonia requests/lookup": 11.3,
    "hash join Q/s": 0.2,
}


@dataclass
class Outcome:
    """What one execution of a workload produced."""

    attempted: int
    failed: int
    #: Simulated work: probe lookups modelled (sweeps) or keys served.
    lookups: float
    #: sha256 over every simulated output, or None when the run raised.
    digest: Optional[str]
    skipped: List[str] = field(default_factory=list)
    cache_stats: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    paper: Dict[str, float] = field(default_factory=dict)


def digest_of(payload) -> str:
    """sha256 of canonical JSON; floats serialize exactly (shortest repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _figure_payload(result) -> dict:
    return {
        "name": result.name,
        "series": [[s.label, list(s.x), list(s.y)] for s in result.series],
        "notes": list(result.notes),
    }


def _skips(result) -> List[str]:
    return [note for note in result.notes if "skipped" in note]


def _points(results) -> int:
    return sum(len(series.y) for result in results for series in result.series)


class RsizeSweep:
    name = "rsize-sweep"
    pooled = True
    #: Sweep points per figure: (4 indexes + hash join) x 6 R sizes.
    points_per_figure = (len(ALL_INDEX_TYPES) + 1) * len(BENCH_R_SIZES_GIB)

    def execute(self, seed: int, workers: int):
        naive = BENCH_NAIVE_SIM.with_seed(seed)
        ordered = BENCH_ORDERED_SIM.with_seed(seed)
        with cache.session(True):
            cache.clear()
            try:
                throughput, requests = fig3.run(
                    r_sizes_gib=BENCH_R_SIZES_GIB, sim=naive, workers=workers
                )
                partitioned, _ = fig5.run(
                    r_sizes_gib=BENCH_R_SIZES_GIB, sim=ordered, workers=workers
                )
            except Exception as error:  # counted as failed operations
                return error
            finally:
                stats = cache.stats()
                cache.clear()
        return throughput, requests, partitioned, stats

    def summarize(self, raw, seed: int) -> Outcome:
        attempted = 2 * self.points_per_figure
        if isinstance(raw, Exception):
            return Outcome(attempted, attempted, 0.0, None, errors=[repr(raw)])
        throughput, requests, partitioned, stats = raw
        figures = (throughput, requests, partitioned)
        series = throughput.series_by_label()
        rates = requests.series_by_label()
        paper = {
            "binary search requests/lookup": rates["binary search"].y[-1],
            "Harmonia requests/lookup": rates["Harmonia"].y[-1],
            "hash join Q/s": series["hash join"].y[-1],
        }
        return Outcome(
            attempted=attempted,
            failed=0,
            # Each Fig. 3 / Fig. 5 point models one query over all of S.
            lookups=float(_points((throughput, partitioned)) * DEFAULT_S_TUPLES),
            digest=digest_of([_figure_payload(figure) for figure in figures]),
            skipped=_skips(throughput) + _skips(partitioned),
            cache_stats=stats,
            paper=paper,
        )


class WindowedSkew:
    name = "windowed-skew"
    pooled = False
    r_gib = 100.0
    skew_window_bytes = 32 * MIB

    def _point(self, result, label, compute):
        try:
            return compute()
        except CapacityError as error:
            result.notes.append(f"{label}: skipped ({error})")
        except Exception as error:  # one failed sweep point
            result.notes.append(f"{label}: failed ({error!r})")
        return None

    def execute(self, seed: int, workers: int):
        spec = V100_NVLINK2
        sim = ORDERED_SIM.with_seed(seed)
        r_tuples = gib_to_tuples(self.r_gib)

        def windowed(index_cls, window_bytes, theta):
            workload = WorkloadConfig(r_tuples=r_tuples, zipf_theta=theta, seed=seed)
            env = cache.environment(spec, workload, index_cls=index_cls, sim=sim)
            join = WindowedINLJ(
                env.index, default_partitioner(env.column), window_bytes=window_bytes
            )
            return join.estimate(env)

        def hashed(theta):
            workload = WorkloadConfig(r_tuples=r_tuples, zipf_theta=theta, seed=seed)
            env = cache.environment(spec, workload, sim=sim)
            return HashJoin(env.relation).estimate(env)

        window_fig = ExperimentResult("fig7", "window size", "window (MiB)")
        skew_fig = ExperimentResult("fig8", "zipf skew", "zipf exponent")
        window_series = {cls: Series(cls.name) for cls in ALL_INDEX_TYPES}
        skew_series = {cls: Series(cls.name) for cls in ALL_INDEX_TYPES}
        hash_series = Series("hash join")
        with cache.session(True):
            cache.clear()
            for tuples in fig7.DEFAULT_WINDOW_TUPLES:
                window_bytes = tuples * KEY_BYTES
                for cls in ALL_INDEX_TYPES:
                    cost = self._point(
                        window_fig,
                        f"{cls.name} @ {window_bytes // MIB} MiB",
                        lambda: windowed(cls, window_bytes, 0.0),
                    )
                    if cost is not None:
                        window_series[cls].append(window_bytes / MIB, cost.queries_per_second)
            for theta in fig8.DEFAULT_THETAS:
                for cls in ALL_INDEX_TYPES:
                    cost = self._point(
                        skew_fig,
                        f"{cls.name} @ theta={theta}",
                        lambda: windowed(cls, self.skew_window_bytes, theta),
                    )
                    if cost is not None:
                        skew_series[cls].append(theta, cost.queries_per_second)
                cost = self._point(skew_fig, f"hash @ theta={theta}", lambda: hashed(theta))
                if cost is None:
                    continue
                if cost.seconds > fig8.HASH_JOIN_TIMEOUT_SECONDS:
                    skew_fig.notes.append(f"hash join @ theta={theta}: DNF")
                else:
                    hash_series.append(theta, cost.queries_per_second)
            stats = cache.stats()
            cache.clear()
        window_fig.series = [window_series[cls] for cls in ALL_INDEX_TYPES]
        skew_fig.series = [skew_series[cls] for cls in ALL_INDEX_TYPES] + [hash_series]
        return window_fig, skew_fig, stats

    @staticmethod
    def attempted_points() -> int:
        indexes = len(ALL_INDEX_TYPES)
        return len(fig7.DEFAULT_WINDOW_TUPLES) * indexes + len(fig8.DEFAULT_THETAS) * (
            indexes + 1
        )

    def summarize(self, raw, seed: int) -> Outcome:
        window_fig, skew_fig, stats = raw
        figures = (window_fig, skew_fig)
        failures = [note for fig in figures for note in fig.notes if ": failed (" in note]
        return Outcome(
            attempted=self.attempted_points(),
            failed=len(failures),
            lookups=float(_points(figures) * DEFAULT_S_TUPLES),
            digest=digest_of([_figure_payload(figure) for figure in figures]),
            skipped=_skips(window_fig) + _skips(skew_fig),
            cache_stats=stats,
            errors=failures,
        )


class ServeMixed:
    name = "serve-mixed"
    pooled = False
    axes = dict(
        shards=(1, 2, 4),
        window_kib=(4, 16),
        zipf_thetas=(0.0, 1.0),
        update_fractions=(0.0, 0.5),
        index="btree",
        replicas=2,
        requests=256,
        request_tuples=512,
    )

    def execute(self, seed: int, workers: int):
        # Each execution generates its workload afresh, as the first did.
        serve_bench._WORKLOAD_MEMO.clear()
        try:
            return serve_bench.run_serve_bench(seed=seed, workers=workers, **self.axes)
        except Exception as error:  # counted as failed requests
            return error

    def attempted_requests(self) -> int:
        rows = 1
        for axis in ("shards", "window_kib", "zipf_thetas", "update_fractions"):
            rows *= len(self.axes[axis])
        return rows * self.axes["requests"]

    def summarize(self, raw, seed: int) -> Outcome:
        attempted = self.attempted_requests()
        if isinstance(raw, Exception):
            return Outcome(attempted, attempted, 0.0, None, errors=[repr(raw)])
        rows = raw["sweeps"]
        # A request that disagrees with the oracle raises inside the run.
        # Requests the simulated admission control refuses (the backlog
        # bound sheds load while replicas compact) are simulated outputs,
        # pinned by the digest like every other payload field.
        served = sum(row["admitted"] for row in rows) * self.axes["request_tuples"]
        return Outcome(
            attempted=attempted,
            failed=0,
            lookups=float(served),
            digest=digest_of(rows),
        )


WORKLOADS = {cls.name: cls for cls in (RsizeSweep, WindowedSkew, ServeMixed)}

#: The layer the traced run is predicted to find dominant, per workload.
PREDICTED_LAYER = {
    "rsize-sweep": ("hardware.l2_s", "hardware.tlb_s"),
    "windowed-skew": ("data.s",),
    "serve-mixed": ("indexes.probe_s",),
}
