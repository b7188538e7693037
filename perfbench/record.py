#!/usr/bin/env python3
"""Record the reference outputs of every workload at the default seed.

    python3 perfbench/record.py

Writes ``perfbench/digests.json``: per workload, the digest of its
simulated outputs, the sweep points the capacity model skips, and the
exact model counters of a traced execution.  ``run.py`` fails every
operation of an execution whose outputs differ, so re-record only when a
change alters the model on purpose, and say so in that change.

Before recording, each workload must agree with itself: serial and
pooled ``rsize-sweep``, traced and untraced executions, and the
``windowed-skew`` loop against the library's own ``fig7.run()`` and
``fig8.run()``.
"""

from __future__ import annotations

import json
import os
import sys

import run


def _series(figure):
    return [[s.label, list(s.x), list(s.y)] for s in figure.series]


def main() -> int:
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(run.SRC))
    import layers
    import workloads
    from repro.experiments import cache, fig7, fig8

    seed = run.DEFAULT_SEED
    nproc = os.cpu_count() or 1
    record = {"default_seed": seed, "workloads": {}}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        serial = workload.summarize(workload.execute(seed, 1), seed)
        if serial.digest is None or serial.failed:
            raise SystemExit(f"{name}: reference execution failed: {serial.errors}")
        if cls.pooled and nproc > 1:
            pooled = workload.summarize(workload.execute(seed, nproc), seed)
            if pooled.digest != serial.digest:
                raise SystemExit(f"{name}: pooled outputs differ from serial ones")
        tracer = layers.Tracer()
        try:
            tracer.install()
            traced = workload.summarize(workload.execute(seed, 1), seed)
        finally:
            tracer.uninstall()
        if traced.digest != serial.digest:
            raise SystemExit(f"{name}: traced outputs differ from untraced ones")
        if name == "windowed-skew":
            window_fig, skew_fig, _ = workload.execute(seed, 1)
            with cache.session(True):
                cache.clear()
                same = _series(window_fig) == _series(fig7.run()) and _series(
                    skew_fig
                ) == _series(fig8.run())
                cache.clear()
            if not same:
                raise SystemExit("windowed-skew: series differ from fig7.run()/fig8.run()")
        metrics = layers.layer_metrics(tracer, 1.0, traced.cache_stats)
        record["workloads"][name] = {
            "digest": serial.digest,
            "skipped": serial.skipped,
            "model_counters": {key: metrics[key][0] for key in layers.MODEL_COUNTERS},
        }
        print(f"{name}: {serial.digest}")
    run.DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
