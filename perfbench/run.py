#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload rsize-sweep --seed 42 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.

With ``--trace 0`` the workload executes repeatedly, untraced, until
``--seconds`` have passed (at least three times), and the end-to-end
metrics are medians over those executions.  Set-up time is measured by
starting the benchmark afresh several times up to its first workload call.

With ``--trace 1`` the workload executes untraced, then once with every
layer's public functions wrapped in spans (see ``layers.py``), then
untraced again; the per-layer metrics come from the traced execution and
the tracing overhead from comparing it with the untraced ones.  Traced
executions run serially, so every call happens in this process.

Every execution's simulated outputs are hashed; executions must agree
with each other, and at the default seed with ``digests.json``.  The last
line printed is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DIGESTS = HERE / "digests.json"

WORKLOAD_NAMES = ("rsize-sweep", "windowed-skew", "serve-mixed")
DEFAULT_SEED = 42
MIN_EXECUTIONS = 3
SETUP_STARTS = 5
READY = "perfbench: ready"

#: Earlier whole-sweep timings of the same Fig. 3 + Fig. 5 sweep, for the
#: history line of ``rsize-sweep`` (both measured with one core).
HISTORY = {"BENCH_1 total_s": 7.377, "BENCH_2 total_s (1 core)": 6.858}


def parse_args(argv):
    nproc = os.cpu_count() or 1
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=f"sweep processes, 1..{nproc} (default: {nproc} for rsize-sweep, "
        "1 for the single-process workloads)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")
    if args.seconds < 1:
        parser.error(f"--seconds must be a positive integer, got {args.seconds}")
    if args.workers is None:
        args.workers = nproc if args.workload == "rsize-sweep" else 1
    if not 1 <= args.workers <= nproc:
        parser.error(
            f"--workers must be between 1 and nproc={nproc}, got {args.workers}"
        )
    return args


def setup(args):
    """Everything before the first workload call: imports, allocator
    tuning and the workload's inputs."""
    sys.path.insert(0, str(SRC))
    import numpy

    from repro.perf.alloc import tune_allocator

    import workloads

    facts = {
        "nproc": os.cpu_count() or 1,
        "workers": args.workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "tune_allocator_applied": tune_allocator(),
    }
    return workloads.WORKLOADS[args.workload](), facts


def measure_setup(args) -> float:
    """Median seconds from starting the benchmark to its first workload call."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workers", str(args.workers), "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_STARTS):
        started = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            child.wait(timeout=120)
        if child.returncode != 0 or line.strip() != READY:
            raise RuntimeError(f"set-up start exited {child.returncode}: {line!r}")
        times.append(elapsed)
    return statistics.median(times)


def _cpu_seconds() -> float:
    """User+sys seconds of this process and every reaped child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


@dataclass
class Execution:
    wall_s: float
    cpu_s: float
    workers: int
    outcome: object


def execute(workload, seed: int, workers: int) -> Execution:
    gc.collect()  # start every execution with the same heap debt
    cpu = _cpu_seconds()
    started = time.perf_counter()
    raw = workload.execute(seed, workers)
    wall = time.perf_counter() - started
    cpu = _cpu_seconds() - cpu
    return Execution(wall, cpu, workers, workload.summarize(raw, seed))


def expected_outputs(name: str, seed: int, first) -> dict:
    """The reference an execution is checked against: the recorded digest
    at the default seed, otherwise this run's first execution."""
    recorded = json.loads(DIGESTS.read_text())["workloads"][name]
    if seed == DEFAULT_SEED:
        return recorded
    return {"digest": first.digest, "skipped": recorded["skipped"]}


def failures(outcome, expected) -> int:
    """Failed operations of one execution.

    An operation fails if it raised, if it was skipped where the
    reference was not (or ran where the reference skipped), or -- for
    every operation of the execution -- if the digest of its simulated
    outputs differs from the reference's.
    """
    if outcome.digest is None or outcome.digest != expected["digest"]:
        return outcome.attempted
    mismatched = set(outcome.skipped) ^ set(expected["skipped"])
    return min(outcome.attempted, outcome.failed + len(mismatched))


def report_paper_accuracy(outcome) -> None:
    import workloads

    if not outcome.paper:
        return
    errors = []
    for label, paper in workloads.PAPER_AT_111_GIB.items():
        simulated = outcome.paper[label]
        errors.append(abs(simulated - paper) / paper)
        print(f"model @ 111 GiB: {label} simulated {simulated:.4g}, paper {paper:g}")
    print(
        f"model.paper_error_pct: {100.0 * statistics.fmean(errors):.2f} % "
        "(reported, not gated; the model is otherwise unvalidated)"
    )


def timed_run(args, workload):
    deadline = time.perf_counter() + args.seconds
    executions = []
    while len(executions) < MIN_EXECUTIONS or time.perf_counter() < deadline:
        executions.append(execute(workload, args.seed, args.workers))
    peak_rss = _peak_rss_mib()
    setup_s = measure_setup(args)
    metrics = {
        "wall_s": (statistics.median(e.wall_s for e in executions), "s"),
        "cpu_s": (statistics.median(e.cpu_s for e in executions), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss, "MiB"),
        "lookups_per_s": (
            statistics.median(e.outcome.lookups / e.wall_s for e in executions),
            "1/s",
        ),
    }
    print("wall_s of each execution: " + ", ".join(f"{e.wall_s:.3f}" for e in executions))
    report_paper_accuracy(executions[0].outcome)
    return executions, metrics


def traced_run(args, workload):
    import layers
    import workloads

    tracer = layers.Tracer()
    executions = [execute(workload, args.seed, args.workers)]
    first = executions[0]
    if args.workers > 1:
        executions.append(execute(workload, args.seed, 1))
    try:
        tracer.install()
        traced = execute(workload, args.seed, 1)
    finally:
        tracer.uninstall()
    executions.append(traced)
    executions.append(execute(workload, args.seed, 1))
    serial = [e.wall_s for e in executions if e.workers == 1 and e is not traced]
    metrics = layers.layer_metrics(tracer, traced.wall_s, traced.outcome.cache_stats)
    metrics["trace_overhead_pct"] = (100.0 * (traced.wall_s / min(serial) - 1.0), "%")
    metrics["experiments.core_utilization"] = (
        first.cpu_s / (first.workers * first.wall_s),
        "ratio",
    )
    predicted = workloads.PREDICTED_LAYER[args.workload]
    share = sum(metrics[name][0] for name in predicted) / traced.wall_s
    metrics["predicted_layer_share"] = (share, "ratio")
    print(f"traced wall_s {traced.wall_s:.3f}, untraced serial wall_s "
          + ", ".join(f"{w:.3f}" for w in serial))
    print(f"predicted dominant layer {' + '.join(predicted)}: "
          f"{100.0 * share:.1f} % of traced wall time")
    if args.workload == "rsize-sweep":
        history = ", ".join(f"{k} {v}" for k, v in HISTORY.items())
        print(f"rsize-sweep wall_s: serial {min(serial):.3f}, pooled {first.wall_s:.3f} "
              f"on {first.workers} workers ({history})")
    report_paper_accuracy(first.outcome)
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    return executions, metrics


def main(argv=None) -> int:
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]  # no fault plans, checkpoints or obs tracing
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}", file=sys.stderr)
        return 1
    if not DIGESTS.is_file():
        print(f"perfbench: missing {DIGESTS}", file=sys.stderr)
        return 1
    workload, facts = setup(args)
    if args.setup_probe:
        print(READY, flush=True)
        return 0
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    import layers

    try:
        runner = traced_run if args.trace else timed_run
        executions, metrics = runner(args, workload)
    except layers.MissingTarget as error:
        print(f"perfbench: traced run cannot wrap {error}", file=sys.stderr)
        return 1

    expected = expected_outputs(args.workload, args.seed, executions[0].outcome)
    attempted = sum(e.outcome.attempted for e in executions)
    failed = sum(failures(e.outcome, expected) for e in executions)
    problems = [error for e in executions for error in e.outcome.errors]
    if args.trace and args.seed == DEFAULT_SEED:
        for name, value in expected.get("model_counters", {}).items():
            if metrics[name][0] != value:
                problems.append(f"model counter {name} = {metrics[name][0]!r}, recorded {value!r}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name}: {value!r} {unit}")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": facts,
        "digests": sorted({str(e.outcome.digest) for e in executions}),
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True)
    )
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
