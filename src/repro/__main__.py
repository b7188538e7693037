"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiments [names...] [--quick] [--workers N] [--output-dir DIR]
  [--charts]`` -- regenerate the paper's tables and figures;
* ``bench [--json FILE] [--workers N]`` -- time the standard sweeps and
  record wall clocks plus key counters to a JSON report;
* ``serve-bench [--shards N...] [--window-kib K...] [--zipf T...]
  [--index NAME] [--replicas K] [--replica-indexes NAME...]
  [--chaos-schedule FILE] [--update-fraction F...]
  [--min-compactions N] [--seed S] [--json FILE]`` -- sweep the
  sharded serving layer (simulated clock; output is bit-identical per
  seed), optionally with K replicas per shard, a scripted fault
  schedule, and mixed read/write traffic through the delta tier;
* ``chaos --schedule FILE [--event-log FILE] [--update-fraction F]
  [options]`` -- replay a declarative fault schedule against the
  replicated serving layer and gate on result invariance versus the
  fault-free run, optionally under mixed read/write traffic;
* ``plan --r-gib N [options]`` -- run the access-path planner for one
  workload and print the EXPLAIN output;
* ``obs report [manifests...]`` -- render or diff ``metrics.json``
  observability manifests emitted by ``experiments --trace``;
* ``lint [paths...] [--fail-on-findings] [--format json]`` -- run the
  AST-based invariant checker (determinism, unit, and instrumentation
  rules) over the tree;
* ``info`` -- library, machine-preset, and index overview.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .data.generator import WorkloadConfig
from .errors import CapacityError, ConfigurationError, WorkloadError
from .engine.planner import QueryPlanner
from .hardware.spec import A100_PCIE4, GH200_C2C, MI250X_IF3, V100_NVLINK2
from .indexes import ALL_INDEX_TYPES
from .resilience import faults
from .units import GB, GIB, KEY_BYTES, format_bytes

MACHINES = {
    "v100": V100_NVLINK2,
    "a100": A100_PCIE4,
    "mi250x": MI250X_IF3,
    "gh200": GH200_C2C,
}


def cmd_info(_args) -> int:
    print(f"repro {__version__} -- reproduction of 'Efficiently Indexing "
          "Large Data on GPUs with Fast Interconnects' (EDBT 2025)")
    print("\nmachine presets:")
    for key, spec in MACHINES.items():
        link = spec.interconnect
        print(
            f"  {key:>7}: {spec.name} "
            f"({link.bandwidth_bytes / GB:.0f} GB/s link, "
            f"{format_bytes(spec.gpu.tlb_range_bytes)} TLB range, "
            f"{format_bytes(spec.cpu.memory_capacity_bytes)} CPU memory)"
        )
    print("\nindex structures:")
    for cls in ALL_INDEX_TYPES:
        updates = "updates" if cls.supports_updates else "static"
        print(f"  {cls.name:>14}: {updates}")
    print("\nsee DESIGN.md for the system inventory and EXPERIMENTS.md for")
    print("the paper-vs-measured record.")
    return 0


def cmd_experiments(args) -> int:
    from .experiments.runner import run_report

    report = run_report(
        args.names,
        quick=args.quick,
        output_dir=args.output_dir,
        charts=args.charts,
        workers=args.workers,
        trace=True if args.trace else None,
        trace_file=args.trace_file,
    )
    return report.exit_code()


def cmd_obs(args) -> int:
    from .obs.report import run_report as obs_run_report

    return obs_run_report(
        args.manifests,
        diff=args.diff,
        fail_on_drift=args.fail_on_drift,
        rel_tol=args.rel_tol,
    )


def cmd_lint(args) -> int:
    from .analysis.cli import run_lint

    return run_lint(args)


def cmd_bench(args) -> int:
    from .experiments.bench import main as bench_main

    bench_main(json_path=args.json, workers=args.workers)
    return 0


def cmd_serve_bench(args) -> int:
    from .serve.bench import main as serve_bench_main

    if args.min_compactions is not None and args.min_compactions < 0:
        raise ConfigurationError(
            f"--min-compactions must be >= 0, got {args.min_compactions}"
        )
    payload = serve_bench_main(
        shards=tuple(args.shards),
        window_kib=tuple(args.window_kib),
        zipf_thetas=tuple(args.zipf),
        index=args.index,
        seed=args.seed,
        json_path=args.json,
        workers=args.workers,
        replicas=args.replicas,
        replica_indexes=(
            tuple(args.replica_indexes) if args.replica_indexes else None
        ),
        chaos_schedule=args.chaos_schedule,
        update_fractions=tuple(args.update_fraction),
    )
    if args.min_compactions is not None:
        scheduled = sum(
            len(row["updates"]["compactions"]) for row in payload["sweeps"]
        )
        if scheduled < args.min_compactions:
            print(
                f"error: {scheduled} compactions scheduled across the "
                f"sweep, below the --min-compactions floor of "
                f"{args.min_compactions}",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_chaos(args) -> int:
    from .resilience.chaos import main as chaos_main

    return chaos_main(
        schedule_path=args.schedule,
        shards=args.shards,
        replicas=args.replicas,
        index=args.index,
        replica_indexes=(
            tuple(args.replica_indexes) if args.replica_indexes else None
        ),
        r_tuples=args.r_tuples,
        requests=args.requests,
        request_tuples=args.request_tuples,
        window_kib=args.window_kib,
        seed=args.seed,
        event_log_path=args.event_log,
        update_fraction=args.update_fraction,
    )


def cmd_plan(args) -> int:
    r_bytes = args.r_gib * GIB
    # A one-key relation has no key span for the planner to partition.
    if not math.isfinite(r_bytes) or r_bytes < 2 * KEY_BYTES:
        raise ConfigurationError(
            f"--r-gib must be a finite size of at least two keys, got "
            f"{args.r_gib}"
        )
    spec = MACHINES[args.machine]
    try:
        workload = WorkloadConfig(
            r_tuples=int(r_bytes) // KEY_BYTES,
            zipf_theta=args.zipf,
        )
    except WorkloadError as error:
        raise ConfigurationError(f"--zipf: {error}") from error
    planner = QueryPlanner(spec)
    try:
        choice = planner.plan(
            workload,
            require_updates=args.require_updates,
            include_variants=args.variants,
        )
    except CapacityError as error:
        raise ConfigurationError(f"--r-gib: {error}") from error
    print(
        f"workload: R = {args.r_gib:g} GiB, S = 2^26 tuples, "
        f"selectivity {workload.join_selectivity * 100:.1f}%, "
        f"zipf {args.zipf:g}, machine = {spec.name}"
    )
    print(choice.explain())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("info", help="library overview")

    experiments = subparsers.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    from .experiments.runner import EXPERIMENT_NAMES, add_trace_arguments

    experiments.add_argument(
        "names", nargs="*", help=f"subset to run: {' '.join(EXPERIMENT_NAMES)}"
    )
    experiments.add_argument(
        "--quick", action="store_true", help="reduced sweeps"
    )
    experiments.add_argument(
        "--workers", type=int, default=1,
        help="processes for the standard sweeps (results identical to serial)",
    )
    experiments.add_argument(
        "--output-dir", default=None, metavar="DIR",
        help="write each result as CSV + JSON into this directory",
    )
    experiments.add_argument(
        "--charts", action="store_true",
        help="append a terminal chart under every figure",
    )
    add_trace_arguments(experiments)

    bench = subparsers.add_parser(
        "bench", help="time the standard sweeps and write a JSON report"
    )
    bench.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the benchmark payload to FILE (e.g. BENCH_1.json)",
    )
    bench.add_argument(
        "--workers", type=int, default=0,
        help="processes for the sweeps (0 = one per CPU core)",
    )

    serve_bench = subparsers.add_parser(
        "serve-bench",
        help="sweep the sharded serving layer and write a BENCH JSON",
    )
    serve_bench.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4],
        help="shard counts to sweep (simulated GPUs)",
    )
    serve_bench.add_argument(
        "--window-kib", type=int, nargs="+", default=[4, 16],
        help="tumbling-window sizes to sweep, in KiB of probe keys",
    )
    serve_bench.add_argument(
        "--zipf", type=float, nargs="+", default=[0.0, 1.0],
        help="probe-key Zipf exponents to sweep",
    )
    serve_bench.add_argument(
        "--index", default="binary-search",
        choices=["binary-search", "btree", "harmonia", "radix-spline"],
        help="index structure built per shard",
    )
    serve_bench.add_argument(
        "--seed", type=int, default=42, help="workload RNG seed"
    )
    serve_bench.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the sweep payload to FILE (e.g. BENCH_serve.json)",
    )
    serve_bench.add_argument(
        "--workers", type=int, default=0,
        help="sweep-point processes (0 = one per CPU core; payload is "
        "bit-identical at any worker count)",
    )
    serve_bench.add_argument(
        "--replicas", type=int, default=1,
        help="replicas per range shard (1 = unreplicated: a dead copy's "
        "windows wait for its rebuild or take the fallback index)",
    )
    serve_bench.add_argument(
        "--replica-indexes", nargs="+", default=None, metavar="NAME",
        choices=["binary-search", "btree", "harmonia", "radix-spline"],
        help="index per replica level (len must equal --replicas); "
        "defaults to --index on every replica",
    )
    serve_bench.add_argument(
        "--chaos-schedule", default=None, metavar="FILE",
        help="replay this chaos schedule (repro-chaos/1 JSON) inside "
        "every sweep point",
    )
    serve_bench.add_argument(
        "--update-fraction", type=float, nargs="+", default=[0.0],
        metavar="F",
        help="update-request fractions to sweep (0.0 = read-only; each "
        "fraction re-runs the sweep with that share of requests as "
        "insert/upsert windows through the delta tier)",
    )
    serve_bench.add_argument(
        "--min-compactions", type=int, default=None, metavar="N",
        help="fail (exit 1) unless at least N priced compactions were "
        "scheduled across the sweep (deterministic per seed)",
    )

    chaos = subparsers.add_parser(
        "chaos",
        help="replay a scripted fault schedule against replicated serving",
    )
    chaos.add_argument(
        "--schedule", required=True, metavar="FILE",
        help="chaos schedule JSON (schema repro-chaos/1)",
    )
    chaos.add_argument("--shards", type=int, default=2)
    chaos.add_argument("--replicas", type=int, default=2)
    chaos.add_argument(
        "--index", default="binary-search",
        choices=["binary-search", "btree", "harmonia", "radix-spline"],
    )
    chaos.add_argument(
        "--replica-indexes", nargs="+", default=None, metavar="NAME",
        choices=["binary-search", "btree", "harmonia", "radix-spline"],
        help="index per replica level (len must equal --replicas)",
    )
    chaos.add_argument("--r-tuples", type=int, default=2**12)
    chaos.add_argument("--requests", type=int, default=16)
    chaos.add_argument("--request-tuples", type=int, default=256)
    chaos.add_argument("--window-kib", type=int, default=4)
    chaos.add_argument("--seed", type=int, default=42)
    chaos.add_argument(
        "--event-log", default=None, metavar="FILE",
        help="write the chaos event-log artifact (timeline + injections)",
    )
    chaos.add_argument(
        "--update-fraction", type=float, default=0.0, metavar="F",
        help="run the schedule under mixed read/write traffic: this "
        "share of requests become update windows through the delta tier",
    )

    obs_parser = subparsers.add_parser(
        "obs", help="observability manifests: render and diff metrics.json"
    )
    obs_subparsers = obs_parser.add_subparsers(dest="obs_command")
    obs_report = obs_subparsers.add_parser(
        "report", help="render one manifest, or diff BASELINE CURRENT"
    )
    from .obs.report import add_report_arguments

    add_report_arguments(obs_report)

    lint = subparsers.add_parser(
        "lint", help="AST-based invariant checks (determinism, units, obs)"
    )
    from .analysis.cli import add_lint_arguments

    add_lint_arguments(lint)

    plan = subparsers.add_parser(
        "plan", help="cost-based access-path selection for one workload"
    )
    plan.add_argument("--r-gib", type=float, default=48.0)
    plan.add_argument(
        "--machine", choices=sorted(MACHINES), default="v100"
    )
    plan.add_argument("--zipf", type=float, default=0.0)
    plan.add_argument("--require-updates", action="store_true")
    plan.add_argument(
        "--variants", action="store_true",
        help="also price naive/materializing INLJ variants",
    )

    args = parser.parse_args(argv)
    try:
        # A bad REPRO_FAULTS spec is a usage error, raised before any
        # work starts rather than inside the first fault check.
        faults.env_plans()
        if args.command == "info":
            return cmd_info(args)
        if args.command == "experiments":
            return cmd_experiments(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "serve-bench":
            return cmd_serve_bench(args)
        if args.command == "chaos":
            return cmd_chaos(args)
        if args.command == "lint":
            try:
                return cmd_lint(args)
            except (OSError, ValueError) as error:
                # Unreadable or malformed baseline files, unknown rules.
                print(f"error: {error}", file=sys.stderr)
                return 2
        if args.command == "plan":
            return cmd_plan(args)
        if args.command == "obs":
            if args.obs_command != "report":
                obs_parser.print_help()
                return 1
            try:
                return cmd_obs(args)
            except (OSError, ValueError) as error:
                # Unreadable or malformed manifest files.
                print(f"error: {error}", file=sys.stderr)
                return 2
    except ConfigurationError as error:
        # Bad flags (e.g. --workers 0) are usage errors, not tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 2
    parser.print_help()
    return 1


if __name__ == "__main__":
    sys.exit(main())
