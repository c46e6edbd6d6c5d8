"""Command-line interface: run experiments by name.

``python -m repro <command>`` exposes the reproduction from the shell:

    python -m repro list                    # available experiments
    python -m repro run fig04               # one experiment, summary out
    python -m repro report --fidelity fast  # the consolidated report
    python -m repro bench --requests 100    # allocation-engine benchmark
    python -m repro bench --trace out.json  # ... with Perfetto span trees
    python -m repro cluster-bench --shards 4  # sharded-cluster benchmark
    python -m repro metrics                 # Prometheus metrics exposition
    python -m repro lint src tests          # invariant static analysis
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional

from .errors import ConfigurationError


def _summary_fig04() -> str:
    from .experiments import fig04_taylor

    result = fig04_taylor.run()
    return (
        f"Fig. 4 — Taylor error at 900 mA: "
        f"{100 * result.error_at_max_swing:.3f}% (paper: 0.45%)"
    )


def _summary_fig05() -> str:
    from .experiments import fig05_illumination

    result = fig05_illumination.run()
    return (
        f"Fig. 5 — {result.report.average_lux:.0f} lux, "
        f"{100 * result.report.uniformity:.0f}% uniformity, "
        f"ISO: {result.meets_iso} (paper: 564 lux, 74%, yes)"
    )


def _summary_fig08() -> str:
    from .experiments import fig08_throughput

    result = fig08_throughput.run(instances=6, solver="heuristic")
    return (
        f"Fig. 8 — system throughput "
        f"{result.system_mean[-1] / 1e6:.1f} Mbit/s at "
        f"{result.budgets[-1]:.2f} W, knee {result.knee_budget:.2f} W"
    )


def _summary_fig09() -> str:
    from .experiments import fig09_swing_levels

    result = fig09_swing_levels.run()
    return (
        "Fig. 9 — RX1 order: "
        + " > ".join(result.order_labels(0)[:6])
        + " (paper: TX8 > TX14 > TX7 > TX2 > TX1 > TX13)"
    )


def _summary_fig11() -> str:
    from .experiments import fig11_heuristic

    result = fig11_heuristic.run(instances=5)
    losses = ", ".join(
        f"k={k}: {100 * result.average_loss(k):+.1f}%"
        for k in sorted(result.heuristic_curves)
    )
    return f"Fig. 11 — heuristic losses vs optimal: {losses}"


def _summary_fig12() -> str:
    from .experiments import fig12_sync_delay

    result = fig12_sync_delay.run()
    return (
        f"Fig. 12 — NTP/PTP max rate "
        f"{result.max_ntp_ptp_rate / 1e3:.2f} ksym/s (paper: 14.28)"
    )


def _summary_table4() -> str:
    from .experiments import table4_sync

    micro = table4_sync.run().as_microseconds()
    return (
        f"Table 4 — {micro['no-sync']:.3f} / {micro['ntp-ptp']:.3f} / "
        f"{micro['nlos-vlc']:.3f} us (paper: 10.040 / 4.565 / 0.575)"
    )


def _summary_table5() -> str:
    from .experiments import table5_iperf

    result = table5_iperf.run(max_frames=60)
    return (
        f"Table 5 — 2TX: {result.goodput_kbps('2tx-same-board'):.1f} kbit/s; "
        f"no-sync PER: {result.per_percent('4tx-no-sync'):.0f}%; "
        f"synced: {result.goodput_kbps('4tx-nlos-sync'):.1f} kbit/s"
    )


def _summary_fig18_20() -> str:
    from .experiments import fig18_20_scenarios

    results = fig18_20_scenarios.run()
    return (
        f"Figs. 18-20 — scenario 3 peaks at "
        f"{results[3].peak_budget(1.3):.2f} W and drops after: "
        f"{results[3].drops_at_high_budget(1.3)}"
    )


def _summary_fig21() -> str:
    from .experiments import fig21_efficiency

    result = fig21_efficiency.run()
    return (
        f"Fig. 21 — efficiency gain {result.power_efficiency_gain:.2f}x "
        f"(paper: 2.3x), SISO on curve: {result.siso_on_curve}"
    )


def _summary_complexity() -> str:
    from .experiments import complexity

    result = complexity.run()
    return (
        f"Sec. 5 — latency reduction {100 * result.reduction:.2f}% "
        f"(paper: 99.96%), loss {100 * result.heuristic_loss:.1f}%"
    )


def _summary_mobility() -> str:
    from .experiments import mobility

    trace = mobility.run()
    return (
        f"Mobility — adaptation gain {trace.adaptation_gain:.2f}x over a "
        "frozen allocation"
    )


def _summary_extensions() -> str:
    from .experiments.extensions import diffuse_error, uplink_check

    diffuse = diffuse_error()
    uplink = uplink_check()
    return (
        f"Extensions — LOS-only error {100 * diffuse.aggregate_share:.1f}% "
        f"aggregate; uplink utilization "
        f"{100 * uplink.utilization:.3f}%"
    )


EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "fig04": _summary_fig04,
    "fig05": _summary_fig05,
    "fig08": _summary_fig08,
    "fig09": _summary_fig09,
    "fig11": _summary_fig11,
    "fig12": _summary_fig12,
    "table4": _summary_table4,
    "table5": _summary_table5,
    "fig18_20": _summary_fig18_20,
    "fig21": _summary_fig21,
    "complexity": _summary_complexity,
    "mobility": _summary_mobility,
    "extensions": _summary_extensions,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DenseVLC (CoNEXT 2018) reproduction toolkit.",
    )
    subparsers = parser.add_subparsers(dest="command")
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    report_parser = subparsers.add_parser(
        "report", help="run everything and emit the markdown report"
    )
    report_parser.add_argument(
        "--fidelity", choices=("fast", "full"), default="fast"
    )
    report_parser.add_argument("--output", default="-")
    bench_parser = subparsers.add_parser(
        "bench", help="benchmark the allocation-serving runtime engine"
    )
    bench_parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="serve a named repro.scenarios workload instead of the "
        "random placement mix ('list' prints the registry); --seed picks "
        "the scenario seed, workload flags are ignored",
    )
    bench_parser.add_argument(
        "--requests", type=int, default=100, help="number of requests to serve"
    )
    bench_parser.add_argument(
        "--distinct",
        type=int,
        default=25,
        help="distinct random placements the requests are drawn from",
    )
    bench_parser.add_argument(
        "--solver",
        default="heuristic",
        choices=("binary", "greedy", "heuristic", "optimal", "swing"),
        help="allocation solver",
    )
    bench_parser.add_argument(
        "--budget", type=float, default=1.2, help="power budget [W]"
    )
    bench_parser.add_argument(
        "--batch-size",
        type=int,
        default=1,
        help="requests per service batch (1 = one request at a time)",
    )
    bench_parser.add_argument("--cache-size", type=int, default=256)
    bench_parser.add_argument("--seed", type=int, default=0)
    bench_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request latency budget [s]; expiring solves degrade "
        "down the solver chain instead of blocking",
    )
    bench_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace/Perfetto JSON of every request's span "
        "tree (load at https://ui.perfetto.dev)",
    )
    bench_parser.add_argument(
        "--trace-events",
        default=None,
        metavar="PATH",
        help="write the span buffer as JSON lines (one span per line)",
    )
    bench_parser.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        help="fraction of request traces recorded (deterministic per "
        "trace index; only meaningful with --trace/--trace-events)",
    )
    bench_parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="write the metrics snapshot (labeled counters/gauges/"
        "histograms) as JSON",
    )
    bench_parser.add_argument(
        "--metrics-prom",
        default=None,
        metavar="PATH",
        help="write the metrics in Prometheus text exposition format",
    )
    bench_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the benchmark report (p50/p95, req/s, stage "
        "breakdown) as JSON ('-' for stdout)",
    )
    bench_parser.add_argument(
        "--attribution",
        action="store_true",
        help="print the per-stage latency-attribution table (self vs "
        "child time by solver tier and cache outcome; enables tracing)",
    )
    bench_parser.add_argument(
        "--exemplars",
        action="store_true",
        help="render OpenMetrics trace-id exemplars on histogram "
        "buckets in --metrics-prom output",
    )
    bench_parser.add_argument(
        "--no-slo",
        action="store_true",
        help="skip the default SLO tracker (availability + tail "
        "latency objectives)",
    )
    cluster_parser = subparsers.add_parser(
        "cluster-bench",
        help="benchmark the sharded cluster against a single service",
    )
    cluster_parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="serve a named repro.scenarios workload instead of the "
        "mixed-room generator ('list' prints the registry); --seed picks "
        "the scenario seed, workload flags are ignored",
    )
    cluster_parser.add_argument(
        "--shards", type=int, default=4, help="number of service shards"
    )
    cluster_parser.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="offered request rate [req/s]; 0 = closed-loop (all "
        "requests arrive at once)",
    )
    cluster_parser.add_argument(
        "--requests", type=int, default=200, help="number of requests to serve"
    )
    cluster_parser.add_argument(
        "--distinct",
        type=int,
        default=25,
        help="distinct random placements the requests are drawn from",
    )
    cluster_parser.add_argument(
        "--solver",
        default="heuristic",
        choices=("binary", "greedy", "heuristic", "optimal", "swing"),
        help="allocation solver",
    )
    cluster_parser.add_argument(
        "--budget", type=float, default=1.2, help="power budget [W]"
    )
    cluster_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request latency budget [s]; unmeetable requests are "
        "shed at admission instead of served late",
    )
    cluster_parser.add_argument(
        "--batch-max",
        type=int,
        default=16,
        help="max requests a shard worker drains into one dispatch",
    )
    cluster_parser.add_argument(
        "--hot-rooms",
        type=int,
        default=4,
        help="placements receiving the hot share of the traffic",
    )
    cluster_parser.add_argument(
        "--hot-fraction",
        type=float,
        default=0.5,
        help="fraction of requests hitting the hot rooms",
    )
    cluster_parser.add_argument("--cache-size", type=int, default=256)
    cluster_parser.add_argument("--seed", type=int, default=0)
    cluster_parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the sequential single-service comparison run",
    )
    cluster_parser.add_argument(
        "--knee",
        action="store_true",
        help="sweep escalating offered rates to find the req/s knee",
    )
    cluster_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the cluster benchmark report as JSON ('-' for stdout)",
    )
    cluster_parser.add_argument(
        "--metrics-prom",
        default=None,
        metavar="PATH",
        help="write the merged shard-labeled Prometheus exposition",
    )
    cluster_parser.add_argument(
        "--exemplars",
        action="store_true",
        help="render OpenMetrics trace-id exemplars on histogram "
        "buckets in --metrics-prom output",
    )
    cluster_parser.add_argument(
        "--no-slo",
        action="store_true",
        help="skip the default SLO tracker (availability + tail "
        "latency objectives)",
    )
    metrics_parser = subparsers.add_parser(
        "metrics",
        help="serve a small workload and print the metrics exposition",
    )
    metrics_parser.add_argument(
        "--requests", type=int, default=24, help="workload size"
    )
    metrics_parser.add_argument("--distinct", type=int, default=6)
    metrics_parser.add_argument(
        "--solver",
        default="heuristic",
        choices=("binary", "greedy", "heuristic", "optimal", "swing"),
    )
    metrics_parser.add_argument("--seed", type=int, default=0)
    metrics_parser.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="exposition format (Prometheus text or the JSON snapshot)",
    )
    metrics_parser.add_argument("--output", default="-")
    record_parser = subparsers.add_parser(
        "record",
        help="record a scenario's request stream as a replayable "
        "JSONL trace",
    )
    record_parser.add_argument(
        "scenario",
        metavar="NAME",
        help="registered scenario name ('list' prints the registry)",
    )
    record_parser.add_argument("--seed", type=int, default=None)
    record_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="trace file to write (default: <scenario>.trace.jsonl)",
    )
    replay_parser = subparsers.add_parser(
        "replay",
        help="replay a recorded trace against the service or cluster",
    )
    replay_parser.add_argument(
        "trace", metavar="PATH", help="JSONL trace file to replay"
    )
    replay_parser.add_argument(
        "--mode",
        choices=("recorded", "scaled", "fixed", "closed"),
        default="closed",
        help="arrival pacing: recorded offsets, offsets/speed, 1/rate "
        "spacing, or closed-loop (default)",
    )
    replay_parser.add_argument(
        "--speed",
        type=float,
        default=1.0,
        help="speed factor for --mode scaled (2.0 = twice as fast)",
    )
    replay_parser.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="offered request rate [req/s] for --mode fixed (and for "
        "--cluster pacing)",
    )
    replay_parser.add_argument(
        "--cluster",
        action="store_true",
        help="replay through the sharded cluster front door instead "
        "of one service",
    )
    replay_parser.add_argument(
        "--shards", type=int, default=4, help="cluster shards"
    )
    replay_parser.add_argument("--cache-size", type=int, default=256)
    replay_parser.add_argument(
        "--knee",
        action="store_true",
        help="with --cluster: sweep escalating offered rates for this "
        "trace to find the req/s knee",
    )
    replay_parser.add_argument(
        "--attribution",
        action="store_true",
        help="print the per-stage latency-attribution table "
        "(single-service replays; enables tracing)",
    )
    replay_parser.add_argument(
        "--no-slo",
        action="store_true",
        help="skip the default SLO tracker",
    )
    replay_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the replay's PerfReport as JSON ('-' for stdout)",
    )
    replay_parser.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="append the PerfReport to this perf-trajectory ledger",
    )
    perf_parser = subparsers.add_parser(
        "perf",
        help="perf-trajectory tools (diff two ledger entries)",
    )
    perf_sub = perf_parser.add_subparsers(dest="perf_command")
    perf_diff = perf_sub.add_parser(
        "diff",
        help="compare the latest entries of two ledgers per label; "
        "exit 1 on regression",
    )
    perf_diff.add_argument(
        "baseline", metavar="BASELINE", help="baseline ledger JSON"
    )
    perf_diff.add_argument(
        "candidate", metavar="CANDIDATE", help="candidate ledger JSON"
    )
    perf_diff.add_argument(
        "--label",
        default=None,
        help="restrict the diff to one label (default: every label "
        "present in the candidate)",
    )
    perf_diff.add_argument(
        "--p95-tolerance",
        type=float,
        default=None,
        help="allowed fractional p95 increase (default 0.15)",
    )
    perf_diff.add_argument(
        "--throughput-tolerance",
        type=float,
        default=None,
        help="allowed fractional throughput drop (default 0.10)",
    )
    lint_parser = subparsers.add_parser(
        "lint",
        help="run the invariant-aware static analysis suite (rules R1-R9)",
        add_help=False,
    )
    lint_parser.add_argument("lint_args", nargs=argparse.REMAINDER)

    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "lint":
        # `repro lint` owns its own argument parser (paths, --format,
        # --rules, --list-rules, --sarif, --baseline, --cache) so its
        # --help stays self-contained.
        from .analysis import run_lint

        return run_lint(argv[1:])

    args = parser.parse_args(argv)
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.command == "run":
        print(EXPERIMENTS[args.experiment]())
        return 0
    if args.command == "report":
        from .experiments import report as report_module

        return report_module.main(
            ["--fidelity", args.fidelity, "--output", args.output]
        )
    if args.command == "bench":
        import json

        from .errors import DenseVLCError
        from .runtime import (
            Tracer,
            TracingOptions,
            benchmark_service,
            run_benchmark,
        )

        from .obs import SLOTracker

        slo_tracker = None if args.no_slo else SLOTracker()
        if args.scenario is not None:
            from .scenarios import run_scenario_benchmark, scenario_names

            if args.scenario == "list":
                for name in scenario_names():
                    print(name)
                return 0
            try:
                scenario_report = run_scenario_benchmark(
                    args.scenario,
                    seed=args.seed,
                    cache_capacity=args.cache_size,
                    slo=slo_tracker,
                )
            except DenseVLCError as exc:
                print(f"repro bench: error: {exc}", file=sys.stderr)
                return 2
            if args.json is not None:
                payload = json.dumps(
                    scenario_report.as_dict(), indent=2, sort_keys=True
                )
                if args.json == "-":
                    print(payload)
                else:
                    with open(args.json, "w", encoding="utf-8") as handle:
                        handle.write(payload + "\n")
            for line in scenario_report.lines():
                print(line)
            return 0

        tracing = (
            args.trace is not None
            or args.trace_events is not None
            or args.attribution
        )
        exposing = args.metrics_json is not None or args.metrics_prom is not None
        try:
            service = None
            if tracing or exposing:
                tracer = (
                    Tracer(
                        TracingOptions(
                            sample_rate=args.sample_rate, seed=args.seed
                        )
                    )
                    if tracing
                    else None
                )
                service = benchmark_service(
                    distinct_placements=args.distinct,
                    cache_capacity=args.cache_size,
                    seed=args.seed,
                    tracer=tracer,
                )
            report = run_benchmark(
                requests=args.requests,
                distinct_placements=args.distinct,
                solver=args.solver,
                power_budget=args.budget,
                cache_capacity=args.cache_size,
                batch_size=args.batch_size,
                seed=args.seed,
                service=service,
                deadline_seconds=args.deadline,
                slo=slo_tracker,
            )
        except DenseVLCError as exc:
            print(f"repro bench: error: {exc}", file=sys.stderr)
            return 2
        if service is not None:
            if args.trace is not None:
                service.tracer.export_chrome_trace(args.trace)
            if args.trace_events is not None:
                service.tracer.export_events(args.trace_events)
            if args.metrics_json is not None:
                with open(args.metrics_json, "w", encoding="utf-8") as handle:
                    json.dump(
                        service.metrics_snapshot(), handle, indent=2,
                        sort_keys=True,
                    )
            if args.metrics_prom is not None:
                with open(args.metrics_prom, "w", encoding="utf-8") as handle:
                    handle.write(
                        service.metrics.expose_prometheus(
                            prefix="repro_", exemplars=args.exemplars
                        )
                    )
        if args.json is not None:
            payload = json.dumps(report.as_dict(), indent=2, sort_keys=True)
            if args.json == "-":
                print(payload)
            else:
                with open(args.json, "w", encoding="utf-8") as handle:
                    handle.write(payload + "\n")
        for line in report.lines():
            print(line)
        if args.attribution and service is not None:
            from .obs import attribution_table, render_attribution

            print()
            for line in render_attribution(
                attribution_table(service.tracer.finished_spans())
            ):
                print(line)
        return 0
    if args.command == "cluster-bench":
        import json

        from .cluster import (
            ClusterController,
            ClusterOptions,
            cluster_workload,
            run_cluster_benchmark,
        )
        from .cluster.bench import _shard_service_options
        from .errors import DenseVLCError

        if args.scenario == "list":
            from .scenarios import scenario_names

            for name in scenario_names():
                print(name)
            return 0
        try:
            scenario_scene = None
            scenario_workload = None
            if args.scenario is not None:
                from .scenarios import scenario_cluster_workload

                scenario_scene, scenario_workload, instance = (
                    scenario_cluster_workload(args.scenario, seed=args.seed)
                )
                print(
                    f"scenario            {instance.name} "
                    f"(seed {instance.seed}, digest "
                    f"{instance.workload_digest()})"
                )
            controller = None
            if args.metrics_prom is not None:
                # Pre-build the controller so its registries stay
                # readable after the run; the workload is a pure
                # function of the seed, so the scene matches.
                if scenario_scene is not None:
                    scene = scenario_scene
                else:
                    scene, _ = cluster_workload(
                        requests=args.requests,
                        distinct_placements=args.distinct,
                        hot_rooms=args.hot_rooms,
                        hot_fraction=args.hot_fraction,
                        solver=args.solver,
                        power_budget=args.budget,
                        deadline_seconds=args.deadline,
                        seed=args.seed,
                    )
                cluster_tracer = None
                if args.exemplars:
                    # Exemplars link histogram buckets to trace IDs, so
                    # rendering them needs traced requests.
                    from .runtime import Tracer, TracingOptions

                    cluster_tracer = Tracer(TracingOptions(seed=args.seed))
                controller = ClusterController(
                    scene,
                    options=ClusterOptions(
                        shards=args.shards,
                        service=_shard_service_options(args.cache_size),
                    ),
                    tracer=cluster_tracer,
                )
            from .obs import SLOTracker

            report = run_cluster_benchmark(
                requests=args.requests,
                shards=args.shards,
                distinct_placements=args.distinct,
                solver=args.solver,
                power_budget=args.budget,
                rate=args.rate,
                deadline_seconds=args.deadline,
                batch_max=args.batch_max,
                cache_capacity=args.cache_size,
                hot_rooms=args.hot_rooms,
                hot_fraction=args.hot_fraction,
                seed=args.seed,
                baseline=not args.no_baseline,
                knee=args.knee,
                controller=controller,
                scene=scenario_scene,
                workload=scenario_workload,
                slo=None if args.no_slo else SLOTracker(),
            )
        except DenseVLCError as exc:
            print(f"repro cluster-bench: error: {exc}", file=sys.stderr)
            return 2
        if controller is not None and args.metrics_prom is not None:
            with open(args.metrics_prom, "w", encoding="utf-8") as handle:
                handle.write(
                    controller.expose_prometheus(
                        prefix="repro_", exemplars=args.exemplars
                    )
                )
        if args.json is not None:
            payload = json.dumps(report.as_dict(), indent=2, sort_keys=True)
            if args.json == "-":
                print(payload)
            else:
                with open(args.json, "w", encoding="utf-8") as handle:
                    handle.write(payload + "\n")
        for line in report.lines():
            print(line)
        return 0
    if args.command == "metrics":
        import json

        from .errors import DenseVLCError
        from .runtime import benchmark_service, run_benchmark

        try:
            service = benchmark_service(
                distinct_placements=args.distinct,
                seed=args.seed,
            )
            run_benchmark(
                requests=args.requests,
                distinct_placements=args.distinct,
                solver=args.solver,
                seed=args.seed,
                service=service,
            )
        except DenseVLCError as exc:
            print(f"repro metrics: error: {exc}", file=sys.stderr)
            return 2
        if args.format == "prometheus":
            text = service.metrics.expose_prometheus(prefix="repro_")
        else:
            text = json.dumps(
                service.metrics_snapshot(), indent=2, sort_keys=True
            ) + "\n"
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        return 0
    if args.command == "record":
        from .errors import DenseVLCError
        from .obs import TraceRecorder

        if args.scenario == "list":
            from .scenarios import scenario_names

            for name in scenario_names():
                print(name)
            return 0
        try:
            trace = TraceRecorder.record_scenario(args.scenario, args.seed)
        except DenseVLCError as exc:
            print(f"repro record: error: {exc}", file=sys.stderr)
            return 2
        output = args.output or f"{args.scenario}.trace.jsonl"
        trace.save(output)
        print(f"scenario            {trace.scenario} (seed {trace.seed})")
        print(f"requests            {trace.requests}")
        print(f"stream digest       {trace.stream_digest()}")
        print(f"trace               {output}")
        return 0
    if args.command == "replay":
        import json

        from .errors import DenseVLCError
        from .obs import (
            SLOTracker,
            TraceReplayer,
            append_to_ledger,
            knee_from_trace,
            replay_cluster,
            replay_service,
        )

        try:
            if not os.path.exists(args.trace):
                raise ConfigurationError(
                    f"trace file {args.trace!r} does not exist"
                )
            replayer = TraceReplayer.load(args.trace)
            slo_tracker = None if args.no_slo else SLOTracker()
            if args.cluster:
                report = replay_cluster(
                    replayer,
                    shards=args.shards,
                    rate=args.rate,
                    cache_capacity=args.cache_size,
                    slo=slo_tracker,
                )
            else:
                tracer = None
                if args.attribution:
                    from .runtime import Tracer, TracingOptions

                    tracer = Tracer(
                        TracingOptions(seed=replayer.trace.seed)
                    )
                report = replay_service(
                    replayer,
                    mode=args.mode,
                    speed=args.speed,
                    rate=args.rate,
                    cache_capacity=args.cache_size,
                    tracer=tracer,
                    slo=slo_tracker,
                )
            knee_points = (
                knee_from_trace(
                    replayer,
                    shards=args.shards,
                    cache_capacity=args.cache_size,
                )
                if args.cluster and args.knee
                else []
            )
        except DenseVLCError as exc:
            print(f"repro replay: error: {exc}", file=sys.stderr)
            return 2
        if args.ledger is not None:
            append_to_ledger(report, args.ledger)
        if args.json is not None:
            payload = json.dumps(report.as_dict(), indent=2, sort_keys=True)
            if args.json == "-":
                print(payload)
            else:
                with open(args.json, "w", encoding="utf-8") as handle:
                    handle.write(payload + "\n")
        for line in report.lines():
            print(line)
        for point in knee_points:
            print(
                f"knee rate {point['offered_rps']:.0f}/s -> "
                f"{point['achieved_rps']:.1f} req/s  "
                f"shed {point['shed_fraction']:.2f}  "
                f"p95 {point['p95_latency_ms']:.3f} ms"
            )
        return 0
    if args.command == "perf":
        if args.perf_command != "diff":
            parser.parse_args(["perf", "--help"])
            return 1
        from .errors import DenseVLCError
        from .obs import (
            P95_TOLERANCE,
            THROUGHPUT_TOLERANCE,
            diff_reports,
            latest_report,
            load_ledger,
        )

        try:
            for role, path in (
                ("baseline", args.baseline),
                ("candidate", args.candidate),
            ):
                if not os.path.exists(path):
                    raise ConfigurationError(
                        f"{role} ledger {path!r} does not exist"
                    )
            baseline_history = load_ledger(args.baseline)
            candidate_history = load_ledger(args.candidate)
            if not candidate_history:
                raise ConfigurationError(
                    f"candidate ledger {args.candidate!r} is empty"
                )
            labels = (
                [args.label]
                if args.label is not None
                else sorted(
                    {report.label for report in candidate_history}
                )
            )
            failed = False
            for n, label in enumerate(labels):
                baseline = latest_report(baseline_history, label)
                candidate = latest_report(candidate_history, label)
                if candidate is None:
                    raise ConfigurationError(
                        f"label {label!r} is absent from the candidate "
                        "ledger"
                    )
                if baseline is None:
                    print(f"label               {label}")
                    print("no baseline entry: first run, nothing to diff")
                    continue
                diff = diff_reports(
                    baseline,
                    candidate,
                    p95_tolerance=(
                        args.p95_tolerance
                        if args.p95_tolerance is not None
                        else P95_TOLERANCE
                    ),
                    throughput_tolerance=(
                        args.throughput_tolerance
                        if args.throughput_tolerance is not None
                        else THROUGHPUT_TOLERANCE
                    ),
                )
                if n:
                    print()
                for line in diff.lines():
                    print(line)
                failed = failed or not diff.ok
        except DenseVLCError as exc:
            print(f"repro perf: error: {exc}", file=sys.stderr)
            return 2
        return 1 if failed else 0
    parser.print_help()
    return 1


if __name__ == "__main__":
    sys.exit(main())
