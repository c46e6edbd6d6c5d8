"""Command-line interface: run experiments by name.

``python -m repro <command>`` exposes the reproduction from the shell:

    python -m repro list                    # available experiments
    python -m repro run fig04               # one experiment, summary out
    python -m repro report --fidelity fast  # the consolidated report
    python -m repro record fig6-random      # a scenario -> JSONL trace
    python -m repro replay fig6-random.trace.jsonl           # benchmark it
    python -m repro replay t.jsonl --trace out.json          # + span trees
    python -m repro replay t.jsonl --cluster --baseline      # sharded cluster
    python -m repro replay t.jsonl --metrics-prom -          # Prometheus text
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


def _write_output(path: str, text: str) -> None:
    """Write *text* to *path*, or to stdout when *path* is ``-``."""
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


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
        "trace_file", metavar="TRACE", help="JSONL trace file to replay"
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
        "--solver",
        default=None,
        choices=("greedy", "heuristic", "optimal", "swing"),
        help="serve every request with this solver instead of the "
        "recorded one (the report's stream digest names the override)",
    )
    replay_parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="give every request this latency budget [s]; expiring "
        "solves degrade down the solver chain, the cluster sheds "
        "unmeetable requests at admission",
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
    replay_parser.add_argument(
        "--batch-max",
        type=int,
        default=16,
        help="with --cluster: max requests a shard worker drains into "
        "one dispatch",
    )
    replay_parser.add_argument(
        "--baseline",
        action="store_true",
        help="with --cluster: also serve the trace sequentially on one "
        "service and report the cluster's speedup over it",
    )
    replay_parser.add_argument("--cache-size", type=int, default=256)
    replay_parser.add_argument(
        "--knee",
        action="store_true",
        help="with --cluster: sweep escalating offered rates for this "
        "trace to find the req/s knee",
    )
    replay_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome-trace/Perfetto JSON of every request's span "
        "tree (load at https://ui.perfetto.dev)",
    )
    replay_parser.add_argument(
        "--trace-events",
        default=None,
        metavar="PATH",
        help="write the span buffer as JSON lines (one span per line)",
    )
    replay_parser.add_argument(
        "--sample-rate",
        type=float,
        default=1.0,
        help="fraction of request traces recorded (deterministic per "
        "trace index; only meaningful when tracing)",
    )
    replay_parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="write the metrics snapshot (labeled counters/gauges/"
        "histograms) as JSON ('-' for stdout)",
    )
    replay_parser.add_argument(
        "--metrics-prom",
        default=None,
        metavar="PATH",
        help="write the metrics in Prometheus text exposition format "
        "('-' for stdout; shard-labeled with --cluster)",
    )
    replay_parser.add_argument(
        "--exemplars",
        action="store_true",
        help="render OpenMetrics trace-id exemplars on histogram "
        "buckets in --metrics-prom output (enables tracing)",
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
        help="append the PerfReport (and the baseline's) to this "
        "perf-trajectory ledger",
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
        # --rules, --list-rules) so its --help stays self-contained.
        from .analysis.engine import run_lint

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
            cluster_for,
            knee_from_trace,
            replay_cluster,
            replay_sequential,
            replay_service,
            service_for,
        )
        from .runtime import Tracer, TracingOptions

        try:
            if not os.path.exists(args.trace_file):
                raise ConfigurationError(
                    f"trace file {args.trace_file!r} does not exist"
                )
            replayer = TraceReplayer.load(args.trace_file).with_overrides(
                solver=args.solver, deadline_seconds=args.deadline
            )
            tracer = None
            if (
                args.exemplars
                or args.trace is not None
                or args.trace_events is not None
            ):
                tracer = Tracer(
                    TracingOptions(
                        sample_rate=args.sample_rate,
                        seed=replayer.trace.seed,
                    )
                )
            slo_tracker = None if args.no_slo else SLOTracker()
            baseline = None
            knee_points: List[Dict[str, float]] = []
            if args.cluster:
                controller = cluster_for(
                    replayer, args.shards, args.cache_size, tracer
                )
                report = replay_cluster(
                    replayer,
                    rate=args.rate,
                    batch_max=args.batch_max,
                    slo=slo_tracker,
                    controller=controller,
                )
                metrics_snapshot = controller.metrics_snapshot
                expose = controller.expose_prometheus
                target_tracer = controller.tracer
                if args.baseline:
                    baseline = replay_sequential(
                        replayer, cache_capacity=args.cache_size
                    )
                if args.knee:
                    knee_points = knee_from_trace(
                        replayer,
                        shards=args.shards,
                        batch_max=args.batch_max,
                        cache_capacity=args.cache_size,
                    )
            else:
                service = service_for(replayer, args.cache_size, tracer)
                report = replay_service(
                    replayer,
                    mode=args.mode,
                    speed=args.speed,
                    rate=args.rate,
                    slo=slo_tracker,
                    service=service,
                )
                metrics_snapshot = service.metrics_snapshot
                expose = service.metrics.expose_prometheus
                target_tracer = service.tracer
        except DenseVLCError as exc:
            print(f"repro replay: error: {exc}", file=sys.stderr)
            return 2
        if args.trace is not None:
            target_tracer.export_chrome_trace(args.trace)
        if args.trace_events is not None:
            target_tracer.export_events(args.trace_events)
        if args.metrics_json is not None:
            _write_output(
                args.metrics_json,
                json.dumps(metrics_snapshot(), indent=2, sort_keys=True)
                + "\n",
            )
        if args.metrics_prom is not None:
            _write_output(
                args.metrics_prom,
                expose(prefix="repro_", exemplars=args.exemplars),
            )
        if args.ledger is not None:
            append_to_ledger(report, args.ledger)
            if baseline is not None:
                append_to_ledger(baseline, args.ledger)
        if args.json is not None:
            _write_output(
                args.json,
                json.dumps(report.as_dict(), indent=2, sort_keys=True)
                + "\n",
            )
        for line in report.lines():
            print(line)
        if baseline is not None:
            print()
            for line in baseline.lines():
                print(line)
            speedup = (
                report.requests_per_second / baseline.requests_per_second
            )
            print(f"speedup             {speedup:.2f}x")
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
