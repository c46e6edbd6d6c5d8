"""Perf-trajectory gate: replay the pinned traces, diff the ledger.

The closed-loop replay of each committed trace under
``benchmarks/traces/`` is compared against the committed history for
its label in ``benchmarks/results/BENCH_trajectory.json`` (the slowest
of the recent comparable entries).  A
candidate whose p95 rises more than 15% or whose throughput falls more
than 10% past the baseline fails the gate (the thresholds the ISSUE-9
acceptance pins, exported as ``P95_TOLERANCE``/``THROUGHPUT_TOLERANCE``).

Two invariants ride along:

- the pinned trace files themselves are bit-stable -- their stream
  digests match the digests recorded in the ledger entries, so nobody
  can silently regenerate a trace and "pass" the gate on a different
  workload;
- every passing run appends its own report to the ledger, so the
  committed file is a *trajectory* across PRs, not a single pin.

Both sides of the diff are measured the same way: each gated series
replays ``SAMPLES`` times and the diffed report is the best-case
envelope (max throughput, min p95) across the samples.  The traced
workloads finish in tens of milliseconds, so a single sample swings
+-25% with scheduler noise on shared CI boxes; the best-of-N envelope
tracks what the machine *can* do, which is the stable quantity the
regression being guarded (losing batching, caching, or the solver
tiers) actually moves.
"""

import pathlib
import time

import pytest

from repro.obs import (
    PerfReport,
    TraceReplayer,
    append_to_ledger,
    diff_reports,
    environment_fingerprint,
    latest_report,
    load_ledger,
    replay_cluster,
    replay_service,
)

TRACES_DIR = pathlib.Path(__file__).parent / "traces"
LEDGER = pathlib.Path(__file__).parent / "results" / "BENCH_trajectory.json"

#: Replay samples folded into the best-case envelope, both sides.
SAMPLES = 4

#: (trace file, ledger label, replay callable) per gated series.
GATES = [
    (
        "led-outage.trace.jsonl",
        "service:led-outage",
        lambda replayer: replay_service(replayer, mode="closed"),
    ),
    (
        "mirror-nlos.trace.jsonl",
        "cluster:mirror-nlos",
        lambda replayer: replay_cluster(replayer, shards=4),
    ),
]


def damped_replay(run, replayer, samples=SAMPLES):
    """The best-case envelope over *samples* identical replays.

    Starts from the max-throughput sample and takes the min p50/p95/p99
    across all samples -- scheduler noise only ever slows a closed-loop
    replay down, so the envelope converges on the machine's real
    capability where any single sample may not.  The seeding script and
    the gate both measure through this helper, so ledger entries are
    always comparable.
    """
    reports = [run(replayer) for _ in range(samples)]
    best = max(reports, key=lambda r: r.requests_per_second)
    return PerfReport.from_dict(
        {
            **best.as_dict(),
            "p50_latency_ms": min(r.p50_latency_ms for r in reports),
            "p95_latency_ms": min(r.p95_latency_ms for r in reports),
            "p99_latency_ms": min(r.p99_latency_ms for r in reports),
        }
    )


def _matching_baseline(history, label, digest, cpu_count):
    """The slowest-throughput entry of the last 5 comparable runs.

    Entries whose stream digest differs belong to an older recording of
    the workload -- when a scenario legitimately changes and its trace
    is re-pinned, the next gate run bootstraps a fresh baseline instead
    of refusing the diff forever.  Entries recorded on a box with a
    different ``environment.cpu_count`` are not comparable either: the
    cluster replay runs a shard per CPU and a closed loop measures the
    box, so a box with no entry for its own CPU count bootstraps its
    own series instead of failing against another box's numbers.
    Among comparable entries the gate diffs against the *slowest* of
    the recent window, not the latest: only passing runs append, so the
    ledger ratchets toward fast-machine states, and a box that drifts
    10-15% slower between sessions must not read as a regression.  The failures being
    guarded (losing batching, caching, or a solver tier) cost multiples,
    not percents, and still trip the thresholds against the slowest
    recent accepted run.
    """
    comparable = [
        report
        for report in history
        if report.label == label
        and report.stream_digest == digest
        and report.environment.get("cpu_count") == cpu_count
    ]
    if not comparable:
        return None
    return min(
        comparable[-5:], key=lambda report: report.requests_per_second
    )


@pytest.mark.parametrize(
    "trace_name,label,run", GATES, ids=[label for _, label, _ in GATES]
)
def test_bench_trajectory_gate(trace_name, label, run, record_rows):
    replayer = TraceReplayer.load(str(TRACES_DIR / trace_name))
    digest = replayer.stream_digest()
    baseline = _matching_baseline(
        load_ledger(str(LEDGER)),
        label,
        digest,
        environment_fingerprint()["cpu_count"],
    )

    report = damped_replay(run, replayer)
    assert report.served + report.shed == replayer.requests
    assert report.stream_digest == digest

    if baseline is None:
        # Bootstrap: first measurement of this (label, workload) pair
        # becomes the committed baseline the next run diffs against.
        append_to_ledger(report, str(LEDGER))
        record_rows(
            f"trajectory_{label.replace(':', '_')}",
            [
                f"# Perf trajectory gate: {label}",
                "bootstrap: no comparable baseline, entry recorded",
                f"throughput          {report.requests_per_second:.1f} req/s",
                f"p95 latency         {report.p95_latency_ms:.3f} ms",
            ],
        )
        return

    diff = diff_reports(baseline, report)
    if not diff.ok:
        # One re-measurement damps a noisy sampling session; the
        # regressions being guarded do not come and go between runs.
        # Settle first: on small boxes a preceding heavy job keeps the
        # scheduler busy for a beat after it exits.
        time.sleep(1.0)
        again = damped_replay(run, replayer)
        if again.requests_per_second > report.requests_per_second:
            report = again
        diff = diff_reports(baseline, report)
    record_rows(
        f"trajectory_{label.replace(':', '_')}",
        [f"# Perf trajectory gate: {label}", *diff.lines()],
    )
    assert diff.ok, "\n".join(diff.lines())

    # Passing runs extend the trajectory the next PR diffs against.
    append_to_ledger(report, str(LEDGER))


def test_trajectory_ledger_has_both_targets():
    history = load_ledger(str(LEDGER))
    targets = {report.target for report in history}
    assert {"service", "cluster"} <= targets
    labels = {report.label for report in history}
    assert {label for _, label, _ in GATES} <= labels


def test_matching_baseline_keys_on_cpu_count():
    def entry(cpu_count, rps, digest="d", label="service:led-outage"):
        return PerfReport(
            label=label,
            target="service",
            scenario="led-outage",
            seed=0,
            stream_digest=digest,
            mode="closed",
            requests=60,
            served=60,
            shed=0,
            duration_seconds=0.03,
            requests_per_second=rps,
            p50_latency_ms=0.4,
            p95_latency_ms=0.5,
            environment={"cpu_count": cpu_count},
        )

    history = [
        entry(1, 3000.0),
        entry(2, 1800.0),
        entry(1, 2500.0),
        entry(2, 2100.0),
        entry(2, 900.0, digest="old"),
        entry(2, 800.0, label="cluster:mirror-nlos"),
    ]
    label = "service:led-outage"
    # The slowest of the entries from a box with the same CPU count.
    assert _matching_baseline(history, label, "d", 1) is history[2]
    assert _matching_baseline(history, label, "d", 2) is history[1]
    # A box with no entry for its CPU count bootstraps its own series.
    assert _matching_baseline(history, label, "d", 4) is None
    assert _matching_baseline(history, label, "new", 2) is None
