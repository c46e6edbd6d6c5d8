"""Tests for the observability layer (repro.obs).

Covers the replayable trace format (record -> save -> load -> replay is
a bit-identical fixed point), the service/cluster replayers and their
rate modes, the perf-trajectory ledger with its regression diff, the
per-stage attribution table over the stage histograms (and that spans
and histograms tell one story), the rolling SLO tracker, and -- the
invariant every opt-in observability feature must keep -- that the
disabled paths stay bit-identical to the pre-obs behavior.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    LEDGER_VERSION,
    PerfReport,
    RequestTrace,
    SLObjective,
    SLOTracker,
    TraceRecord,
    TraceRecorder,
    TraceReplayer,
    append_to_ledger,
    attribution_table,
    cluster_for,
    default_objectives,
    diff_reports,
    find_knee,
    latest_report,
    load_ledger,
    recording_service,
    render_attribution,
    replay_cluster,
    replay_service,
    service_for,
    stage_totals,
)
from repro.obs.attribution import STAGE_HISTOGRAM
from repro.runtime import (
    AllocationRequest,
    AllocationService,
    FaultPlan,
    MetricsRegistry,
    ServiceOptions,
    Tracer,
    TracingOptions,
    stage,
)
from repro.scenarios import build_scenario

FAST_SCENARIO = "mirror-nlos"  # 30 requests, cheapest registered scenario


@pytest.fixture(scope="module")
def fast_trace():
    return TraceRecorder.record_scenario(FAST_SCENARIO, 0)


# ----------------------------------------------------------------------
# trace format: record -> save -> load round trip
# ----------------------------------------------------------------------


class TestTraceRoundTrip:
    def test_recording_is_deterministic(self, fast_trace, tmp_path):
        again = TraceRecorder.record_scenario(FAST_SCENARIO, 0)
        assert again.stream_digest() == fast_trace.stream_digest()
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        fast_trace.save(str(first))
        again.save(str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_is_bit_identical(self, fast_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        fast_trace.save(str(path))
        loaded = TraceReplayer.load(str(path)).trace
        assert loaded.stream_digest() == fast_trace.stream_digest()
        assert loaded.scenario == fast_trace.scenario
        assert loaded.seed == fast_trace.seed
        assert loaded.scene_fingerprint == fast_trace.scene_fingerprint
        assert [r.arrival_seconds for r in loaded.records] == [
            r.arrival_seconds for r in fast_trace.records
        ]
        assert [r.deadline_seconds for r in loaded.records] == [
            r.deadline_seconds for r in fast_trace.records
        ]
        assert [r.fingerprint for r in loaded.records] == [
            r.fingerprint for r in fast_trace.records
        ]
        assert loaded.records == fast_trace.records

    def test_save_load_save_is_a_fixed_point(self, fast_trace, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        fast_trace.save(str(first))
        TraceReplayer.load(str(first)).trace.save(str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_header_declares_the_stream(self, fast_trace):
        header = fast_trace.header()
        assert header["kind"] == "header"
        assert header["version"] == 1
        assert header["requests"] == fast_trace.requests
        assert header["metadata"]["source"] == "scenario"

    def test_arrival_batches_preserve_order(self, fast_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        fast_trace.save(str(path))
        replayer = TraceReplayer.load(str(path))
        flattened = []
        arrivals = []
        for arrival, batch in replayer.arrival_batches():
            arrivals.append(arrival)
            flattened.extend(batch)
        assert arrivals == sorted(arrivals)
        assert len(flattened) == fast_trace.requests
        assert [r.rx_positions_xy for r in flattened] == [
            r.rx_positions_xy for r in fast_trace.records
        ]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            TraceReplayer.load(str(path))

    def test_missing_header_rejected(self, fast_trace, tmp_path):
        path = tmp_path / "headless.jsonl"
        record = fast_trace.records[0]
        path.write_text(json.dumps(record.as_dict()) + "\n")
        with pytest.raises(ConfigurationError, match="header"):
            TraceReplayer.load(str(path))

    def test_future_version_rejected(self, fast_trace, tmp_path):
        path = tmp_path / "future.jsonl"
        header = fast_trace.header()
        header["version"] = 99
        lines = [json.dumps(header, sort_keys=True)]
        lines += [
            json.dumps(r.as_dict(), sort_keys=True)
            for r in fast_trace.records
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="version 99"):
            TraceReplayer.load(str(path))

    def test_declared_count_mismatch_rejected(self, fast_trace, tmp_path):
        path = tmp_path / "short.jsonl"
        header = fast_trace.header()
        lines = [json.dumps(header, sort_keys=True)]
        lines += [
            json.dumps(r.as_dict(), sort_keys=True)
            for r in fast_trace.records[:-1]
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="declares"):
            TraceReplayer.load(str(path))

    def test_unsorted_arrivals_rejected(self, fast_trace):
        shuffled = (fast_trace.records[-1], fast_trace.records[0])
        if shuffled[0].arrival_seconds <= shuffled[1].arrival_seconds:
            pytest.skip("scenario trace has a single arrival instant")
        with pytest.raises(ConfigurationError, match="sorted"):
            RequestTrace(
                scenario=fast_trace.scenario,
                seed=fast_trace.seed,
                scene_fingerprint=fast_trace.scene_fingerprint,
                records=shuffled,
            )

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 1 record"):
            RequestTrace(
                scenario="x", seed=0, scene_fingerprint="f", records=()
            )

    def test_record_replays_identical_request(self, fast_trace):
        record = fast_trace.records[0]
        request = record.request()
        assert request.rx_positions_xy == record.rx_positions_xy
        assert request.power_budget == record.power_budget
        assert request.solver == record.solver
        assert request.deadline_seconds == record.deadline_seconds
        assert TraceRecord.from_dict(record.as_dict()) == record


class TestLiveRecording:
    def test_recording_service_captures_served_requests(self, fast_trace):
        instance = build_scenario(FAST_SCENARIO, 0)
        service = AllocationService(instance.scene)
        recorder = TraceRecorder(scenario=FAST_SCENARIO, seed=0)
        wrapped = recording_service(service, recorder)
        assert recorder.scene_fingerprint == service.base_fingerprint
        requests = [r.request() for r in fast_trace.records[:4]]
        wrapped.handle(requests[0])
        wrapped.handle_batch(requests[1:])
        assert len(recorder.records) == 4
        # Recorded fingerprints agree with the service's cache identity.
        from repro.runtime.service import placement_fingerprint

        for record, request in zip(recorder.records, requests):
            assert record.fingerprint == placement_fingerprint(
                service.base_fingerprint, request.rx_positions_xy
            )
        trace = recorder.trace()
        arrivals = [r.arrival_seconds for r in trace.records]
        assert arrivals[0] == 0.0
        assert arrivals == sorted(arrivals)

    def test_wrapper_forwards_everything_else(self):
        instance = build_scenario(FAST_SCENARIO, 0)
        service = AllocationService(instance.scene)
        wrapped = recording_service(service, TraceRecorder())
        assert wrapped.base_fingerprint == service.base_fingerprint
        assert wrapped.health()["status"] == "ok"


# ----------------------------------------------------------------------
# replays
# ----------------------------------------------------------------------


class TestReplayService:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "fast.trace.jsonl"
        TraceRecorder.record_scenario(FAST_SCENARIO, 0).save(str(path))
        return str(path)

    def test_closed_replay_serves_everything(self, trace_path):
        replayer = TraceReplayer.load(trace_path)
        report = replay_service(replayer, mode="closed")
        assert report.label == f"service:{FAST_SCENARIO}"
        assert report.target == "service"
        assert report.served == replayer.requests
        assert report.shed == 0
        assert report.stream_digest == replayer.stream_digest()
        assert report.requests_per_second > 0
        assert report.p95_latency_ms > 0
        assert report.p99_latency_ms >= report.p95_latency_ms > 0

    def test_replayed_stream_is_the_recorded_stream(self, trace_path):
        # The acceptance bit-identity: what the replayer feeds the
        # service is byte-for-byte what the recorder captured.
        replayer = TraceReplayer.load(trace_path)
        recorded = TraceRecorder.record_scenario(FAST_SCENARIO, 0)
        replayed = [req for _, req in replayer.timed_requests()]
        assert [r.request() for r in recorded.records] == replayed
        assert replayer.stream_digest() == recorded.stream_digest()

    def test_scaled_and_fixed_modes(self, trace_path):
        replayer = TraceReplayer.load(trace_path)
        scaled = replay_service(replayer, mode="scaled", speed=1e6)
        assert scaled.served == replayer.requests
        assert scaled.mode == "scaled"
        fixed = replay_service(replayer, mode="fixed", rate=1e6)
        assert fixed.served == replayer.requests
        assert fixed.mode == "fixed"

    def test_mode_validation(self, trace_path):
        replayer = TraceReplayer.load(trace_path)
        with pytest.raises(ConfigurationError, match="unknown replay mode"):
            replay_service(replayer, mode="warp")
        with pytest.raises(ConfigurationError, match="speed > 0"):
            replay_service(replayer, mode="scaled", speed=0.0)
        with pytest.raises(ConfigurationError, match="rate > 0"):
            replay_service(replayer, mode="fixed", rate=0.0)

    def test_unregistered_scenario_rejected(self, trace_path, tmp_path):
        replayer = TraceReplayer.load(trace_path)
        header = replayer.trace.header()
        header["scenario"] = "no-such-scenario"
        lines = [json.dumps(header, sort_keys=True)]
        lines += [
            json.dumps(r.as_dict(), sort_keys=True)
            for r in replayer.trace.records
        ]
        path = tmp_path / "unknown.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="not in the registry"):
            replay_service(TraceReplayer.load(str(path)))

    def test_scene_drift_rejected(self, trace_path, tmp_path):
        replayer = TraceReplayer.load(trace_path)
        header = replayer.trace.header()
        header["scene_fingerprint"] = "0" * 32
        lines = [json.dumps(header, sort_keys=True)]
        lines += [
            json.dumps(r.as_dict(), sort_keys=True)
            for r in replayer.trace.records
        ]
        path = tmp_path / "drifted.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="fingerprint mismatch"):
            replay_service(TraceReplayer.load(str(path)))

    def test_attribution_needs_no_tracer(self, trace_path):
        replayer = TraceReplayer.load(trace_path)
        plain = replay_service(replayer)
        for prefix in ("channel[", "allocation[", "solve["):
            assert any(key.startswith(prefix) for key in plain.stage_self_ms)
        assert all(ms >= 0.0 for ms in plain.stage_self_ms.values())
        traced = replay_service(
            replayer, tracer=Tracer(TracingOptions(seed=0))
        )
        assert set(traced.stage_self_ms) == set(plain.stage_self_ms)

    def test_reused_service_reports_only_its_own_replay(self, trace_path):
        replayer = TraceReplayer.load(trace_path)
        service = service_for(replayer)
        first = replay_service(replayer, service=service)
        second = replay_service(replayer, service=service)
        # The second pass hits both caches: no channel is computed and
        # nothing is solved, so neither may leak in from the first.
        assert any(key.startswith("solve[") for key in first.stage_self_ms)
        assert not any(key.startswith("solve[") for key in second.stage_self_ms)
        assert "channel[hit]" in second.stage_self_ms

    def test_slo_snapshot_lands_in_the_report(self, trace_path):
        replayer = TraceReplayer.load(trace_path)
        tracker = SLOTracker()
        report = replay_service(replayer, slo=tracker)
        assert tracker.observed == replayer.requests
        names = {o["name"] for o in report.slo["objectives"]}
        assert names == {"availability", "latency-100ms"}


class TestReplayCluster:
    def test_cluster_replay(self, fast_trace, tmp_path):
        path = tmp_path / "fast.trace.jsonl"
        fast_trace.save(str(path))
        replayer = TraceReplayer.load(str(path))
        tracker = SLOTracker()
        report = replay_cluster(replayer, shards=2, slo=tracker)
        assert report.label == f"cluster:{FAST_SCENARIO}"
        assert report.target == "cluster"
        assert report.served + report.shed == replayer.requests
        assert report.stream_digest == replayer.stream_digest()
        assert tracker.observed == report.served
        assert report.slo["objectives"]
        assert report.p99_latency_ms >= report.p95_latency_ms > 0
        assert report.counters["cluster.submitted"] == replayer.requests

    def test_cluster_hit_rates_pool_over_shards(self, fast_trace):
        # A second pass over the same cluster finds every placement
        # cached on whichever shard owns it.
        replayer = TraceReplayer(fast_trace)
        controller = cluster_for(replayer, shards=2)
        cold = replay_cluster(replayer, controller=controller)
        warm = replay_cluster(replayer, controller=controller)
        assert warm.channel_hit_rate > cold.channel_hit_rate
        assert warm.allocation_hit_rate > 0.0
        assert warm.counters["cluster.submitted"] == 2 * replayer.requests

    def test_find_knee_validation(self):
        def never(rate):
            raise AssertionError("must not run")

        with pytest.raises(ConfigurationError, match="start_rate"):
            find_knee(never, start_rate=0.0)
        with pytest.raises(ConfigurationError, match="growth"):
            find_knee(never, growth=1.0)

    def test_overrides_rename_the_stream(self, fast_trace):
        replayer = TraceReplayer(fast_trace)
        assert replayer.with_overrides() is replayer
        swing = replayer.with_overrides(solver="swing", deadline_seconds=30)
        assert swing.stream_digest() != replayer.stream_digest()
        assert {r.solver for r in swing.trace.records} == {"swing"}
        assert {r.deadline_seconds for r in swing.trace.records} == {30.0}
        report = replay_service(swing)
        assert report.stream_digest == swing.stream_digest()
        assert report.counters['pool.solves{solver="swing"}'] > 0


# ----------------------------------------------------------------------
# perf-trajectory ledger
# ----------------------------------------------------------------------


def _report(label="service:fast", rps=1000.0, p95=1.0, digest="d" * 32):
    target = label.split(":", 1)[0]
    return PerfReport(
        label=label,
        target=target,
        scenario="fast",
        seed=0,
        stream_digest=digest,
        mode="closed",
        requests=30,
        served=30,
        shed=0,
        duration_seconds=0.03,
        requests_per_second=rps,
        p50_latency_ms=p95 / 2,
        p95_latency_ms=p95,
    )


class TestLedger:
    def test_append_and_load(self, tmp_path):
        path = str(tmp_path / "ledger.json")
        assert load_ledger(path) == []
        history = append_to_ledger(_report(), path)
        assert len(history) == 1
        assert history[0].created  # stamped on append
        history = append_to_ledger(_report(rps=1100.0), path)
        assert len(history) == 2
        loaded = load_ledger(path)
        assert [r.requests_per_second for r in loaded] == [1000.0, 1100.0]
        document = json.loads((tmp_path / "ledger.json").read_text())
        assert document["version"] == LEDGER_VERSION

    def test_latest_report_picks_newest_with_label(self, tmp_path):
        history = [
            _report(rps=1.0),
            _report(label="cluster:fast", rps=2.0),
            _report(rps=3.0),
        ]
        latest = latest_report(history, "service:fast")
        assert latest is not None and latest.requests_per_second == 3.0
        assert latest_report(history, "service:absent") is None

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ConfigurationError, match="version 99"):
            load_ledger(str(path))

    def test_diff_within_thresholds(self):
        diff = diff_reports(_report(), _report(rps=950.0, p95=1.1))
        assert diff.ok
        assert "ok: within regression thresholds" in diff.lines()[-1]

    def test_throughput_regression_fires(self):
        diff = diff_reports(_report(), _report(rps=850.0))
        assert not diff.ok
        assert any("throughput fell" in r for r in diff.regressions)

    def test_p95_regression_fires(self):
        diff = diff_reports(_report(), _report(p95=1.2))
        assert not diff.ok
        assert any("p95 latency rose" in r for r in diff.regressions)

    def test_diff_refuses_mismatched_labels(self):
        with pytest.raises(ConfigurationError, match="labels must match"):
            diff_reports(_report(), _report(label="cluster:fast"))

    def test_diff_refuses_mismatched_digests(self):
        with pytest.raises(ConfigurationError, match="digest mismatch"):
            diff_reports(_report(), _report(digest="e" * 32))

    def test_diff_tolerance_validation(self):
        with pytest.raises(ConfigurationError, match="p95_tolerance"):
            diff_reports(_report(), _report(), p95_tolerance=-0.1)
        with pytest.raises(ConfigurationError, match="throughput_tolerance"):
            diff_reports(_report(), _report(), throughput_tolerance=1.0)

    def test_report_validation(self):
        with pytest.raises(ConfigurationError, match="target"):
            _report(label="edge:fast")
        with pytest.raises(ConfigurationError, match=">= 1 request"):
            PerfReport(
                label="service:x",
                target="service",
                scenario="x",
                seed=0,
                stream_digest="d",
                mode="closed",
                requests=0,
                served=0,
                shed=0,
                duration_seconds=0.0,
                requests_per_second=0.0,
                p50_latency_ms=0.0,
                p95_latency_ms=0.0,
            )

    def test_report_round_trips_through_dict(self):
        report = _report()
        assert PerfReport.from_dict(report.as_dict()) == report

    def test_entries_without_counters_load_empty(self):
        legacy = _report().as_dict()
        del legacy["counters"]
        assert PerfReport.from_dict(legacy).counters == {}


# ----------------------------------------------------------------------
# latency attribution
# ----------------------------------------------------------------------


def _registry(**self_seconds):
    """A registry whose stage histograms hold the given observations."""
    registry = MetricsRegistry()
    for key, observations in self_seconds.items():
        histogram = registry.histogram(STAGE_HISTOGRAM, stage=key)
        for value in observations:
            histogram.observe(value)
    return registry


#: The span attribute that refines a span name into its stage key.
_REFINEMENTS = {
    "channel": "outcome",
    "allocation": "cache_outcome",
    "solve": "solver",
}


def _span_self_seconds(spans):
    """Per-stage span self time: duration minus the children's."""
    child_time = {}
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + span.duration
            )
    totals = {}
    for span in spans:
        if span.parent_id is None:
            continue  # request roots are traces, not stages
        key = span.name
        if span.name in _REFINEMENTS:
            key = f"{span.name}[{span.attributes[_REFINEMENTS[span.name]]}]"
        totals[key] = totals.get(key, 0.0) + (
            span.duration - child_time.get(span.span_id, 0.0)
        )
    return totals


@pytest.fixture(scope="module")
def outage_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "led-outage.trace.jsonl"
    TraceRecorder.record_scenario("led-outage").save(str(path))
    return str(path)


class TestAttribution:
    def test_self_time_excludes_children(self):
        registry = MetricsRegistry()
        tracer = Tracer(TracingOptions(seed=0))
        root = tracer.start_trace("request")
        with stage(
            "allocation[miss]",
            registry.histogram(STAGE_HISTOGRAM, stage="allocation[miss]"),
            parents=[root],
            tracer=tracer,
        ) as outer:
            with stage(
                "solve[swing]",
                registry.histogram(STAGE_HISTOGRAM, stage="solve[swing]"),
            ) as inner:
                sum(range(1000))
        rows = {
            row["stage"]: row
            for row in attribution_table(stage_totals([registry]))
        }
        outer_ms = 1e3 * outer.spans[0].duration
        inner_ms = 1e3 * inner.spans[0].duration
        assert rows["solve[swing]"]["self_ms"] == pytest.approx(inner_ms)
        assert rows["allocation[miss]"]["self_ms"] == pytest.approx(
            outer_ms - inner_ms
        )
        fractions = sum(row["self_fraction"] for row in rows.values())
        assert fractions == pytest.approx(1.0)

    def test_refinements_split_cost_profiles(self):
        registry = _registry(**{
            "allocation[hit]": [0.001],
            "allocation[miss]": [0.001, 0.002],
            "solve[swing]": [0.004],
        })
        rows = {
            row["stage"]: row
            for row in attribution_table(stage_totals([registry]))
        }
        assert set(rows) == {"allocation[hit]", "allocation[miss]", "solve[swing]"}
        assert rows["allocation[miss]"]["count"] == 2
        assert rows["allocation[miss]"]["self_ms"] == pytest.approx(3.0)

    def test_unrefined_span_keeps_plain_name(self):
        table = attribution_table(
            stage_totals([_registry(throughput=[0.001])])
        )
        assert table[0]["stage"] == "throughput"

    def test_totals_sum_across_registries(self):
        totals = stage_totals([
            _registry(queue=[0.001]),
            _registry(queue=[0.002], route=[0.003]),
        ])
        assert totals["queue"] == (2, pytest.approx(0.003))
        assert totals["route"] == (1, pytest.approx(0.003))

    def test_delta_drops_stages_without_new_observations(self):
        registry = _registry(channel=[0.005], cache=[0.001])
        before = stage_totals([registry])
        registry.histogram(STAGE_HISTOGRAM, stage="cache").observe(0.002)
        table = attribution_table(stage_totals([registry]), before)
        assert [row["stage"] for row in table] == ["cache"]
        assert table[0]["count"] == 1
        assert table[0]["self_ms"] == pytest.approx(2.0)

    def test_sorted_by_descending_self_time(self):
        registry = _registry(cheap=[0.001], dear=[0.009])
        assert [
            r["stage"] for r in attribution_table(stage_totals([registry]))
        ] == ["dear", "cheap"]

    def test_empty_input(self):
        assert attribution_table({}) == []
        assert attribution_table(stage_totals([MetricsRegistry()])) == []
        assert render_attribution([]) == []

    def test_render_alignment(self):
        table = attribution_table(stage_totals([_registry(request=[0.010])]))
        lines = render_attribution(table)
        assert lines[0].split() == ["stage", "count", "self", "ms", "self", "%"]
        assert "request" in lines[1]
        assert "100.0%" in lines[1]

    def test_real_tracer_spans_fold_cleanly(self, outage_trace):
        # One request per batch: every span is its stage's whole
        # window, so spans and histograms must tell the same story.
        tracer = Tracer(TracingOptions(sample_rate=1.0, seed=0))
        replayer = TraceReplayer.load(outage_trace)
        service = service_for(replayer, tracer=tracer)
        replay_service(replayer, mode="fixed", rate=5000.0, service=service)
        histogram_seconds = {
            key: seconds
            for key, (_, seconds) in stage_totals([service.metrics]).items()
        }
        span_seconds = _span_self_seconds(tracer.finished_spans())
        assert tracer.dropped_spans == 0
        assert set(span_seconds) == set(histogram_seconds)
        for key, seconds in histogram_seconds.items():
            assert span_seconds[key] == pytest.approx(seconds, abs=1e-9), key

    def test_solve_stall_lands_on_the_solve_stage(self, fast_trace):
        stall = 0.02
        replayer = TraceReplayer(fast_trace)
        scene = build_scenario(FAST_SCENARIO, 0).scene

        def replay(faults):
            service = AllocationService(
                scene, options=ServiceOptions(faults=faults)
            )
            report = replay_service(replayer, service=service)
            return report, service.metrics.counter(
                "service.allocation_misses"
            ).value

        def stage_ms(report, prefix):
            return sum(
                ms for key, ms in report.stage_self_ms.items()
                if key.startswith(prefix)
            )

        base, _ = replay(None)
        stalled, stalls = replay(
            FaultPlan(slow_solve_probability=1.0, slow_solve_seconds=stall)
        )
        assert stalls > 0
        assert stage_ms(stalled, "solve[") - stage_ms(base, "solve[") >= (
            1e3 * stall * stalls
        )
        assert abs(
            stage_ms(stalled, "channel[") - stage_ms(base, "channel[")
        ) < 1e3 * stall


# ----------------------------------------------------------------------
# SLO tracking
# ----------------------------------------------------------------------


class TestSLOTracker:
    def test_idle_tracker_is_vacuously_healthy(self):
        snapshot = SLOTracker().snapshot()
        assert snapshot["healthy"]
        assert snapshot["observed"] == 0
        for objective in snapshot["objectives"]:
            assert objective["compliance"] == 1.0
            assert objective["budget_remaining"] == 1.0

    def test_availability_breach_marks_unhealthy(self):
        tracker = SLOTracker(
            objectives=[SLObjective(name="availability", target=0.99)],
            window=100,
        )
        for _ in range(95):
            tracker.observe(0.001, ok=True)
        for _ in range(5):
            tracker.observe(0.001, ok=False)
        snapshot = tracker.snapshot()
        assert not snapshot["healthy"]
        objective = snapshot["objectives"][0]
        assert objective["compliance"] == pytest.approx(0.95)
        assert objective["budget_remaining"] == 0.0

    def test_latency_objective_ignores_ok(self):
        tracker = SLOTracker(
            objectives=[
                SLObjective(
                    name="latency-10ms",
                    target=0.5,
                    latency_threshold_seconds=0.010,
                )
            ],
            window=10,
        )
        tracker.observe(0.001, ok=False)  # fast but degraded: compliant
        tracker.observe(0.500, ok=True)  # slow but ok: non-compliant
        objective = tracker.snapshot()["objectives"][0]
        assert objective["compliance"] == pytest.approx(0.5)

    def test_window_evicts_old_observations(self):
        tracker = SLOTracker(
            objectives=[SLObjective(name="availability", target=0.5)],
            window=4,
        )
        for _ in range(4):
            tracker.observe(0.001, ok=False)
        assert not tracker.snapshot()["healthy"]
        for _ in range(4):
            tracker.observe(0.001, ok=True)
        snapshot = tracker.snapshot()
        assert snapshot["healthy"]
        assert snapshot["objectives"][0]["compliance"] == 1.0
        assert snapshot["observed"] == 8

    def test_reset(self):
        tracker = SLOTracker()
        tracker.observe(0.001, ok=False)
        tracker.reset()
        assert tracker.observed == 0
        assert tracker.snapshot()["healthy"]

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="target"):
            SLObjective(name="bad", target=1.0)
        with pytest.raises(ConfigurationError, match="threshold"):
            SLObjective(
                name="bad", target=0.5, latency_threshold_seconds=0.0
            )
        with pytest.raises(ConfigurationError, match="window"):
            SLOTracker(window=0)
        with pytest.raises(ConfigurationError, match=">= 1 objective"):
            SLOTracker(objectives=[])
        with pytest.raises(ConfigurationError, match="duplicate"):
            SLOTracker(
                objectives=[
                    SLObjective(name="a", target=0.9),
                    SLObjective(name="a", target=0.8),
                ]
            )

    def test_default_objectives(self):
        names = [o.name for o in default_objectives()]
        assert names == ["availability", "latency-100ms"]

    def test_service_surfaces_slo_in_health(self, fast_trace):
        instance = build_scenario(FAST_SCENARIO, 0)
        service = AllocationService(instance.scene)
        tracker = SLOTracker()
        service.attach_slo(tracker)
        service.handle_batch(
            [r.request() for r in fast_trace.records[:4]]
        )
        health = service.health()
        assert health["slo"]["observed"] == 4
        assert health["slo"]["healthy"]

    def test_disabled_slo_health_is_unchanged(self, fast_trace):
        # No observer attached: health() must look exactly like the
        # pre-obs schema (no "slo" key) -- the opt-out path is free.
        instance = build_scenario(FAST_SCENARIO, 0)
        service = AllocationService(instance.scene)
        service.handle(fast_trace.records[0].request())
        assert "slo" not in service.health()


# ----------------------------------------------------------------------
# CLI contract: record -> replay -> perf diff
# ----------------------------------------------------------------------


class TestCli:
    def test_record_replay_diff_round_trip(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        trace = tmp_path / "fast.trace.jsonl"
        ledger = tmp_path / "ledger.json"
        assert cli_main(
            ["record", FAST_SCENARIO, "--output", str(trace)]
        ) == 0
        capsys.readouterr()  # drain the record summary
        assert cli_main(
            ["replay", str(trace), "--ledger", str(ledger), "--json", "-"]
        ) == 0
        payload = json.loads(
            capsys.readouterr().out.split("\nlabel")[0]
        )
        assert payload["served"] + payload["shed"] == 30
        # Diffing a ledger against itself is a zero-delta pass.
        assert cli_main(["perf", "diff", str(ledger), str(ledger)]) == 0

    def test_replay_missing_trace_is_usage_error(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        missing = tmp_path / "missing.trace.jsonl"
        assert cli_main(["replay", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_perf_diff_missing_ledger_is_usage_error(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        ledger = tmp_path / "ledger.json"
        append_to_ledger(
            PerfReport(
                label="service:x",
                target="service",
                scenario="x",
                seed=0,
                mode="closed",
                requests=1,
                served=1,
                shed=0,
                duration_seconds=1.0,
                requests_per_second=1.0,
                p50_latency_ms=1.0,
                p95_latency_ms=1.0,
                p99_latency_ms=1.0,
                stream_digest="d" * 32,
            ),
            str(ledger),
        )
        missing = tmp_path / "missing.json"
        assert cli_main(["perf", "diff", str(missing), str(ledger)]) == 2
        assert "baseline ledger" in capsys.readouterr().err
        assert cli_main(["perf", "diff", str(ledger), str(missing)]) == 2
        assert "candidate ledger" in capsys.readouterr().err
