"""Trace-correctness tests for repro.runtime.tracing.

Covers the tentpole guarantees: span-tree parent/child integrity
(including across the solver-pool process boundary), deterministic
trace/span ids under a fixed seed, Chrome-trace export schema
round-trip, sampling, bounded buffering -- and the regression that a
disabled tracer leaves allocation outputs bit-identical.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.scenarios import fig6_instances
from repro.runtime import (
    AllocationRequest,
    AllocationService,
    ServiceOptions,
    SolveTask,
    SolverPool,
    SpanRecorder,
    Tracer,
    TracingOptions,
    add_span_attributes,
    channel_matrix_stack,
    current_span,
    run_benchmark,
)
from repro.system import simulation_scene


@pytest.fixture(scope="module")
def placements():
    return fig6_instances(instances=5, seed=11)


@pytest.fixture(scope="module")
def scene(placements):
    return simulation_scene([(float(x), float(y)) for x, y in placements[0]])


def _request(placements, index, **kwargs):
    return AllocationRequest(
        rx_positions_xy=tuple(
            (float(x), float(y)) for x, y in placements[index]
        ),
        power_budget=kwargs.pop("power_budget", 1.2),
        **kwargs,
    )


def _span_index(spans):
    return {span.span_id: span for span in spans}


def assert_tree_integrity(spans):
    """Every non-root span links to a recorded parent in the same trace."""
    by_id = _span_index(spans)
    assert len(by_id) == len(spans), "span ids must be unique"
    for span in spans:
        assert span.trace_id, span.name
        assert span.end >= span.start
        if span.parent_id is not None:
            parent = by_id.get(span.parent_id)
            assert parent is not None, (span.name, span.parent_id)
            assert parent.trace_id == span.trace_id


class TestTracerCore:
    def test_options_validation(self):
        with pytest.raises(ConfigurationError):
            TracingOptions(sample_rate=1.5)
        with pytest.raises(ConfigurationError):
            TracingOptions(max_spans=0)

    def test_disabled_tracer_creates_nothing(self):
        tracer = Tracer.disabled()
        assert tracer.start_trace("request") is None
        with tracer.span("anything") as span:
            assert span is None
        assert tracer.finished_spans() == []

    def test_deterministic_ids_under_fixed_seed(self):
        def build(seed):
            tracer = Tracer(TracingOptions(seed=seed))
            root = tracer.start_trace("request", tag="a")
            child = tracer.start_span("stage", root)
            tracer.finish(child)
            tracer.finish(root)
            return [
                (s.name, s.trace_id, s.span_id, s.parent_id)
                for s in tracer.finished_spans()
            ]

        assert build(42) == build(42)
        assert build(42) != build(43)

    def test_sampling_is_deterministic_and_partial(self):
        tracer = Tracer(TracingOptions(sample_rate=0.5, seed=0))
        decisions = [tracer.start_trace("r") is not None for _ in range(64)]
        again = Tracer(TracingOptions(sample_rate=0.5, seed=0))
        repeat = [again.start_trace("r") is not None for _ in range(64)]
        assert decisions == repeat
        assert 0 < sum(decisions) < 64
        none_sampled = Tracer(TracingOptions(sample_rate=0.0))
        assert none_sampled.start_trace("r") is None

    def test_bounded_buffer_counts_drops(self):
        tracer = Tracer(TracingOptions(max_spans=4))
        for _ in range(6):
            tracer.finish(tracer.start_trace("r"))
        assert len(tracer.finished_spans()) == 4
        assert tracer.dropped_spans == 2

    def test_span_context_propagation(self):
        tracer = Tracer(TracingOptions(seed=5))
        with tracer.span("outer") as outer:
            assert current_span() is outer
            assert add_span_attributes(marker=1)
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        assert current_span() is None
        assert not add_span_attributes(ignored=True)
        assert outer.attributes["marker"] == 1


class TestRecorderPayload:
    def test_payload_reattaches_with_remapped_ids(self):
        recorder = SpanRecorder()
        with recorder.span("solve", solver="heuristic"):
            with recorder.span("nested"):
                pass
        payload = recorder.payload()
        assert [entry["name"] for entry in payload] == ["solve", "nested"]
        assert payload[1]["parent_id"] == payload[0]["span_id"]

        tracer = Tracer(TracingOptions(seed=1))
        root = tracer.start_trace("request")
        tracer.attach_payload(payload, root, base_time=100.0)
        tracer.finish(root)
        spans = tracer.finished_spans()
        assert_tree_integrity(spans)
        solve = next(s for s in spans if s.name == "solve")
        nested = next(s for s in spans if s.name == "nested")
        assert solve.parent_id == root.span_id
        assert nested.parent_id == solve.span_id
        assert solve.span_id not in {"r0", "r1"}
        assert solve.start >= 100.0

    def test_attach_is_per_trace_clone(self):
        recorder = SpanRecorder()
        with recorder.span("solve"):
            pass
        payload = recorder.payload()
        tracer = Tracer(TracingOptions(seed=2))
        first = tracer.start_trace("request")
        second = tracer.start_trace("request")
        tracer.attach_payload(payload, first)
        tracer.attach_payload(payload, second)
        tracer.finish(first)
        tracer.finish(second)
        solves = [s for s in tracer.finished_spans() if s.name == "solve"]
        assert len(solves) == 2
        assert solves[0].span_id != solves[1].span_id
        assert {s.trace_id for s in solves} == {
            first.trace_id,
            second.trace_id,
        }


class TestServiceTracing:
    def _service(self, scene, tracer):
        return AllocationService(scene, tracer=tracer)

    def test_request_span_tree_shape(self, scene, placements):
        tracer = Tracer(TracingOptions(seed=3))
        service = self._service(scene, tracer)
        service.handle_batch(
            [_request(placements, 0), _request(placements, 1)]
        )
        spans = tracer.finished_spans()
        assert_tree_integrity(spans)
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 2
        for root in roots:
            children = [s for s in spans if s.parent_id == root.span_id]
            names = {s.name for s in children}
            assert {"channel", "allocation", "throughput"} <= names
            assert "fingerprint" in root.attributes
            assert root.attributes["solver"] == "heuristic"
        channel = next(s for s in spans if s.name == "channel")
        assert channel.attributes["outcome"] in {
            "hit",
            "incremental",
            "computed",
        }
        cache = next(s for s in spans if s.name == "cache")
        assert cache.attributes["outcome"] in {"hit", "miss"}
        solve = next(s for s in spans if s.name == "solve")
        assert solve.attributes["solver"] == "heuristic"

    def test_cache_hit_trace_lacks_solve(self, scene, placements):
        tracer = Tracer(TracingOptions(seed=4))
        service = self._service(scene, tracer)
        service.handle(_request(placements, 0))
        service.handle(_request(placements, 0))
        spans = tracer.finished_spans()
        roots = [s for s in spans if s.parent_id is None]
        second_trace = roots[1].trace_id
        second = [s for s in spans if s.trace_id == second_trace]
        assert not any(s.name == "solve" for s in second)
        alloc = next(s for s in second if s.name == "allocation")
        assert alloc.attributes["cache_outcome"] == "hit"

    def test_batch_solve_spans_attach_under_allocation(
        self, scene, placements
    ):
        tracer = Tracer(TracingOptions(seed=6))
        service = self._service(scene, tracer)
        batch = [_request(placements, i) for i in range(3)]
        service.handle_batch(batch)
        spans = tracer.finished_spans()
        assert_tree_integrity(spans)
        solves = [s for s in spans if s.name == "solve"]
        assert len(solves) == 3
        by_id = _span_index(spans)
        for solve in solves:
            parent = by_id[solve.parent_id]
            assert parent.name == "allocation"
            grandparent = by_id[parent.parent_id]
            assert grandparent.name == "request"

    def test_deterministic_service_trace_ids(self, scene, placements):
        def trace_ids(seed):
            tracer = Tracer(TracingOptions(seed=seed))
            service = self._service(scene, tracer)
            service.handle_batch(
                [_request(placements, 0), _request(placements, 1)]
            )
            return [
                (s.name, s.trace_id, s.span_id)
                for s in tracer.finished_spans()
            ]

        assert trace_ids(9) == trace_ids(9)

    def test_disabled_tracing_bit_identical_results(self, scene, placements):
        plain = self._service(scene, Tracer.disabled())
        traced = self._service(scene, Tracer(TracingOptions(seed=8)))
        batch = [_request(placements, i % 3) for i in range(6)]
        plain_results = plain.handle_batch(batch)
        traced_results = traced.handle_batch(batch)
        for a, b in zip(plain_results, traced_results):
            assert np.array_equal(a.swings, b.swings)
            assert np.array_equal(a.per_rx_throughput, b.per_rx_throughput)
            assert a.system_throughput == b.system_throughput
            assert a.solver_used == b.solver_used

    def test_traced_pool_swings_match_untraced(self, scene, placements):
        positions = np.array(
            [(float(x), float(y)) for x, y in placements[0]]
        )
        channel = channel_matrix_stack(scene, positions[None, :, :])[0]
        pool = SolverPool()
        task = SolveTask(channel=channel, power_budget=1.2)
        plain = pool.solve_outcomes([task])[0]
        traced = pool.solve_outcomes([SolveTask(
            channel=channel, power_budget=1.2, traced=True
        )])[0]
        assert np.array_equal(plain.swings, traced.swings)
        assert plain.spans == ()
        assert [s["name"] for s in traced.spans] == ["solve"]

    def test_optimizer_introspection_lands_on_solve_span(
        self, scene, placements
    ):
        tracer = Tracer(TracingOptions(seed=12))
        service = self._service(scene, tracer)
        service.handle(_request(placements, 0, solver="optimal"))
        solve = next(
            s for s in tracer.finished_spans() if s.name == "solve"
        )
        assert solve.attributes["slsqp_iterations"] > 0
        assert len(solve.attributes["objective_trajectory"]) >= 1
        assert "reduction_k" in solve.attributes


class TestChromeTraceExport:
    def test_schema_round_trip(self, scene, placements, tmp_path):
        tracer = Tracer(TracingOptions(seed=21))
        service = AllocationService(scene, tracer=tracer)
        service.handle_batch(
            [_request(placements, 0), _request(placements, 1)]
        )
        path = tmp_path / "trace.json"
        document = tracer.export_chrome_trace(str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(document))
        assert loaded["displayTimeUnit"] == "ms"
        events = loaded["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete, "must contain complete events"
        for event in complete:
            assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid"}
            assert event["dur"] >= 0
            assert "trace_id" in event["args"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in metadata)
        # span ids in args reconstruct the same tree the tracer holds
        spans = {s.span_id: s for s in tracer.finished_spans()}
        for event in complete:
            span = spans[event["args"]["span_id"]]
            assert span.name == event["name"]
            assert event["args"].get("parent_id") == (
                span.parent_id if span.parent_id is not None else None
            )

    def test_event_log_lines_parse(self, tmp_path):
        tracer = Tracer(TracingOptions(seed=22))
        with tracer.span("request"):
            with tracer.span("stage"):
                pass
        path = tmp_path / "events.jsonl"
        lines = tracer.export_events(str(path))
        assert len(lines) == 2
        parsed = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert {entry["name"] for entry in parsed} == {"request", "stage"}
        for entry in parsed:
            assert entry["duration"] >= 0


class TestBenchTracing:
    def test_run_benchmark_with_tracer(self):
        tracer = Tracer(TracingOptions(seed=30))
        report = run_benchmark(
            requests=6, distinct_placements=2, seed=5, tracer=tracer
        )
        assert report.traced_spans == len(tracer.finished_spans()) > 0
        assert report.stage_breakdown
        for stats in report.stage_breakdown.values():
            assert stats["count"] >= 1
            assert stats["mean_ms"] >= 0.0
        payload = report.as_dict()
        assert payload["stage_breakdown"] == report.stage_breakdown

    def test_cli_bench_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        trace_path = tmp_path / "trace.json"
        prom_path = tmp_path / "metrics.prom"
        json_path = tmp_path / "bench.json"
        code = cli_main(
            [
                "bench",
                "--requests", "6",
                "--distinct", "2",
                "--trace", str(trace_path),
                "--metrics-prom", str(prom_path),
                "--json", str(json_path),
            ]
        )
        assert code == 0
        document = json.loads(trace_path.read_text())
        assert any(
            e.get("ph") == "X" for e in document["traceEvents"]
        )
        assert "repro_service_requests_total" in prom_path.read_text()
        report = json.loads(json_path.read_text())
        assert report["requests"] == 6
        out = capsys.readouterr().out
        assert "stage" in out

    def test_cli_metrics_subcommand(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["metrics", "--requests", "6", "--distinct", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_service_requests_total counter" in out
        assert 'repro_service_channel_outcomes_total{outcome=' in out
