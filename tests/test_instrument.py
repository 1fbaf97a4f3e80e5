"""Tests for the observability subsystem (tracer, metrics, profiling).

Covers the ISSUE-1 acceptance criteria: span nesting, the
near-zero-overhead disabled mode, Chrome trace-event JSON validity,
the metrics registry, the ``FlowOptions.trace`` knob, the CLI flags
(``vase synth --trace`` / ``--trace-json`` / ``vase profile``) and the
tracing-disabled overhead regression on the biquad flow.
"""

import json
import time

import pytest

from repro.apps import biquad_filter
from repro.cli import main
from repro.flow import FlowOptions, synthesize
from repro.instrument import (
    MetricsRegistry,
    Tracer,
    active_tracer,
    metrics,
    profile_flow,
    trace_phase,
    tracing,
)
from repro.instrument.tracer import NULL_SPAN


class TestTracer:
    def test_span_nesting(self):
        tracer = Tracer()
        with tracing(tracer):
            with trace_phase("outer"):
                with trace_phase("inner_a"):
                    pass
                with trace_phase("inner_b"):
                    with trace_phase("leaf"):
                        pass
        assert [s.name for s in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]
        # Child durations are contained in the parent's.
        assert outer.duration_s >= sum(c.duration_s for c in outer.children)
        assert outer.self_time_s >= 0.0

    def test_annotations_recorded(self):
        with tracing() as tracer:
            with trace_phase("work", kind="test") as span:
                span.annotate(items=3)
        span = tracer.roots[0]
        assert span.attrs == {"kind": "test", "items": 3}

    def test_exception_closes_dangling_spans(self):
        tracer = Tracer()
        with tracing(tracer):
            with pytest.raises(RuntimeError):
                with trace_phase("outer"):
                    inner = trace_phase("inner")
                    inner.__enter__()
                    raise RuntimeError("boom")
        outer = tracer.roots[0]
        assert outer.duration_s > 0
        assert outer.children[0].duration_s > 0
        assert tracer._stack == []

    def test_disabled_returns_shared_null_span(self):
        assert active_tracer() is None
        assert trace_phase("anything") is NULL_SPAN
        with trace_phase("anything") as span:
            span.annotate(ignored=True)  # must be a no-op, not an error

    def test_disabled_mode_overhead_is_tiny(self):
        n = 100_000
        start = time.perf_counter()
        for _ in range(n):
            with trace_phase("hot"):
                pass
        per_call = (time.perf_counter() - start) / n
        # The null path is a global load + context-manager protocol;
        # even slow CI machines do that well under 5 microseconds.
        assert per_call < 5e-6

    def test_nested_tracing_restores_previous(self):
        with tracing() as outer:
            with tracing() as inner:
                assert active_tracer() is inner
            assert active_tracer() is outer
        assert active_tracer() is None

    def test_format_tree(self):
        with tracing() as tracer:
            with trace_phase("a"):
                with trace_phase("b") as span:
                    span.annotate(count=7)
        tree = tracer.format_tree()
        assert "a" in tree and "b" in tree
        assert "ms" in tree
        assert "count=7" in tree
        # The child renders indented under the root.
        lines = tree.splitlines()
        assert lines[1].startswith("`- b") or "`- b" in lines[1]

    def test_find(self):
        with tracing() as tracer:
            with trace_phase("x"):
                with trace_phase("y"):
                    pass
                with trace_phase("y"):
                    pass
        assert len(tracer.find("y")) == 2
        assert tracer.find("missing") == []


class TestChromeTrace:
    def test_export_is_valid_json_with_complete_events(self):
        with tracing() as tracer:
            with trace_phase("root", design="d"):
                with trace_phase("child"):
                    pass
        document = json.loads(tracer.chrome_json(metadata={"run": "test"}))
        events = document["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "ts", "dur", "pid", "tid", "args"}
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
        root = next(e for e in events if e["name"] == "root")
        child = next(e for e in events if e["name"] == "child")
        # The child event nests inside the root on the timeline.
        assert child["ts"] >= root["ts"]
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1e-3
        assert root["args"]["design"] == "d"
        assert document["otherData"]["run"] == "test"

    def test_non_jsonable_attrs_coerced(self):
        with tracing() as tracer:
            with trace_phase("p", obj=object()):
                pass
        document = json.loads(tracer.chrome_json())
        assert isinstance(document["traceEvents"][0]["args"]["obj"], str)


class TestMetricsRegistry:
    def test_counters(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        assert registry.counter("a") == 5
        assert registry.counter("missing") == 0

    def test_gauges_and_histograms(self):
        registry = MetricsRegistry()
        registry.gauge("g", 2.5)
        registry.observe("h", 1.0)
        registry.observe("h", 3.0)
        assert registry.gauge_value("g") == 2.5
        histogram = registry.histogram("h")
        assert histogram.count == 2
        assert histogram.mean == 2.0
        assert histogram.min == 1.0 and histogram.max == 3.0

    def test_disable_stops_publishing(self):
        registry = MetricsRegistry()
        registry.disable()
        registry.inc("a")
        registry.gauge("g", 1.0)
        registry.observe("h", 1.0)
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        registry.enable()
        registry.inc("a")
        assert registry.counter("a") == 1

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.gauge("g", 1.5)
        registry.observe("h", 4.0)
        parsed = json.loads(json.dumps(registry.snapshot()))
        assert parsed["counters"]["c"] == 2
        assert parsed["histograms"]["h"]["count"] == 1

    def test_format_table(self):
        registry = MetricsRegistry()
        registry.inc("some.counter", 3)
        registry.observe("some.histogram", 2.0)
        table = registry.format_table()
        assert "some.counter" in table
        assert "some.histogram" in table

    def test_from_json_table_matches_the_live_table(
        self, tmp_path, capsys
    ):
        """``vase metrics --from-json`` and the live registry render
        one snapshot through the same function, min/max included."""
        registry = MetricsRegistry()
        registry.inc("some.counter", 3)
        registry.gauge("some.gauge", 1.5)
        registry.observe("some.histogram", 2.0)
        registry.observe("some.histogram", 0.25)
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(registry.snapshot()))
        assert main(["metrics", "--from-json", str(path)]) == 0
        printed = capsys.readouterr().out
        assert printed == registry.format_table() + "\n"
        assert "min 0.25, max 2" in printed


class TestHistogramReservoir:
    def test_snapshot_reports_p50_and_p95(self):
        registry = MetricsRegistry()
        for value in range(1, 101):  # 1..100
            registry.observe("h", float(value))
        snap = registry.snapshot()["histograms"]["h"]
        assert snap["count"] == 100
        # Below the reservoir bound the quantiles are exact
        # (nearest-rank on every observed value).
        assert snap["p50"] == 50.0
        assert snap["p95"] == 95.0

    def test_empty_histogram_snapshot_shape_unchanged(self):
        registry = MetricsRegistry()
        registry.observe("h", 1.0)
        registry.histogram("h").count = 0  # simulate an empty histogram
        from repro.instrument.metrics import Histogram

        assert Histogram().snapshot() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
        }

    def test_reservoir_is_bounded_and_deterministic(self):
        from repro.instrument.metrics import RESERVOIR_SIZE, Histogram

        def fill():
            histogram = Histogram()
            for value in range(10 * RESERVOIR_SIZE):
                histogram.observe(float(value))
            return histogram

        first, second = fill(), fill()
        assert len(first._reservoir) == RESERVOIR_SIZE
        # Seeded sampling: two identical streams sample identically.
        assert first._reservoir == second._reservoir
        assert first.quantile(0.5) == second.quantile(0.5)

    def test_quantiles_are_approximate_beyond_the_bound(self):
        from repro.instrument.metrics import RESERVOIR_SIZE, Histogram

        histogram = Histogram()
        total = 20 * RESERVOIR_SIZE
        for value in range(total):
            histogram.observe(float(value))
        # Algorithm R keeps a uniform sample, so the estimates stay
        # within a loose band of the true quantiles.
        assert abs(histogram.quantile(0.5) - total / 2) < total * 0.15
        assert histogram.quantile(0.95) > total * 0.8


class TestFlowTracing:
    def test_trace_knob_collects_phase_tree(self):
        result = synthesize(
            biquad_filter.VASS_SOURCE, options=FlowOptions(trace=True)
        )
        assert result.trace is not None
        names = {s.name for s in result.trace.find("synthesize")}
        assert names == {"synthesize"}
        for phase in ("compile", "map", "estimate"):
            assert result.trace.find(phase), f"missing phase {phase}"
        # The mapper annotates its span with search counters.
        map_span = result.trace.find("map")[0]
        assert map_span.attrs["nodes_visited"] > 0
        assert "truncated" in map_span.attrs
        # Tracing is deactivated again after the flow.
        assert active_tracer() is None

    def test_trace_off_by_default(self):
        result = synthesize(biquad_filter.VASS_SOURCE)
        assert result.trace is None

    def test_flow_joins_active_tracer(self):
        with tracing() as tracer:
            result = synthesize(biquad_filter.VASS_SOURCE)
        assert result.trace is tracer
        assert tracer.find("synthesize")

    def test_flow_publishes_metrics(self):
        registry = metrics()
        before = registry.counter("mapper.nodes_visited")
        result = synthesize(biquad_filter.VASS_SOURCE)
        after = registry.counter("mapper.nodes_visited")
        assert after - before == result.mapping.statistics.nodes_visited
        assert registry.counter("patterns.candidate_calls") > 0
        assert registry.counter("estimator.instance_estimates") > 0
        assert registry.counter("frontend.lexer.tokens") > 0
        assert registry.counter("frontend.parser.ast_nodes") > 0

    def test_tracing_disabled_overhead_under_5_percent(self):
        """ISSUE-1 acceptance: the instrumented flow with tracing
        disabled stays within 5% of an uninstrumented-equivalent run
        (metrics publishing switched off) on the biquad flow."""

        def best_time(repeats=7):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                synthesize(biquad_filter.VASS_SOURCE)
                best = min(best, time.perf_counter() - start)
            return best

        registry = metrics()
        synthesize(biquad_filter.VASS_SOURCE)  # warm-up
        try:
            registry.disable()
            baseline = best_time()
            registry.enable()
            measured = best_time()
        finally:
            registry.enable()
        # 5% relative budget plus a small absolute epsilon so scheduler
        # noise on a ~10 ms flow cannot flake the assertion.
        assert measured <= baseline * 1.05 + 2e-3, (
            f"tracing-disabled flow took {measured * 1e3:.2f} ms vs "
            f"baseline {baseline * 1e3:.2f} ms"
        )


class TestProfileFlow:
    def test_profile_aggregates_phases(self):
        report = profile_flow(biquad_filter.VASS_SOURCE, repeat=2)
        assert report.design == "biquad_filter"
        assert report.repeat == 2
        by_name = {p.name: p for p in report.phases}
        assert by_name["synthesize"].calls == 2
        assert by_name["map"].depth == 1
        assert by_name["map"].min_s <= by_name["map"].mean_s <= by_name["map"].max_s
        assert report.metrics["counters"]["mapper.runs"] >= 2
        text = report.describe()
        assert "synthesize" in text and "mean" in text
        parsed = json.loads(report.to_json())
        assert parsed["repeat"] == 2
        assert parsed["phases"][0]["path"] == ["synthesize"]

    def test_profile_rejects_bad_repeat(self):
        with pytest.raises(ValueError):
            profile_flow(biquad_filter.VASS_SOURCE, repeat=0)


class TestCliTracing:
    def test_synth_trace_prints_timing_tree(self, capsys):
        assert main(["synth", "biquad_filter", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "timing tree:" in out
        assert "synthesize" in out
        assert "map" in out
        assert "nodes_visited=" in out
        assert "metrics:" in out

    def test_synth_trace_json_writes_valid_file(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main([
            "synth", "biquad_filter", "--trace-json", str(path)
        ]) == 0
        document = json.loads(path.read_text())
        assert document["traceEvents"]
        assert any(e["name"] == "synthesize" for e in document["traceEvents"])
        assert document["otherData"]["design"] == "biquad_filter"

    def test_synth_without_trace_has_no_tree(self, capsys):
        assert main(["synth", "biquad_filter"]) == 0
        out = capsys.readouterr().out
        assert "timing tree:" not in out
        assert "search:" in out

    def test_profile_subcommand(self, tmp_path, capsys):
        json_path = tmp_path / "profile.json"
        assert main([
            "profile", "biquad_filter", "--repeat", "2",
            "--json", str(json_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "profile of 'biquad_filter'" in out
        assert "mapper.nodes_visited" in out
        parsed = json.loads(json_path.read_text())
        assert parsed["design"] == "biquad_filter"
