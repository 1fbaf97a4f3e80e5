"""Tests for the unified telemetry bus and its subscribers."""

import io
import json

import pytest

from repro.apps import biquad_filter
from repro.cli import main
from repro.flow import FlowOptions, synthesize
from repro.instrument import (
    CATEGORIES,
    CATEGORY_CACHE,
    CATEGORY_EXPLOG,
    CATEGORY_LIFECYCLE,
    CATEGORY_METRIC,
    CATEGORY_RECOVERY,
    CATEGORY_SPAN,
    JsonlSink,
    ProgressRenderer,
    RingBuffer,
    TelemetryBus,
    TelemetryEvent,
    active_bus,
    current_run_id,
    disable_telemetry,
    enable_telemetry,
    new_run_id,
    run_scope,
    telemetry,
)
from repro.instrument.events import UNSCOPED_RUN


@pytest.fixture(autouse=True)
def clean_bus():
    """No process-wide bus leaks into (or out of) these tests."""
    previous = disable_telemetry()
    yield
    disable_telemetry()
    if previous is not None:
        enable_telemetry(previous)


class TestTelemetryBus:
    def test_publish_assigns_per_run_monotonic_seq(self):
        bus = TelemetryBus()
        with run_scope("run-a"):
            e0 = bus.publish(CATEGORY_SPAN, {"n": 0})
            e1 = bus.publish(CATEGORY_SPAN, {"n": 1})
        with run_scope("run-b"):
            e2 = bus.publish(CATEGORY_SPAN, {"n": 2})
        assert (e0.run_id, e0.seq) == ("run-a", 0)
        assert (e1.run_id, e1.seq) == ("run-a", 1)
        assert (e2.run_id, e2.seq) == ("run-b", 0)
        assert bus.last_seq("run-a") == 2
        assert bus.last_seq("run-b") == 1

    def test_unscoped_publishes_use_the_sentinel_run(self):
        bus = TelemetryBus()
        assert current_run_id() is None
        event = bus.publish(CATEGORY_METRIC, {})
        assert event.run_id == UNSCOPED_RUN

    def test_explicit_run_id_wins(self):
        bus = TelemetryBus()
        with run_scope("scoped"):
            event = bus.publish(CATEGORY_METRIC, {}, run_id="explicit")
        assert event.run_id == "explicit"

    def test_subscribers_see_events_in_seq_order(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        with run_scope("r"):
            for n in range(5):
                bus.publish(CATEGORY_METRIC, {"n": n})
        assert [e.seq for e in seen] == [0, 1, 2, 3, 4]
        assert [e.payload["n"] for e in seen] == [0, 1, 2, 3, 4]

    def test_unsubscribe(self):
        bus = TelemetryBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish(CATEGORY_METRIC, {})
        bus.unsubscribe(seen.append)  # different bound object: no-op
        bus.unsubscribe(seen.append)
        # Remove the actual subscriber.
        bus._subscribers.clear()
        bus.publish(CATEGORY_METRIC, {})
        assert len(seen) >= 1

    def test_raising_subscriber_is_counted_not_propagated(self):
        bus = TelemetryBus()
        good = []

        def bad(event):
            raise RuntimeError("boom")

        bus.subscribe(bad)
        bus.subscribe(good.append)
        bus.publish(CATEGORY_SPAN, {})
        bus.publish(CATEGORY_SPAN, {})
        assert bus.errors == 2
        assert len(good) == 2  # the healthy subscriber kept receiving

    def test_counts_and_published(self):
        bus = TelemetryBus()
        bus.publish(CATEGORY_SPAN, {})
        bus.publish(CATEGORY_SPAN, {})
        bus.publish(CATEGORY_CACHE, {})
        assert bus.counts == {CATEGORY_SPAN: 2, CATEGORY_CACHE: 1}
        assert bus.published() == 3

    def test_event_json_round_trip(self):
        event = TelemetryEvent(
            run_id="r", seq=3, ts=1.5, category=CATEGORY_LIFECYCLE,
            payload={"kind": "run", "obj": object()},
        )
        loaded = json.loads(event.to_json())
        assert loaded["run_id"] == "r"
        assert loaded["seq"] == 3
        assert isinstance(loaded["payload"]["obj"], str)  # coerced


class TestRunScope:
    def test_nested_scopes_restore(self):
        assert current_run_id() is None
        with run_scope("outer"):
            assert current_run_id() == "outer"
            with run_scope("inner"):
                assert current_run_id() == "inner"
            assert current_run_id() == "outer"
        assert current_run_id() is None

    def test_new_run_id_is_unique_and_short(self):
        ids = {new_run_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 12 for i in ids)


class TestActivation:
    def test_enable_disable(self):
        assert active_bus() is None
        bus = enable_telemetry()
        assert active_bus() is bus
        assert disable_telemetry() is bus
        assert active_bus() is None

    def test_context_manager_restores_previous(self):
        outer = enable_telemetry()
        with telemetry() as inner:
            assert active_bus() is inner
        assert active_bus() is outer
        disable_telemetry()


class TestSubscribers:
    def _event(self, seq=0, payload=None, category=CATEGORY_LIFECYCLE):
        return TelemetryEvent(
            run_id="r", seq=seq, ts=0.0, category=category,
            payload=payload or {},
        )

    def test_jsonl_sink_writes_one_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(str(path)) as sink:
            sink(self._event(seq=0))
            sink(self._event(seq=1))
            assert sink.written == 2
        lines = path.read_text().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [0, 1]

    def test_jsonl_sink_on_open_stream(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink(self._event())
        sink.close()  # must not close a stream it does not own
        assert stream.getvalue().count("\n") == 1

    def test_ring_buffer_bounds_and_counts_drops(self):
        ring = RingBuffer(capacity=3)
        for n in range(5):
            ring(self._event(seq=n))
        assert len(ring) == 3
        assert ring.dropped == 2
        assert [e.seq for e in ring.events()] == [2, 3, 4]
        assert [e.seq for e in ring.drain()] == [2, 3, 4]
        assert len(ring) == 0

    def test_ring_buffer_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBuffer(capacity=0)

    def test_progress_renderer_tracks_lifecycle(self):
        stream = io.StringIO()
        progress = ProgressRenderer(stream=stream)
        for phase in ("queued", "queued", "started"):
            progress(self._event(payload={
                "kind": "file", "phase": phase, "file": "a.vhd",
            }))
        assert stream.getvalue() == ""  # nothing terminal yet
        progress(self._event(payload={
            "kind": "file", "phase": "ok", "file": "a.vhd",
        }))
        progress(self._event(payload={
            "kind": "file", "phase": "failed", "file": "b.vhd",
        }))
        out = stream.getvalue()
        assert "[1/2] OK" in out
        assert "[2/2] FAILED" in out
        assert "(ok 1, degraded 0, failed 1)" in out
        # Non-lifecycle and non-file events are ignored.
        progress(self._event(category=CATEGORY_SPAN))
        progress(self._event(payload={"kind": "run", "phase": "ok"}))
        assert progress.counts.done == 2


class TestBusStatsAndErrorMetric:
    def test_subscriber_errors_feed_the_metric(self):
        from repro.instrument import metrics

        registry = metrics()
        registry.reset()
        bus = TelemetryBus()

        def bad(event):
            raise RuntimeError("boom")

        bus.subscribe(bad)
        bus.publish(CATEGORY_SPAN, {})
        bus.publish(CATEGORY_SPAN, {})
        assert bus.errors == 2
        assert registry.counter("telemetry.subscriber_errors") == 2
        # The increment must not publish back onto the bus — that
        # would recurse through the failing subscriber forever.
        assert bus.published() == 2
        registry.reset()

    def test_stats_and_repr(self):
        bus = TelemetryBus()
        bus.subscribe(lambda event: None)
        with run_scope("run-x"):
            bus.publish(CATEGORY_SPAN, {})
            bus.publish(CATEGORY_CACHE, {})
        stats = bus.stats()
        assert stats["published"] == 2
        assert stats["counts"] == {CATEGORY_SPAN: 1, CATEGORY_CACHE: 1}
        assert stats["runs"] == 1
        assert stats["subscribers"] == 1
        assert stats["subscriber_errors"] == 0
        assert repr(bus) == (
            "<TelemetryBus subscribers=1 published=2 runs=1 errors=0>"
        )


class TestJsonlSinkFlushPolicy:
    def _event(self, seq=0):
        return TelemetryEvent(
            run_id="r", seq=seq, ts=0.0, category=CATEGORY_SPAN,
            payload={},
        )

    def test_default_flushes_every_event(self):
        sink = JsonlSink(io.StringIO())
        assert sink.flush_every == 1
        sink(self._event(0))
        sink(self._event(1))
        assert sink.flushes == 2
        sink.close()

    def test_flush_every_batches(self):
        sink = JsonlSink(io.StringIO(), flush_every=3)
        for seq in range(7):
            sink(self._event(seq))
        assert sink.flushes == 2  # after events 3 and 6
        sink.close()  # the pending 7th event flushes on close
        assert sink.flushes == 3

    def test_unflushed_lines_still_written_on_close(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path), flush_every=1000)
        for seq in range(5):
            sink(self._event(seq))
        assert sink.flushes == 0
        sink.close()
        assert len(path.read_text().splitlines()) == 5

    def test_rejects_bad_flush_every(self):
        with pytest.raises(ValueError):
            JsonlSink(io.StringIO(), flush_every=0)


class TestFlowIntegration:
    def test_one_run_emits_every_channel_with_one_run_id(self):
        bus = TelemetryBus()
        ring = RingBuffer(capacity=100_000)
        bus.subscribe(ring)
        result = synthesize(
            biquad_filter.VASS_SOURCE,
            options=FlowOptions(telemetry=bus),
        )
        events = ring.events()
        categories = {e.category for e in events}
        # The acceptance criterion: span, metric, explog, cache and
        # lifecycle events on one bus (recovery appears only when the
        # ladder actually climbs).
        assert {
            CATEGORY_SPAN, CATEGORY_METRIC, CATEGORY_EXPLOG,
            CATEGORY_CACHE, CATEGORY_LIFECYCLE,
        } <= categories
        assert categories <= set(CATEGORIES)
        assert {e.run_id for e in events} == {result.run_id}
        assert [e.seq for e in events] == list(range(len(events)))
        # The run bus also switched the tracer/explog on for the run.
        assert result.trace is not None
        assert result.explog is not None
        # ... and deactivated everything afterwards.
        assert active_bus() is None

    def test_lifecycle_run_events_bracket_the_stream(self):
        bus = TelemetryBus()
        ring = RingBuffer(capacity=100_000)
        bus.subscribe(ring)
        synthesize(
            biquad_filter.VASS_SOURCE,
            options=FlowOptions(telemetry=bus),
        )
        events = ring.events()
        runs = [
            e for e in events
            if e.category == CATEGORY_LIFECYCLE
            and e.payload.get("kind") == "run"
        ]
        assert runs[0].payload["phase"] == "started"
        assert runs[-1].payload["phase"] == "finished"
        assert runs[-1].payload["status"] == "ok"
        assert runs[0] is events[0]
        assert runs[-1] is events[-1]

    def test_failed_run_publishes_failed_lifecycle(self):
        from repro.diagnostics import SynthesisError
        from repro.estimation import ConstraintSet

        bus = TelemetryBus()
        ring = RingBuffer(capacity=100_000)
        bus.subscribe(ring)
        with pytest.raises(SynthesisError):
            synthesize(
                biquad_filter.VASS_SOURCE,
                options=FlowOptions(
                    telemetry=bus,
                    constraints=ConstraintSet(max_opamps=1),
                ),
            )
        finished = [
            e for e in ring.events()
            if e.category == CATEGORY_LIFECYCLE
            and e.payload.get("phase") == "finished"
        ]
        assert finished
        assert finished[-1].payload["status"] == "failed"
        assert active_bus() is None

    def test_recovery_events_reach_the_bus(self):
        from repro.robust.recovery import OUTCOME_FAILED, RecoveryLog

        with telemetry() as bus:
            ring = RingBuffer()
            bus.subscribe(ring)
            with run_scope("r"):
                RecoveryLog().record(
                    "baseline", "mapping", OUTCOME_FAILED, "nope",
                )
        (event,) = ring.events()
        assert event.category == CATEGORY_RECOVERY
        assert event.payload["rung"] == "baseline"
        assert event.payload["outcome"] == OUTCOME_FAILED
        assert event.payload["attempt"] == 1

    def test_joining_an_active_bus_does_not_autotrace(self):
        # When a bus is already active process-wide, the flow's events
        # join it but the FlowOptions.telemetry auto-enable of
        # tracer/explog must not kick in.
        with telemetry() as bus:
            ring = RingBuffer(capacity=100_000)
            bus.subscribe(ring)
            result = synthesize(
                biquad_filter.VASS_SOURCE,
                options=FlowOptions(telemetry=TelemetryBus()),
            )
        assert result.trace is None
        assert result.explog is None
        assert len(ring.events()) > 0

    def test_no_bus_means_no_run_id_cost(self):
        result = synthesize(biquad_filter.VASS_SOURCE)
        # A run id is always established (the ledger needs one even
        # without a bus), but no tracer/explog is forced on.
        assert result.run_id
        assert result.trace is None
        assert result.explog is None


class TestSynthEventsCli:
    def test_synth_events_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "run.events.jsonl"
        assert main([
            "synth", "biquad_filter", "--events", str(path), "--no-ledger",
        ]) == 0
        err = capsys.readouterr().err
        assert "telemetry:" in err
        events = [
            json.loads(line)
            for line in path.read_text().splitlines() if line
        ]
        assert events
        for event in events:
            assert set(event) == {"run_id", "seq", "ts", "category",
                                  "payload"}
        assert {e["category"] for e in events} >= {
            "span", "metric", "explog", "cache", "lifecycle",
        }
        assert len({e["run_id"] for e in events}) == 1
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_synth_events_does_not_print_timing_tree(self, tmp_path,
                                                     capsys):
        # --events turns the tracer on internally; the timing tree must
        # still be opt-in via --trace.
        assert main([
            "synth", "biquad_filter",
            "--events", str(tmp_path / "e.jsonl"), "--no-ledger",
        ]) == 0
        out = capsys.readouterr().out
        assert "timing tree:" not in out

    def test_batch_progress_renders_per_file_lines(self, tmp_path,
                                                   capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "ok.vhd").write_text(biquad_filter.VASS_SOURCE)
        assert main([
            "batch", str(corpus), "--progress", "--no-ledger",
        ]) == 0
        err = capsys.readouterr().err
        assert "[1/1] OK" in err
        assert "ok.vhd" in err
