"""Thread-safety of the telemetry bus under real worker pools.

Satellite coverage: (a) hammering one bus from many threads loses no
events, duplicates none, and keeps every run's sequence numbers dense
and strictly increasing; (b) a parallel thread-backend batch publishes the
same *set* of per-file lifecycle events as the serial run (order across
files is scheduler-dependent, so the comparison is order-insensitive).
"""

import threading
from pathlib import Path

import pytest

from repro.apps import ALL_APPLICATIONS
from repro.instrument import (
    CATEGORY_LIFECYCLE,
    CATEGORY_METRIC,
    RingBuffer,
    TelemetryBus,
    disable_telemetry,
    enable_telemetry,
    run_scope,
    telemetry,
)
from repro.instrument.metrics import MetricsRegistry
from repro.pipeline import ParallelOptions, Task, ThreadExecutor
from repro.robust.batch import find_sources, run_batch

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

BROKEN = """
entity broken is
  port (quantity u : in real
end entity
"""


@pytest.fixture(autouse=True)
def clean_bus():
    previous = disable_telemetry()
    yield
    disable_telemetry()
    if previous is not None:
        enable_telemetry(previous)


@pytest.fixture
def corpus(tmp_path):
    """Two good designs and one with syntax errors."""
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "a_biquad.vhd").write_text(
        (EXAMPLES / "biquad.vhd").read_text()
    )
    (root / "b_power_meter.vhd").write_text(
        ALL_APPLICATIONS["power_meter"].VASS_SOURCE
    )
    (root / "c_broken.vhd").write_text(BROKEN)
    return root


class TestBusUnderThreads:
    WORKERS = 8
    PER_WORKER = 200

    def test_no_lost_or_duplicate_events_single_run(self):
        """All workers publish under one run id: the sequence must be
        dense (0..N-1), and every payload must arrive exactly once."""
        bus = TelemetryBus()
        ring = RingBuffer(capacity=self.WORKERS * self.PER_WORKER + 16)
        bus.subscribe(ring)
        barrier = threading.Barrier(self.WORKERS, timeout=10.0)

        def worker(wid):
            def run():
                with run_scope("shared-run"):
                    barrier.wait()
                    for n in range(self.PER_WORKER):
                        bus.publish(
                            CATEGORY_METRIC, {"worker": wid, "n": n}
                        )
                return wid
            return run

        with ThreadExecutor(self.WORKERS) as pool:
            pool.map_ordered([Task(worker(w)) for w in range(self.WORKERS)])
        events = ring.events()
        total = self.WORKERS * self.PER_WORKER
        assert len(events) == total
        assert ring.dropped == 0
        assert bus.errors == 0
        # Dense, strictly increasing sequence for the run.
        assert sorted(e.seq for e in events) == list(range(total))
        # Delivery order equals sequence order (dispatch happens under
        # the same lock that assigns the number).
        assert [e.seq for e in events] == list(range(total))
        # Exactly-once delivery of every (worker, n) payload.
        payloads = {(e.payload["worker"], e.payload["n"]) for e in events}
        assert len(payloads) == total

    def test_per_run_sequences_stay_independent(self):
        """Each worker under its own run id gets its own dense 0..N-1."""
        bus = TelemetryBus()
        ring = RingBuffer(capacity=self.WORKERS * self.PER_WORKER + 16)
        bus.subscribe(ring)

        def worker(wid):
            def run():
                with run_scope(f"run-{wid}"):
                    for n in range(self.PER_WORKER):
                        bus.publish(CATEGORY_METRIC, {"n": n})
                return wid
            return run

        with ThreadExecutor(self.WORKERS) as pool:
            pool.map_ordered([Task(worker(w)) for w in range(self.WORKERS)])
        by_run = {}
        for event in ring.events():
            by_run.setdefault(event.run_id, []).append(event.seq)
        assert len(by_run) == self.WORKERS
        for seqs in by_run.values():
            assert sorted(seqs) == list(range(self.PER_WORKER))

    def test_metrics_registry_publishes_safely_from_threads(self):
        """Counter increments from many threads reach both the registry
        and the bus without losing updates."""
        registry = MetricsRegistry()
        with telemetry() as bus:
            # Two events (counter delta + histogram value) per iteration.
            ring = RingBuffer(
                capacity=2 * self.WORKERS * self.PER_WORKER + 16
            )
            bus.subscribe(ring)

            def worker(wid):
                def run():
                    with run_scope("metrics-run"):
                        for _ in range(self.PER_WORKER):
                            registry.inc("hammer.count")
                            registry.observe("hammer.value_s", 0.5)
                    return wid
                return run

            with ThreadExecutor(self.WORKERS) as pool:
                pool.map_ordered(
                    [Task(worker(w)) for w in range(self.WORKERS)]
                )
        total = self.WORKERS * self.PER_WORKER
        snapshot = registry.snapshot()
        assert snapshot["counters"]["hammer.count"] == total
        assert snapshot["histograms"]["hammer.value_s"]["count"] == total
        deltas = [
            e for e in ring.events()
            if e.payload.get("name") == "hammer.count"
        ]
        assert len(deltas) == total
        assert sum(e.payload["delta"] for e in deltas) == total


class TestSerialVsParallelBatch:
    def _lifecycle(self, corpus, workers):
        """Run the batch on a fresh bus; return its lifecycle events."""
        bus = TelemetryBus()
        ring = RingBuffer(capacity=100_000)
        bus.subscribe(ring)
        parallel = ParallelOptions(
            executor="thread" if workers > 1 else "serial",
            workers=workers,
        )
        with telemetry(bus):
            report = run_batch(find_sources(corpus), parallel=parallel)
        events = [
            e for e in ring.events()
            if e.category == CATEGORY_LIFECYCLE
            and e.payload.get("kind") == "file"
        ]
        return report, events

    def test_same_event_set_regardless_of_jobs(self, corpus):
        serial_report, serial = self._lifecycle(corpus, workers=1)
        parallel_report, parallel = self._lifecycle(corpus, workers=4)

        def key_set(events):
            return {
                (Path(e.payload["file"]).name, e.payload["phase"])
                for e in events
            }

        assert key_set(serial) == key_set(parallel)
        # Every file goes queued -> started -> terminal in both runs.
        for events in (serial, parallel):
            phases = {}
            for e in events:
                phases.setdefault(
                    Path(e.payload["file"]).name, []
                ).append(e.payload["phase"])
            assert set(phases) == {
                "a_biquad.vhd", "b_power_meter.vhd", "c_broken.vhd",
            }
            for name, seen in phases.items():
                assert seen[0] == "queued"
                assert "started" in seen
                assert len(seen) == 3
                terminal = seen[-1]
                expected = (
                    "failed" if name == "c_broken.vhd" else ("ok",
                                                             "degraded")
                )
                assert terminal in expected
        # And the reports agree on the outcome tallies.
        assert (serial_report.ok, serial_report.degraded,
                serial_report.failed) == (
            parallel_report.ok, parallel_report.degraded,
            parallel_report.failed,
        )

    def test_batch_shares_one_run_id_across_workers(self, corpus):
        _report, events = self._lifecycle(corpus, workers=4)
        assert len({e.run_id for e in events}) == 1
        seqs = sorted(e.seq for e in events)
        assert seqs == sorted(set(seqs))  # no duplicated seq numbers
