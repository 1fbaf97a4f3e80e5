"""Tests for ``vase serve``: job queue, SSE streaming, /metrics."""

import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.apps import biquad_filter
from repro.flow import FlowOptions, synthesize
from repro.instrument import (
    RunLedger,
    TelemetryBus,
    disable_telemetry,
    enable_telemetry,
    validate_exposition,
)
from repro.pipeline import ArtifactCache
from repro.serve import (
    JobManager,
    JobOptionsError,
    QueueFullError,
    UnknownJobError,
    build_job_options,
    create_server,
    parse_sse,
    watch,
)
from repro.serve.queue import JobEventLog
from repro.serve.sse import format_comment, format_event, format_message

AMP = """
ENTITY amp IS
PORT (
  QUANTITY vin : IN real IS voltage;
  QUANTITY vout : OUT real IS voltage LIMITED AT 2.0 v
);
END ENTITY;
ARCHITECTURE behavioral OF amp IS
BEGIN
  vout == -5.0 * vin;
END ARCHITECTURE;
"""

BROKEN = """
ENTITY broken IS
PORT (
  QUANTITY vin : IN real IS voltage
  QUANTITY vout : OUT real IS voltage
);
END ENTITY;
ARCHITECTURE a OF broken IS
BEGIN
  vout == * vin;
END ARCHITECTURE;
"""


@pytest.fixture
def served(tmp_path):
    """A live server on an ephemeral port, with bus + ledger wired
    exactly as ``vase serve`` wires them."""
    previous = disable_telemetry()
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    options = FlowOptions(
        trace=True, explog=True, recovery=True, cache=ArtifactCache(),
        ledger=ledger,
    )
    manager = JobManager(options, workers=2)
    bus = TelemetryBus()
    bus.subscribe(manager.route)
    enable_telemetry(bus)
    server = create_server("127.0.0.1", 0, manager, heartbeat_s=0.2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield {
            "base": f"http://{host}:{port}",
            "manager": manager,
            "bus": bus,
            "ledger": ledger,
        }
    finally:
        server.shutdown()
        server.server_close()
        manager.stop(wait=True)
        thread.join(timeout=5)
        disable_telemetry()
        if previous is not None:
            enable_telemetry(previous)


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def _get_json(base, path):
    with urllib.request.urlopen(base + path) as response:
        return json.loads(response.read())


def _submit(base, source=AMP, **extra):
    status, body = _post(base, "/jobs", {"source": source, **extra})
    assert status == 202
    return body["id"]


def _wait_terminal(base, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = _get_json(base, f"/jobs/{job_id}")
        if state["status"] in ("ok", "degraded", "failed"):
            return state
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached a terminal state")


class TestJobLifecycle:
    def test_job_runs_to_ok_with_artifacts(self, served):
        job_id = _submit(served["base"], label="amp-job")
        state = _wait_terminal(served["base"], job_id)
        assert state["status"] == "ok"
        assert state["design"] == "amp"
        assert sorted(state["artifacts"]) == [
            "explain", "netlist", "report", "spice",
        ]
        assert state["events"]["count"] > 0
        assert state["events"]["dropped"] == 0

    def test_submit_response_links(self, served):
        status, body = _post(
            served["base"], "/jobs", {"source": AMP}
        )
        assert status == 202
        assert body["links"]["events"] == f"/jobs/{body['id']}/events"
        _wait_terminal(served["base"], body["id"])

    def test_parse_failure_is_a_failed_job(self, served):
        job_id = _submit(served["base"], source=BROKEN)
        state = _wait_terminal(served["base"], job_id)
        assert state["status"] == "failed"
        # Error-recovery parsing surfaces every syntax error.
        assert len(state["errors"]) >= 2
        assert state["error"] == state["errors"][0]
        assert state["artifacts"] == []

    def test_artifact_404_until_available(self, served):
        job_id = _submit(served["base"], source=BROKEN)
        _wait_terminal(served["base"], job_id)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                served["base"] + f"/jobs/{job_id}/netlist"
            )
        assert excinfo.value.code == 404

    def test_jobs_listing_is_brief(self, served):
        job_id = _submit(served["base"])
        _wait_terminal(served["base"], job_id)
        listing = _get_json(served["base"], "/jobs")["jobs"]
        assert any(job["id"] == job_id for job in listing)
        assert all("source" not in job for job in listing)

    def test_deadline_option_reaches_the_mapper(self, served):
        manager = served["manager"]
        job = manager.submit(AMP, options={"deadline_s": 12.5})
        assert job.options.mapper.deadline_s == 12.5
        _wait_terminal(served["base"], job.id)


class TestSseStreaming:
    def _read_stream(self, base, job_id, since=None):
        url = base + f"/jobs/{job_id}/events"
        if since is not None:
            url += f"?since={since}"
        with urllib.request.urlopen(url) as response:
            lines = (raw.decode("utf-8") for raw in response)
            return list(parse_sse(lines))

    def test_late_subscriber_replays_dense_from_zero(self, served):
        job_id = _submit(served["base"])
        _wait_terminal(served["base"], job_id)
        messages = self._read_stream(served["base"], job_id)
        assert messages[-1].event == "end"
        assert json.loads(messages[-1].data)["status"] == "ok"
        events = [m for m in messages[:-1] if not m.is_comment]
        seqs = [int(m.id) for m in events]
        assert seqs == list(range(len(seqs)))  # dense 0..N
        payloads = [json.loads(m.data) for m in events]
        assert all(p["run_id"] == job_id for p in payloads)
        phases = [
            p["payload"].get("phase") for p in payloads
            if p["payload"].get("kind") == "job"
        ]
        assert phases == ["queued", "running", "ok"]

    def test_resume_with_since_skips_the_prefix(self, served):
        job_id = _submit(served["base"])
        _wait_terminal(served["base"], job_id)
        full = [
            m for m in self._read_stream(served["base"], job_id)
            if m.event != "end" and not m.is_comment
        ]
        tail = [
            m for m in self._read_stream(
                served["base"], job_id, since=len(full) - 3
            )
            if m.event != "end" and not m.is_comment
        ]
        assert [m.id for m in tail] == [m.id for m in full[-2:]]

    def test_live_tail_sees_the_whole_stream(self, served):
        """A subscriber that connects immediately still gets seq 0..N:
        replay-from-ring covers whatever raced ahead of the GET."""
        job_id = _submit(served["base"])
        messages = self._read_stream(served["base"], job_id)
        assert messages[-1].event == "end"
        seqs = [
            int(m.id) for m in messages[:-1] if not m.is_comment
        ]
        assert seqs == list(range(len(seqs)))

    def test_heartbeats_on_idle_stream(self, served):
        # A queued-but-never-run job: feed the manager directly so
        # nothing executes while we listen.
        manager = served["manager"]
        log = JobEventLog()
        comments = []
        done = threading.Event()

        def listen():
            events, closed = log.wait(-1, timeout=0.05)
            if not events and not closed:
                comments.append("heartbeat")
            done.set()

        threading.Thread(target=listen, daemon=True).start()
        assert done.wait(2.0)
        assert comments == ["heartbeat"]
        del manager

    def test_concurrent_metrics_scrape_lints_clean(self, served):
        """Satellite + acceptance: /metrics passes validate_exposition
        while jobs are in flight, and carries the serve gauges."""
        job_ids = [_submit(served["base"]) for _ in range(3)]
        texts = []
        for _ in range(5):
            with urllib.request.urlopen(
                served["base"] + "/metrics"
            ) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain"
                )
                texts.append(response.read().decode("utf-8"))
            time.sleep(0.02)
        for job_id in job_ids:
            _wait_terminal(served["base"], job_id)
        with urllib.request.urlopen(served["base"] + "/metrics") as resp:
            texts.append(resp.read().decode("utf-8"))
        for text in texts:
            assert validate_exposition(text) == []
            assert "vase_serve_jobs_queued" in text
            assert "vase_serve_jobs_running" in text
        assert 'vase_serve_jobs_done_total{outcome="ok"} 3' in texts[-1]


class TestLedgerEndpoints:
    def test_history_shows_completed_jobs(self, served):
        ok_id = _submit(served["base"], label="good-one")
        bad_id = _submit(served["base"], source=BROKEN, label="bad-one")
        _wait_terminal(served["base"], ok_id)
        _wait_terminal(served["base"], bad_id)
        history = _get_json(served["base"], "/history")
        outcomes = {
            rec["run_id"]: rec["outcome"] for rec in history["records"]
        }
        assert outcomes[ok_id] == "ok"
        assert outcomes[bad_id] == "failed"
        only_failed = _get_json(served["base"], "/history?outcome=failed")
        assert [r["run_id"] for r in only_failed["records"]] == [bad_id]

    def test_stats_aggregates_served_jobs(self, served):
        job_id = _submit(served["base"])
        _wait_terminal(served["base"], job_id)
        stats = _get_json(served["base"], "/stats")
        assert stats["runs"] >= 1
        assert stats["outcomes"]["ok"] >= 1


class TestErrorPaths:
    def test_unknown_job_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(served["base"] + "/jobs/deadbeef")
        assert excinfo.value.code == 404

    def test_unknown_path_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(served["base"] + "/nope")
        assert excinfo.value.code == 404

    def test_bad_json_400(self, served):
        request = urllib.request.Request(
            served["base"] + "/jobs", data=b"{nope"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unknown_option_400(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(served["base"], "/jobs", {
                "source": AMP, "options": {"solver": "hack"},
            })
        assert excinfo.value.code == 400

    def test_empty_source_400(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(served["base"], "/jobs", {"source": "   "})
        assert excinfo.value.code == 400

    def test_queue_full_503(self, tmp_path):
        previous = disable_telemetry()
        options = FlowOptions(recovery=True)
        manager = JobManager(options, workers=1, queue_limit=2)
        # Saturate: the single worker picks jobs up fast, so block it.
        # The blocked job still counts as queued (RUNNING is only set
        # inside _execute), so two submits fill the bound.
        gate = threading.Event()
        original_execute = manager._execute

        def blocked(job):
            gate.wait(10)
            original_execute(job)

        manager._execute = blocked
        try:
            manager.submit(AMP)
            manager.submit(AMP)
            with pytest.raises(QueueFullError):
                manager.submit(AMP)
        finally:
            gate.set()
            manager.stop(wait=True)
            disable_telemetry()
            if previous is not None:
                enable_telemetry(previous)


class TestOptionWhitelist:
    BASE = FlowOptions(recovery=True)

    def test_unknown_key_rejected(self):
        for payload in ({"cache": "/tmp/x"}, {"jobs": 2}):
            with pytest.raises(JobOptionsError, match="unknown option"):
                build_job_options(self.BASE, payload)

    @pytest.mark.parametrize("deadline", [0, -1.5, "3", True, None])
    def test_bad_deadline_rejected(self, deadline):
        with pytest.raises(JobOptionsError, match="deadline_s"):
            build_job_options(self.BASE, {"deadline_s": deadline})

    @pytest.mark.parametrize("flag", ["recovery", "explore_solvers"])
    def test_booleans_enforced(self, flag):
        with pytest.raises(JobOptionsError, match=flag):
            build_job_options(self.BASE, {flag: "yes"})
        built = build_job_options(self.BASE, {flag: False})
        assert getattr(built, flag) is False

    def test_executor_and_workers_accepted(self):
        from repro.pipeline import ParallelOptions

        built = build_job_options(
            self.BASE, {"executor": "thread", "workers": 3}
        )
        assert built.parallel == ParallelOptions(
            executor="thread", workers=3
        )

    def test_bad_executor_rejected(self):
        with pytest.raises(JobOptionsError, match="executor"):
            build_job_options(self.BASE, {"executor": "quantum"})

    @pytest.mark.parametrize("width", [0, 9, 1.5, True])
    def test_workers_range_enforced(self, width):
        with pytest.raises(JobOptionsError, match="workers"):
            build_job_options(self.BASE, {"workers": width})


class TestProcessBackendServe:
    def test_job_runs_on_process_pool(self, tmp_path):
        """A process-backend JobManager serves a job end to end: the
        synthesis happens in a spawned worker, yet artifacts, ledger
        record and telemetry arrive exactly like thread-mode serving."""
        from repro.pipeline import ParallelOptions

        previous = disable_telemetry()
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        options = FlowOptions(
            cache=ArtifactCache(disk_dir=tmp_path / "cache"),
            ledger=ledger,
        )
        manager = JobManager(
            options,
            execution=ParallelOptions(executor="process", workers=1),
        )
        bus = TelemetryBus()
        bus.subscribe(manager.route)
        enable_telemetry(bus)
        try:
            job = manager.submit(AMP, label="amp.vhd")
            deadline = time.time() + 60.0
            while job.status not in ("ok", "degraded", "failed"):
                assert time.time() < deadline, "job did not finish"
                time.sleep(0.05)
            assert job.status == "ok"
            assert "netlist" in job.artifacts
            assert "report" in job.artifacts
            assert "amp" in job.artifacts["netlist"]
            records = ledger.records()
            assert len(records) == 1
            assert records[0].outcome == "ok"
            # The worker's cache counters were folded into the shared
            # cache before the job finished.
            assert options.cache.stats.misses > 0
        finally:
            manager.stop(wait=True)
            disable_telemetry()
            if previous is not None:
                enable_telemetry(previous)

    def test_worker_crash_fails_job_cleanly(self, tmp_path):
        """A worker killed mid-job yields a FAILED job, not a hang."""
        from repro.pipeline import ParallelOptions

        ledger = RunLedger(tmp_path / "ledger.jsonl")
        manager = JobManager(
            FlowOptions(ledger=ledger),
            execution=ParallelOptions(executor="process", workers=1),
        )
        try:
            job = manager.submit(AMP, label="doomed.vhd")
            # Kill the resident worker while the job is in flight (or
            # queued — either way the crash must surface as FAILED).
            deadline = time.time() + 60.0
            while time.time() < deadline:
                workers = list(manager._runner._handles)
                if workers and job.status in ("queued", "running"):
                    for handle in workers:
                        if handle.busy:
                            handle.process.terminate()
                            break
                if job.status in ("ok", "degraded", "failed"):
                    break
                time.sleep(0.02)
            assert job.status in ("ok", "degraded", "failed"), (
                "job never reached a terminal state"
            )
            # The crash fallback writes exactly one record for the job.
            assert [r.outcome for r in ledger.records()] == ["failed"]
        finally:
            manager.stop(wait=True)


class TestJobRecords:
    @pytest.mark.parametrize("runner", ["thread", "process"])
    def test_one_record_per_job(self, tmp_path, runner):
        """Every served job leaves exactly one ledger record under its
        own run id: a finished job is recorded by its run (in the
        worker process, under the process runner), a job cancelled
        while queued by the manager."""
        from repro.pipeline import ParallelOptions

        ledger = RunLedger(tmp_path / "ledger.jsonl")
        manager = JobManager(
            FlowOptions(ledger=ledger),
            execution=ParallelOptions(executor=runner, workers=1),
        )
        # Hold the single orchestration thread, so every job below
        # waits in the queue until the gate opens.
        gate = threading.Event()
        manager._pool.submit(gate.wait, 60.0)
        try:
            good = manager.submit(AMP, label="amp.vhd")
            bad = manager.submit(BROKEN, label="broken.vhd")
            dropped = manager.submit(AMP, label="dropped.vhd")
            manager.cancel(dropped.id)
            gate.set()
            deadline = time.time() + 60.0
            while not all(job.terminal for job in (good, bad, dropped)):
                assert time.time() < deadline, "jobs did not finish"
                time.sleep(0.05)
            assert sorted(
                (record.run_id, record.outcome)
                for record in ledger.records()
            ) == sorted([
                (good.id, "ok"),
                (bad.id, "failed"),
                (dropped.id, "cancelled"),
            ])
        finally:
            gate.set()
            manager.stop(wait=True)


class TestJobEventLog:
    def test_bounded_with_drop_count(self):
        from repro.instrument import TelemetryEvent

        log = JobEventLog(capacity=3)
        for seq in range(5):
            log.append(TelemetryEvent("r", seq, 0.0, "span", {}))
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.seq for e in log.since(-1)] == [2, 3, 4]
        assert log.last_seq() == 4

    def test_wait_returns_on_close(self):
        log = JobEventLog()
        result = {}

        def waiter():
            result["value"] = log.wait(-1, timeout=5)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        log.close()
        thread.join(timeout=5)
        assert result["value"] == ([], True)

    def test_unknown_job_error(self):
        previous = disable_telemetry()
        manager = JobManager(FlowOptions(), workers=1)
        try:
            with pytest.raises(UnknownJobError):
                manager.get("nope")
        finally:
            manager.stop(wait=True)
            disable_telemetry()
            if previous is not None:
                enable_telemetry(previous)


class TestByteIdentity:
    def test_served_artifacts_match_direct_synthesis(self, served):
        """Acceptance: server-fetched netlist/SPICE are byte-identical
        to what `vase synth`/`vase spice` produce for the same source
        and options."""
        from repro.spice import to_spice_deck

        source = biquad_filter.VASS_SOURCE
        job_id = _submit(served["base"], source=source)
        state = _wait_terminal(served["base"], job_id)
        assert state["status"] == "ok"
        with urllib.request.urlopen(
            served["base"] + f"/jobs/{job_id}/netlist"
        ) as response:
            served_netlist = response.read().decode("utf-8")
        with urllib.request.urlopen(
            served["base"] + f"/jobs/{job_id}/spice"
        ) as response:
            served_spice = response.read().decode("utf-8")
        direct = synthesize(
            source,
            options=FlowOptions(trace=True, explog=True, recovery=True),
        )
        assert served_netlist == direct.netlist.describe() + "\n"
        assert served_spice == to_spice_deck(direct.netlist)


class TestWatchClient:
    def test_watch_renders_and_exits_zero(self, served):
        job_id = _submit(served["base"], label="watched")
        out = io.StringIO()
        code = watch(served["base"] + f"/jobs/{job_id}", stream=out)
        text = out.getvalue()
        assert code == 0
        assert f"job {job_id}: queued" in text
        assert f"job {job_id}: ok" in text
        assert "job finished: ok" in text

    def test_watch_failed_job_exits_one(self, served):
        job_id = _submit(served["base"], source=BROKEN)
        _wait_terminal(served["base"], job_id)
        out = io.StringIO()
        code = watch(served["base"] + f"/jobs/{job_id}/events", stream=out)
        assert code == 1
        assert "job finished: failed" in out.getvalue()


class TestSseFraming:
    def test_roundtrip_through_parser(self):
        from repro.instrument import TelemetryEvent

        event = TelemetryEvent("r1", 7, 1.5, "lifecycle", {"x": 1})
        wire = (
            format_comment("heartbeat")
            + format_event(event)
            + format_message("{}", event="end")
        )
        messages = list(parse_sse(io.StringIO(wire.decode("utf-8"))))
        assert messages[0].is_comment
        assert messages[0].comments == ["heartbeat"]
        assert messages[1].id == "7"
        assert messages[1].event == "lifecycle"
        assert json.loads(messages[1].data)["payload"] == {"x": 1}
        assert messages[2].event == "end"

    def test_multiline_data_joined(self):
        frames = "data: a\ndata: b\n\n"
        (message,) = parse_sse(io.StringIO(frames))
        assert message.data == "a\nb"


class TestShutdownEndpoint:
    def test_post_shutdown_stops_the_server(self, tmp_path):
        previous = disable_telemetry()
        manager = JobManager(FlowOptions(recovery=True), workers=1)
        server = create_server("127.0.0.1", 0, manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            status, body = _post(
                f"http://{host}:{port}", "/shutdown", {}
            )
            assert status == 200
            assert body == {"status": "shutting down"}
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            server.server_close()
            manager.stop(wait=True)
            disable_telemetry()
            if previous is not None:
                enable_telemetry(previous)
