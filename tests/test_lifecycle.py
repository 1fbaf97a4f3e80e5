"""Tests for the run-lifecycle layer: cooperative cancellation,
deadline propagation, executor retries, serve cancel/drain/auth,
crash-safe batch resume and the reconnecting watch client."""

import json
import os
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.diagnostics import VaseError
import repro.flow as flow_mod
import repro.synth.mapper as mapper_mod
from repro.flow import FlowOptions, synthesize
from repro.instrument import (
    RunLedger,
    TelemetryBus,
    disable_telemetry,
    enable_telemetry,
)
from repro.instrument.events import TelemetryEvent
from repro.pipeline import PipelineSession, ProcessExecutor
from repro.robust import (
    BatchJournal,
    CancellationToken,
    CancelledError,
    DeadlineExceeded,
    RetryPolicy,
    RunContext,
    TransientError,
    WorkerCrashError,
    active_context,
    checkpoint,
    is_transient,
    run_batch,
    run_context,
    schedule_longest_first,
)
from repro.robust.batch import run_source
from repro.robust.lifecycle import task_fingerprint
from repro.serve import (
    JobConflictError,
    JobManager,
    JobOptionsError,
    QueueFullError,
    build_job_options,
    create_server,
    parse_sse,
    watch,
)
from repro.serve.sse import END_EVENT, format_event, format_message

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

AMP2 = AMP.replace("amp", "amp2").replace("-5.0", "-3.0")


# -- process-executor task bodies (module-level: they must pickle) -----------


def _double(x):
    return x * 2


def _first_attempt(marker):
    """True on the first call for ``marker``: it leaves the marker file
    behind, so a retried attempt (on any worker) sees it."""
    try:
        with open(marker, "x"):
            return True
    except FileExistsError:
        return False


def _crash_first_then_double(marker, x):
    if _first_attempt(marker):
        os._exit(13)  # a hard crash, as if the worker segfaulted
    return x * 2


def _transient_first_then_double(marker, x):
    if _first_attempt(marker):
        raise TransientError("transient failure on the first attempt")
    return x * 2


def _always_crash(x):
    os._exit(13)


def _loop_until_cancelled():
    from repro.robust.lifecycle import checkpoint as cp

    for _ in range(4000):
        cp("test.loop")
        time.sleep(0.005)
    return "never cancelled"


# -----------------------------------------------------------------------------


class TestCancellationToken:
    def test_first_cancel_wins(self):
        token = CancellationToken()
        assert not token.cancelled
        assert token.cancel("first") is True
        assert token.cancel("second") is False
        assert token.cancelled
        assert token.reason == "first"

    def test_raise_if_cancelled(self):
        token = CancellationToken()
        token.raise_if_cancelled("anywhere")  # no-op while unset
        token.cancel("user hit ^C")
        with pytest.raises(CancelledError, match="user hit"):
            token.raise_if_cancelled("stage:map")


class TestRunContext:
    def test_deadline_expiry(self):
        context = RunContext.create(deadline_s=0.0)
        assert context.expired()
        assert context.remaining_s() == 0.0
        with pytest.raises(DeadlineExceeded, match="stage:compile"):
            context.checkpoint("stage:compile")

    def test_unbounded_context_never_expires(self):
        context = RunContext.create()
        assert context.remaining_s() is None
        assert not context.expired()
        context.checkpoint("anywhere")

    def test_child_shares_token_and_takes_min_deadline(self):
        parent = RunContext.create(deadline_s=100.0)
        child = parent.child(deadline_s=0.001)
        assert child.token is parent.token
        assert child.deadline < parent.deadline
        # A child may only tighten, never extend.
        wide = parent.child(deadline_s=10_000.0)
        assert wide.deadline == parent.deadline

    def test_thread_local_install(self):
        assert active_context() is None
        checkpoint("outside")  # cheap no-op without a context
        context = RunContext.create()
        with run_context(context):
            assert active_context() is context
            context.token.cancel("stop")
            with pytest.raises(CancelledError):
                checkpoint("inside")
        assert active_context() is None


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(DeadlineExceeded, CancelledError)
        assert issubclass(CancelledError, VaseError)
        assert issubclass(WorkerCrashError, TransientError)
        assert issubclass(TransientError, VaseError)

    def test_is_transient(self):
        assert is_transient(TransientError("x"))
        assert is_transient(WorkerCrashError("x"))
        assert not is_transient(CancelledError("x"))
        assert not is_transient(ValueError("x"))


class TestRetryPolicy:
    def test_delays_are_deterministic(self):
        policy = RetryPolicy(backoff_s=0.1)
        assert policy.delay_s("k", 1) == policy.delay_s("k", 1)
        # Jitter is keyed, so different tasks spread out.
        delays = {policy.delay_s(f"task-{i}", 1) for i in range(16)}
        assert len(delays) > 1

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_s=0.1, backoff_factor=2.0, max_backoff_s=0.5,
        )
        assert policy.delay_s("k", 2) > policy.delay_s("k", 1) / 2
        assert policy.delay_s("k", 50) == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"backoff_s": -0.1},
        {"breaker_threshold": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_task_fingerprint_stability(self):
        assert task_fingerprint(_double, (1,)) == \
            task_fingerprint(_double, (1,))
        assert task_fingerprint(_double, (1,)) != \
            task_fingerprint(_double, (2,))


@pytest.fixture
def cancel_at_mapper(monkeypatch):
    """Cancel the active run context just as a mapper search starts.

    The mapper reads the run context once, when its search begins;
    cancelling the context's token there drives the search loop's own
    cancellation checkpoint.
    """
    def cancelling_context():
        context = active_context()
        if context is not None:
            context.token.cancel("cancelled as the mapper search started")
        return context

    monkeypatch.setattr(mapper_mod, "active_context", cancelling_context)


class TestFlowBudget:
    def test_exhausted_budget_raises_deadline_exceeded(self):
        with pytest.raises(DeadlineExceeded, match="deadline exceeded"):
            synthesize(AMP, options=FlowOptions(deadline_s=1e-9))

    def test_run_source_maps_budget_to_cancelled_entry(self):
        entry, result = run_source(
            AMP, "amp.vhd", FlowOptions(deadline_s=1e-9)
        )
        assert entry.status == "cancelled"
        assert result is None
        assert "deadline exceeded" in entry.error

    def test_mapper_cancel_fault_cancels_the_run(self, cancel_at_mapper):
        # The cancel needs an installed run context; a generous budget
        # provides one without ever expiring itself.
        entry, _result = run_source(
            AMP, "amp.vhd", FlowOptions(deadline_s=600.0)
        )
        assert entry.status == "cancelled"
        assert "mapper.search" in entry.error
        assert "cancelled as the mapper search started" in entry.error
        assert "deadline exceeded" not in entry.error

    def test_cli_budget_flag(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "amp.vhd"
        path.write_text(AMP)
        assert main(["synth", str(path)]) == 0
        assert main(["synth", str(path), "--budget", "1e-9"]) == 2


class TestBudgetJobOption:
    def test_budget_s_sets_the_flow_deadline_only(self):
        base = FlowOptions()
        options = build_job_options(base, {"budget_s": 2.5})
        assert options.deadline_s == 2.5
        assert options.mapper.deadline_s == base.mapper.deadline_s

    def test_deadline_s_still_maps_to_the_mapper(self):
        options = build_job_options(
            FlowOptions(), {"deadline_s": 1.5, "budget_s": 9.0}
        )
        assert options.mapper.deadline_s == 1.5
        assert options.deadline_s == 9.0

    @pytest.mark.parametrize("bad", [0, -1, "fast", True, None])
    def test_bad_budget_rejected(self, bad):
        with pytest.raises(JobOptionsError):
            build_job_options(FlowOptions(), {"budget_s": bad})


class TestProcessRetries:
    def _executor(self, **kwargs):
        policy = RetryPolicy(backoff_s=0.01, **kwargs)
        return ProcessExecutor(1, retry=policy)

    def test_worker_crash_is_retried_then_succeeds(self, tmp_path):
        marker = str(tmp_path / "attempted")
        with self._executor(max_retries=2) as executor:
            # The task crashes its worker on the first attempt only.
            future = executor.submit(_crash_first_then_double, marker, 21)
            assert future.result(timeout=60) == 42

    def test_transient_error_is_retried_in_band(self, tmp_path):
        marker = str(tmp_path / "attempted")
        with self._executor(max_retries=2) as executor:
            future = executor.submit(
                _transient_first_then_double, marker, 4
            )
            assert future.result(timeout=60) == 8

    def test_retry_exhaustion_fails_with_worker_crash_error(self):
        with self._executor(
            max_retries=1, breaker_threshold=50
        ) as executor:
            future = executor.submit(_always_crash, 1)
            with pytest.raises(WorkerCrashError, match="crashed"):
                future.result(timeout=60)

    def test_circuit_breaker_trips_and_fails_fast(self):
        with self._executor(
            max_retries=10, breaker_threshold=2
        ) as executor:
            first = executor.submit(_always_crash, 7)
            with pytest.raises(VaseError):
                first.result(timeout=60)
            # Same task again: the breaker refuses to dispatch it.
            second = executor.submit(_always_crash, 7)
            with pytest.raises(VaseError, match="circuit breaker"):
                second.result(timeout=60)

    def test_cancel_reaches_a_running_task(self):
        with ProcessExecutor(1) as executor:
            future = executor.submit(_loop_until_cancelled)
            deadline = time.monotonic() + 30
            while not future.running() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert future.cancel() is True  # delivered, not yet stopped
            with pytest.raises(CancelledError):
                future.result(timeout=60)


# -- serve: cancellation over HTTP, drain, bearer auth -----------------------


_real_synthesize_staged = flow_mod._synthesize_staged


def _fake_synthesize_staged(session, *args, **kwargs):
    """A controllable run body: blocks at a cooperative checkpoint
    while the source contains ``block``, then synthesizes ``AMP``.
    Only the body is fake: the run still ends in ``synthesize``."""
    if "block" in session.source:
        for _ in range(4000):
            checkpoint("test.block")
            time.sleep(0.005)
    amp = PipelineSession(
        AMP, options=session.options, library=session.library,
        cache=session.cache,
    )
    return _real_synthesize_staged(amp, *args, **kwargs)


@pytest.fixture
def served_slow(tmp_path, monkeypatch):
    """A live single-worker server whose jobs run a controllable body,
    so cancel-while-running is deterministic instead of a race."""
    monkeypatch.setattr(
        flow_mod, "_synthesize_staged", _fake_synthesize_staged
    )
    previous = disable_telemetry()
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    manager = JobManager(FlowOptions(ledger=ledger), workers=1)
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
            "ledger": ledger,
        }
    finally:
        for job in manager.jobs():
            job.token.cancel("test teardown")
        server.shutdown()
        server.server_close()
        manager.stop(wait=True)
        thread.join(timeout=5)
        disable_telemetry()
        if previous is not None:
            enable_telemetry(previous)


def _post(base, path, payload=None, token=None):
    headers = {"Content-Type": "application/json"}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload or {}).encode("utf-8"),
        headers=headers,
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def _get_json(base, path):
    with urllib.request.urlopen(base + path) as response:
        return json.loads(response.read())


def _submit(base, source, **extra):
    status, body = _post(base, "/jobs", {"source": source, **extra})
    assert status == 202
    return body["id"]


def _wait_status(base, job_id, statuses, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = _get_json(base, f"/jobs/{job_id}")
        if state["status"] in statuses:
            return state
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached {statuses}")


def _stream_end_status(base, job_id, timeout=30.0):
    """The status carried by the job stream's terminal ``end`` frame."""
    request = urllib.request.Request(
        f"{base}/jobs/{job_id}/events?since=-1",
        headers={"Accept": "text/event-stream"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        lines = (raw.decode("utf-8") for raw in response)
        for message in parse_sse(lines):
            if message.event == END_EVENT:
                return json.loads(message.data).get("status")
    raise AssertionError("stream ended without an end frame")


class TestServeCancel:
    def test_cancel_running_job(self, served_slow):
        base = served_slow["base"]
        job_id = _submit(base, "block until cancelled")
        _wait_status(base, job_id, ("running",))
        status, body = _post(base, f"/jobs/{job_id}/cancel")
        assert status == 202
        assert body["cancel_requested"] is True
        state = _wait_status(base, job_id, ("cancelled",))
        assert state["cancel_requested"] is True
        # The SSE stream ends with a terminal cancelled frame, and the
        # ledger records the matching outcome under the job's run id.
        assert _stream_end_status(base, job_id) == "cancelled"
        records = [
            r for r in served_slow["ledger"].records()
            if r.run_id == job_id
        ]
        assert [r.outcome for r in records] == ["cancelled"]

    def test_cancel_queued_job_finalizes_immediately(self, served_slow):
        base = served_slow["base"]
        blocker = _submit(base, "block the single worker")
        _wait_status(base, blocker, ("running",))
        queued = _submit(base, "waits in the queue")
        status, _body = _post(base, f"/jobs/{queued}/cancel")
        assert status == 202
        state = _get_json(base, f"/jobs/{queued}")
        assert state["status"] == "cancelled"
        assert _stream_end_status(base, queued) == "cancelled"
        records = [
            r for r in served_slow["ledger"].records()
            if r.run_id == queued
        ]
        assert [r.outcome for r in records] == ["cancelled"]
        # Unblock the worker so teardown is quick.
        _post(base, f"/jobs/{blocker}/cancel")
        _wait_status(base, blocker, ("cancelled",))

    def test_cancel_terminal_job_conflicts(self, served_slow):
        base = served_slow["base"]
        job_id = _submit(base, "finishes fast")
        _wait_status(base, job_id, ("ok",))
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base, f"/jobs/{job_id}/cancel")
        assert excinfo.value.code == 409

    def test_cancel_unknown_job_404(self, served_slow):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(served_slow["base"], "/jobs/nope/cancel")
        assert excinfo.value.code == 404


class TestDrain:
    def test_drain_finishes_quick_jobs_and_cancels_the_queue(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            flow_mod, "_synthesize_staged", _fake_synthesize_staged
        )
        manager = JobManager(FlowOptions(), workers=1)
        try:
            running = manager.submit("short job")
            deadline = time.monotonic() + 10
            while running.status == "queued" \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            counts = manager.drain(timeout_s=10.0)
            assert counts["finished"] >= 1
            assert manager.get(running.id).status == "ok"
            with pytest.raises(QueueFullError):
                manager.submit("too late")
        finally:
            manager.stop(wait=True)

    def test_drain_timeout_cancels_stragglers(self, monkeypatch):
        monkeypatch.setattr(
            flow_mod, "_synthesize_staged", _fake_synthesize_staged
        )
        manager = JobManager(FlowOptions(), workers=1)
        try:
            stuck = manager.submit("block forever")
            deadline = time.monotonic() + 10
            while stuck.status == "queued" \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            queued = manager.submit("never starts: block")
            counts = manager.drain(timeout_s=0.2)
            assert counts["cancelled"] == 2
            assert manager.get(stuck.id).status == "cancelled"
            assert manager.get(queued.id).status == "cancelled"
        finally:
            manager.stop(wait=True)

    def test_manager_cancel_conflicts_on_terminal(self, monkeypatch):
        monkeypatch.setattr(
            flow_mod, "_synthesize_staged", _fake_synthesize_staged
        )
        manager = JobManager(FlowOptions(), workers=1)
        try:
            job = manager.submit("quick")
            deadline = time.monotonic() + 10
            while not job.terminal and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(JobConflictError):
                manager.cancel(job.id)
        finally:
            manager.stop(wait=True)


@pytest.fixture
def served_with_token(tmp_path):
    previous = disable_telemetry()
    manager = JobManager(FlowOptions(), workers=1)
    server = create_server(
        "127.0.0.1", 0, manager, heartbeat_s=0.2, token="sekrit",
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        manager.stop(wait=True)
        thread.join(timeout=5)
        disable_telemetry()
        if previous is not None:
            enable_telemetry(previous)


class TestBearerAuth:
    def test_get_without_token_is_401(self, served_with_token):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(served_with_token + "/")
        assert excinfo.value.code == 401
        assert excinfo.value.headers.get("WWW-Authenticate") == "Bearer"

    def test_wrong_token_is_401(self, served_with_token):
        request = urllib.request.Request(
            served_with_token + "/jobs",
            headers={"Authorization": "Bearer wrong"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 401

    def test_post_without_token_is_401(self, served_with_token):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(served_with_token, "/jobs", {"source": AMP})
        assert excinfo.value.code == 401

    def test_correct_token_is_accepted(self, served_with_token):
        request = urllib.request.Request(
            served_with_token + "/",
            headers={"Authorization": "Bearer sekrit"},
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200

    def test_healthz_is_exempt(self, served_with_token):
        with urllib.request.urlopen(
            served_with_token + "/healthz"
        ) as response:
            assert response.status == 200

    def test_cli_refuses_non_loopback_bind_without_token(self, capsys):
        from repro.cli import main

        assert main(["serve", "--host", "0.0.0.0", "--port", "0"]) == 1
        assert "--token" in capsys.readouterr().err


# -- crash-safe batch resume --------------------------------------------------


class TestBatchJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with BatchJournal(path) as journal:
            journal.record("k1", {"file": "a.vhd", "status": "ok"})
            journal.record("k2", {"file": "b.vhd", "status": "failed"})
            journal.record("k1", {"file": "a.vhd", "status": "degraded"})
        loaded = BatchJournal(path).load()
        assert loaded["k2"]["status"] == "failed"
        # Last write wins, so a re-run's fresher entry replaces the old.
        assert loaded["k1"]["status"] == "degraded"

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with BatchJournal(path) as journal:
            journal.record("k1", {"file": "a.vhd", "status": "ok"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "entry": {"file"')  # torn write
        loaded = BatchJournal(path).load()
        assert set(loaded) == {"k1"}

    def test_missing_file_loads_empty(self, tmp_path):
        assert BatchJournal(tmp_path / "absent.jsonl").load() == {}

    def test_entry_key_tracks_content_and_options(self):
        key = BatchJournal.entry_key("source text", "opts-a")
        assert key == BatchJournal.entry_key("source text", "opts-a")
        assert key != BatchJournal.entry_key("source text 2", "opts-a")
        assert key != BatchJournal.entry_key("source text", "opts-b")


@pytest.fixture
def corpus(tmp_path):
    a = tmp_path / "amp1.vhd"
    b = tmp_path / "amp2.vhd"
    a.write_text(AMP)
    b.write_text(AMP2)
    return [a, b]


class TestBatchResume:
    def _count_runs(self, monkeypatch):
        import repro.robust.batch as batch_mod

        calls = []
        real = batch_mod._run_one

        def counting(path, options, library):
            calls.append(str(path))
            return real(path, options, library)

        monkeypatch.setattr(batch_mod, "_run_one", counting)
        return calls

    def test_resume_matches_uninterrupted_run(
        self, corpus, tmp_path, monkeypatch
    ):
        options = FlowOptions(recovery=True)
        baseline = run_batch(corpus, options=options)
        expected = baseline.to_json(timing=False)

        # An "interrupted" run that only got through the first file,
        # then a restart over the full corpus with the same journal.
        journal_path = tmp_path / "batch.journal"
        with BatchJournal(journal_path) as journal:
            run_batch(corpus[:1], options=options, journal=journal)
        calls = self._count_runs(monkeypatch)
        with BatchJournal(journal_path) as journal:
            resumed = run_batch(corpus, options=options, journal=journal)
        assert calls == [str(corpus[1])]  # the finished file was skipped
        assert resumed.to_json(timing=False) == expected

    def test_second_run_is_fully_resumed(
        self, corpus, tmp_path, monkeypatch
    ):
        options = FlowOptions(recovery=True)
        journal_path = tmp_path / "batch.journal"
        with BatchJournal(journal_path) as journal:
            first = run_batch(corpus, options=options, journal=journal)
        calls = self._count_runs(monkeypatch)
        with BatchJournal(journal_path) as journal:
            second = run_batch(corpus, options=options, journal=journal)
        assert calls == []
        assert second.to_json(timing=False) == \
            first.to_json(timing=False)

    def test_edited_file_runs_again(self, corpus, tmp_path, monkeypatch):
        options = FlowOptions(recovery=True)
        journal_path = tmp_path / "batch.journal"
        with BatchJournal(journal_path) as journal:
            run_batch(corpus, options=options, journal=journal)
        corpus[1].write_text(AMP2.replace("-3.0", "-4.0"))
        calls = self._count_runs(monkeypatch)
        with BatchJournal(journal_path) as journal:
            run_batch(corpus, options=options, journal=journal)
        assert calls == [str(corpus[1])]

    def test_cancelled_entry_surfaces_in_the_report(
        self, corpus, cancel_at_mapper
    ):
        # The cancel needs an installed run context; a generous
        # whole-flow budget provides one without expiring.
        report = run_batch(
            corpus[:1], options=FlowOptions(deadline_s=600.0)
        )
        assert report.cancelled == 1
        assert report.entries[0].status == "cancelled"
        assert report.exit_code() == 1
        assert "1 cancelled" in report.describe(timing=False)
        assert report.as_dict(timing=False)["cancelled"] == 1

    def test_cli_batch_resume_round_trip(self, corpus, tmp_path):
        from repro.cli import main

        journal = tmp_path / "cli.journal"
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        root = str(corpus[0].parent)
        assert main([
            "batch", root, "--no-timing", "--json", str(out_a),
            "--resume", str(journal),
        ]) == 0
        assert journal.exists()
        assert main([
            "batch", root, "--no-timing", "--json", str(out_b),
            "--resume", str(journal),
        ]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestSkewScheduling:
    def test_size_fallback_orders_longest_first(self, tmp_path):
        small = tmp_path / "small.vhd"
        big = tmp_path / "big.vhd"
        medium = tmp_path / "medium.vhd"
        small.write_text("x" * 10)
        big.write_text("x" * 10_000)
        medium.write_text("x" * 1_000)
        order = schedule_longest_first([small, big, medium])
        assert order == [1, 2, 0]

    def test_ties_keep_input_order(self, tmp_path):
        files = []
        for name in ("a.vhd", "b.vhd", "c.vhd"):
            path = tmp_path / name
            path.write_text("x" * 100)
            files.append(path)
        assert schedule_longest_first(files) == [0, 1, 2]

    def test_ledger_durations_beat_file_size(self, tmp_path):
        quick = tmp_path / "quick-but-big.vhd"
        slow = tmp_path / "slow-but-small.vhd"
        quick.write_text("x" * 10_000)
        slow.write_text("x" * 10)
        ledger = SimpleNamespace(records=lambda: [
            SimpleNamespace(
                kind="synth", source=str(quick),
                durations={"total_s": 0.1},
            ),
            SimpleNamespace(
                kind="synth", source=str(slow),
                durations={"total_s": 30.0},
            ),
            SimpleNamespace(kind="batch", source="ignored", durations={}),
        ])
        assert schedule_longest_first([quick, slow], ledger) == [1, 0]


# -- the reconnecting watch client -------------------------------------------


def _frames(seqs, end_status=None):
    """Raw SSE bytes for a sequence of events (and optionally the
    terminal end frame)."""
    chunks = [
        format_event(TelemetryEvent(
            run_id="job-1", seq=seq, ts=0.0, category="lifecycle",
            payload={"kind": "file", "phase": "started", "file": "x"},
        ))
        for seq in seqs
    ]
    if end_status is not None:
        chunks.append(format_message(
            json.dumps({"status": end_status}), event=END_EVENT,
        ))
    return b"".join(chunks)


class _FakeResponse:
    def __init__(self, payload: bytes):
        self._lines = payload.splitlines(keepends=True)

    def __iter__(self):
        return iter(self._lines)

    def close(self):
        pass


class TestWatchReconnect:
    def test_reconnect_resumes_from_last_seq(self):
        calls = []

        def opener(url, since, token):
            calls.append((since, token))
            if len(calls) == 1:
                # First connection drops before the end frame.
                return _FakeResponse(_frames([0, 1, 2]))
            return _FakeResponse(_frames([3, 4], end_status="ok"))

        import io

        out = io.StringIO()
        code = watch(
            "http://x/jobs/job-1", stream=out, token="t",
            retry_backoff_s=0.0, opener=opener,
        )
        assert code == 0
        assert [since for since, _ in calls] == [-1, 2]
        assert all(token == "t" for _, token in calls)
        assert "reconnecting from seq 2" in out.getvalue()
        assert "job finished: ok" in out.getvalue()

    def test_gives_up_after_max_retries(self):
        calls = []

        def opener(url, since, token):
            calls.append(since)
            raise OSError("connection refused")

        import io

        out = io.StringIO()
        code = watch(
            "http://x/jobs/job-1", stream=out,
            max_retries=3, retry_backoff_s=0.0, opener=opener,
        )
        assert code == 1
        assert len(calls) == 4  # initial attempt + 3 retries
        assert "giving up" in out.getvalue()

    def test_events_reset_the_retry_budget(self):
        calls = []

        def opener(url, since, token):
            calls.append(since)
            if len(calls) <= 3:
                # Each connection delivers one fresh event then drops:
                # progress, so the budget never runs out.
                return _FakeResponse(_frames([len(calls) - 1]))
            return _FakeResponse(_frames([3], end_status="degraded"))

        import io

        out = io.StringIO()
        code = watch(
            "http://x/jobs/job-1", stream=out,
            max_retries=1, retry_backoff_s=0.0, opener=opener,
        )
        assert code == 0
        assert calls == [-1, 0, 1, 2]

    def test_cancelled_outcome_exits_one(self):
        def opener(url, since, token):
            return _FakeResponse(_frames([0], end_status="cancelled"))

        import io

        out = io.StringIO()
        code = watch("http://x/jobs/job-1", stream=out, opener=opener)
        assert code == 1
        assert "job finished: cancelled" in out.getvalue()
