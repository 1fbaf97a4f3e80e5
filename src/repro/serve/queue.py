"""The ``vase serve`` job queue: bounded admission, resident workers.

A :class:`JobManager` owns everything the HTTP layer needs but nothing
HTTP-specific, so it is directly testable:

* **admission** — :meth:`JobManager.submit` validates the request
  payload against a whitelist of flow options
  (:func:`build_job_options`), assigns the job id (which doubles as
  the telemetry run id), and rejects with :class:`QueueFullError` once
  ``queue_limit`` jobs are already waiting;
* **execution** — a resident
  :class:`~repro.pipeline.ThreadExecutor` of orchestration threads
  hands each job, inside a
  :func:`~repro.instrument.events.run_scope` tagged with the job id
  (so every telemetry event of the job carries it), to one runner as
  one task, :func:`_run_job`: the batch runner's fault-isolating core
  (:func:`~repro.robust.batch.run_source`), then the rendered
  artifacts.  The runner is inline on the
  orchestration thread, or — with ``vase serve --executor process`` —
  a resident :class:`~repro.pipeline.ProcessExecutor` whose spawned
  workers run the flow off the GIL, share the cache's on-disk tier
  (their counters folded back into it), and forward their telemetry
  over the result channel so SSE streams stay dense;
* **observability** — :meth:`JobManager.route`, subscribed to the
  process-wide bus, files each event into the owning job's bounded
  :class:`JobEventLog`; late SSE subscribers replay from seq 0 and
  then tail live, and :meth:`JobManager.counts` feeds the
  ``vase_serve_*`` gauges on ``/metrics``;
* **lifecycle** — :meth:`JobManager.cancel` cancels a job at any
  pre-terminal point (queued jobs are dequeued on the spot; running
  jobs are cancelled cooperatively through their
  :class:`~repro.robust.lifecycle.CancellationToken`, relayed to the
  worker pipe under the ``process`` backend), and
  :meth:`JobManager.drain` is the SIGTERM path: stop admission, let
  running jobs finish within a timeout, cancel the rest;
* **persistence** — every job leaves exactly one record in the run
  ledger (``options.ledger``), so ``/history`` and ``/stats`` see
  served jobs exactly like CLI runs.  A job whose run ends — with a
  result, any error, or a cancel — is recorded by
  :func:`~repro.flow.synthesize` itself, in whichever process ran it
  (the ledger crosses to ``process`` workers by path).  The manager
  records only a job whose run never reached its end: cancelled while
  queued or before it started, or lost to a crashed or timed-out
  worker.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.diagnostics import VaseError
from repro.instrument.events import (
    CATEGORY_LIFECYCLE,
    TelemetryEvent,
    active_bus,
    new_run_id,
    run_scope,
)
from repro.instrument.ledger import (
    ALL_OUTCOMES,
    OUTCOME_CANCELLED,
    OUTCOMES,
    error_outcome,
    record_for_failure,
)
from repro.pipeline import (
    EXECUTOR_KINDS,
    ParallelOptions,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)
from repro.robust.batch import BatchEntry, run_source
from repro.robust.lifecycle import (
    CancellationToken,
    CancelledError,
    RunContext,
    run_context,
)

#: job states before the terminal batch buckets take over
STATUS_QUEUED = "queued"
STATUS_RUNNING = "running"
STATUS_CANCELLED = OUTCOME_CANCELLED
#: terminal states: the run outcomes
TERMINAL_STATUSES = ALL_OUTCOMES

#: whitelisted per-job flow options a POST may override
ALLOWED_OPTIONS = (
    "deadline_s", "budget_s", "recovery", "explore_solvers",
    "executor", "workers",
)
#: cap on the per-job ``workers`` override (solver-exploration
#: fan-out; the ``process`` backend is capped by the same bound)
MAX_JOB_FANOUT = 8

#: per-job event-log capacity; a full synthesis run is a few thousand
#: events, so replay-from-0 survives any realistic job
DEFAULT_EVENT_CAPACITY = 65536

#: terminal jobs kept for artifact fetches before pruning
DEFAULT_MAX_JOBS = 512


class JobError(Exception):
    """Base of the admission errors the HTTP layer maps to 4xx/503."""


class JobOptionsError(JobError):
    """The request payload failed whitelist validation (HTTP 400)."""


class QueueFullError(JobError):
    """The bounded queue is at capacity, or the server is shutting
    down (HTTP 503)."""


class UnknownJobError(JobError):
    """No job with that id (HTTP 404)."""


class JobConflictError(JobError):
    """The job is already terminal and cannot be cancelled (HTTP 409)."""


def build_job_options(base, payload: Optional[Dict[str, object]]):
    """A per-job :class:`~repro.flow.FlowOptions` from the whitelist.

    ``payload`` is the request's ``options`` object.  Only
    :data:`ALLOWED_OPTIONS` may appear; anything else — unknown keys,
    wrong types, out-of-range values — raises :class:`JobOptionsError`
    (the server's 400).  The returned options share the base's cache
    (the whole point of the resident service) and its ledger, which
    the job's run appends its record to.
    """
    payload = dict(payload or {})
    unknown = sorted(set(payload) - set(ALLOWED_OPTIONS))
    if unknown:
        raise JobOptionsError(
            f"unknown option(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(ALLOWED_OPTIONS)})"
        )
    options = base
    if "deadline_s" in payload:
        deadline = payload["deadline_s"]
        if isinstance(deadline, bool) or not isinstance(
            deadline, (int, float)
        ) or deadline <= 0:
            raise JobOptionsError("deadline_s must be a positive number")
        options = replace(
            options,
            mapper=replace(base.mapper, deadline_s=float(deadline)),
        )
    if "budget_s" in payload:
        # The hard whole-flow budget: unlike the mapper's soft
        # deadline_s (which truncates the search and keeps the
        # incumbent), an exhausted budget cancels the run with a
        # DeadlineExceeded and a terminal ``cancelled`` outcome.
        budget = payload["budget_s"]
        if isinstance(budget, bool) or not isinstance(
            budget, (int, float)
        ) or budget <= 0:
            raise JobOptionsError("budget_s must be a positive number")
        options = replace(options, deadline_s=float(budget))
    for name in ("recovery", "explore_solvers"):
        if name in payload:
            value = payload[name]
            if not isinstance(value, bool):
                raise JobOptionsError(f"{name} must be a boolean")
            options = replace(options, **{name: value})
    kind: Optional[str] = None
    width: Optional[int] = None
    if "executor" in payload:
        kind = payload["executor"]
        if not isinstance(kind, str) or kind not in EXECUTOR_KINDS:
            raise JobOptionsError(
                f"executor must be one of {', '.join(EXECUTOR_KINDS)}"
            )
    if "workers" in payload:
        width = payload["workers"]
        if isinstance(width, bool) or not isinstance(width, int) \
                or not 1 <= width <= MAX_JOB_FANOUT:
            raise JobOptionsError(
                f"workers must be an integer in [1, {MAX_JOB_FANOUT}]"
            )
    if kind is not None or width is not None:
        parallel = base.parallel
        if width is None:
            width = max(1, parallel.workers)
        if kind is None:
            kind = (
                parallel.executor if parallel.executor != "serial"
                else ("thread" if width > 1 else "serial")
            )
        options = replace(
            options, parallel=ParallelOptions(executor=kind, workers=width)
        )
    return options


def render_artifacts(label: str, result) -> Dict[str, str]:
    """Render the fetchable artifacts of a finished synthesis."""
    from repro.report import generate_report
    from repro.spice import to_spice_deck

    artifacts = {
        "netlist": result.netlist.describe() + "\n",
        "spice": to_spice_deck(result.netlist),
        "report": generate_report(result, title=label),
    }
    if result.explog is not None:
        try:
            from repro.instrument.explain import render_exploration_html

            artifacts["explain"] = render_exploration_html(
                result, title=label
            )
        except Exception:  # noqa: BLE001 - optional artifact
            pass
    return artifacts


def _run_job(
    source: str,
    label: str,
    entity: Optional[str],
    options,
    library,
):
    """One served job, on whichever runner: ``(entry, artifacts)``,
    both plain picklable data."""
    entry, result = run_source(
        source, label, options, library, entity_name=entity
    )
    artifacts = {} if result is None else render_artifacts(label, result)
    return entry, artifacts


class JobEventLog:
    """Bounded per-job event buffer with replay and blocking tail.

    The serve-side sibling of
    :class:`~repro.instrument.events.RingBuffer`: bounded like it, but
    with a condition variable so SSE handlers can block for the next
    event instead of polling, and a ``closed`` flag the manager raises
    once the job is terminal and no further events can arrive —
    the signal that lets a stream end instead of heartbeating forever.
    """

    def __init__(self, capacity: int = DEFAULT_EVENT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.dropped = 0
        self.closed = False
        self._events: deque = deque(maxlen=capacity)
        self._cond = threading.Condition()

    def append(self, event: TelemetryEvent) -> None:
        with self._cond:
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(event)
            self._cond.notify_all()

    def close(self) -> None:
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._events)

    def last_seq(self) -> int:
        """Highest buffered seq, or -1 while empty."""
        with self._cond:
            return self._events[-1].seq if self._events else -1

    def since(self, seq: int) -> List[TelemetryEvent]:
        """Buffered events with ``seq`` strictly greater than ``seq``
        (pass -1 for a full replay), oldest first."""
        with self._cond:
            return [e for e in self._events if e.seq > seq]

    def wait(
        self, seq: int, timeout: Optional[float] = None
    ) -> Tuple[List[TelemetryEvent], bool]:
        """Block until an event newer than ``seq`` arrives, the log
        closes, or ``timeout`` elapses; returns ``(new_events,
        closed)``.  An empty list with ``closed=False`` is the
        heartbeat case."""
        with self._cond:
            self._cond.wait_for(
                lambda: self.closed
                or (self._events and self._events[-1].seq > seq),
                timeout,
            )
            return [e for e in self._events if e.seq > seq], self.closed


@dataclass
class Job:
    """One submitted synthesis, from POST body to artifacts."""

    id: str
    label: str
    source: str
    entity: Optional[str]
    options: object
    status: str = STATUS_QUEUED
    created_ts: float = 0.0
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    elapsed_s: float = 0.0
    design: Optional[str] = None
    summary: str = ""
    error: str = ""
    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    recovery: List[Dict[str, object]] = field(default_factory=list)
    #: rendered artifacts by name (report/netlist/spice/explain)
    artifacts: Dict[str, str] = field(default_factory=dict)
    events: JobEventLog = field(default_factory=JobEventLog)
    #: cooperative-cancellation token shared with the job's run context
    token: CancellationToken = field(
        default_factory=CancellationToken, repr=False
    )
    #: True once a cancel was requested (queued or running)
    cancel_requested: bool = False
    #: the future of the job's task while it runs on the runner
    future: Optional[object] = field(default=None, repr=False)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def as_dict(self, brief: bool = False) -> Dict[str, object]:
        data: Dict[str, object] = {
            "id": self.id,
            "label": self.label,
            "status": self.status,
            "design": self.design,
            "created_ts": self.created_ts,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
            "elapsed_s": round(self.elapsed_s, 6),
            "events": {
                "count": len(self.events),
                "dropped": self.events.dropped,
            },
        }
        if brief:
            return data
        data.update({
            "summary": self.summary,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
            "errors": list(self.errors),
            "warnings": list(self.warnings),
            "recovery": list(self.recovery),
            "artifacts": sorted(self.artifacts),
        })
        return data


class JobManager:
    """Admission, execution and bookkeeping for served jobs."""

    def __init__(
        self,
        options,
        library=None,
        workers: int = 2,
        queue_limit: int = 64,
        execution: Optional[ParallelOptions] = None,
    ):
        """``execution`` selects the resident backend jobs run on:
        ``thread`` (default; ``workers`` wide, each job runs inline on
        its orchestration thread) or ``process`` — the orchestration
        threads stay, but each job runs on a resident
        :class:`~repro.pipeline.ProcessExecutor` of the same width.
        ``serial`` degrades to one orchestration thread.  Like the
        cache, the run ledger is ``options.ledger``."""
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.options = options
        self.library = library
        self.queue_limit = queue_limit
        self.execution = execution or ParallelOptions(
            executor="thread", workers=workers,
        )
        width = (
            1 if self.execution.executor == "serial"
            else max(1, self.execution.workers)
        )
        self._pool = ThreadExecutor(width)
        self._runner = (
            ProcessExecutor(width, cache=options.cache)
            if self.execution.executor == "process" else SerialExecutor()
        )
        self._lock = threading.Lock()
        self._jobs: "Dict[str, Job]" = {}
        self._closed = False
        #: completed jobs by terminal status, for /metrics
        self.done: Dict[str, int] = {name: 0 for name in TERMINAL_STATUSES}

    # -- telemetry routing (bus subscriber) --------------------------------

    def route(self, event: TelemetryEvent) -> None:
        """File a bus event into the owning job's event log.

        Runs under the bus dispatch lock, so it must stay cheap: one
        dict lookup and a deque append.  Events whose run id is no
        job's (CLI runs sharing the process, the unscoped sentinel)
        are ignored.
        """
        job = self._jobs.get(event.run_id)
        if job is not None:
            job.events.append(event)

    # -- admission ----------------------------------------------------------

    def submit(
        self,
        source: str,
        entity: Optional[str] = None,
        label: Optional[str] = None,
        options: Optional[Dict[str, object]] = None,
    ) -> Job:
        """Validate, enqueue and schedule one job; returns it queued."""
        if not isinstance(source, str) or not source.strip():
            raise JobOptionsError("source must be a non-empty string")
        if entity is not None and not isinstance(entity, str):
            raise JobOptionsError("entity must be a string")
        if label is not None and not isinstance(label, str):
            raise JobOptionsError("label must be a string")
        job_options = build_job_options(self.options, options)
        job = Job(
            id=new_run_id(),
            label=label or f"<job {entity or 'vass'}>",
            source=source,
            entity=entity,
            options=job_options,
            created_ts=time.time(),
            events=JobEventLog(),
        )
        with self._lock:
            if self._closed:
                raise QueueFullError("server is shutting down")
            queued = sum(
                1 for j in self._jobs.values()
                if j.status == STATUS_QUEUED
            )
            if queued >= self.queue_limit:
                raise QueueFullError(
                    f"job queue is full ({queued} waiting, "
                    f"limit {self.queue_limit})"
                )
            self._prune_locked()
            self._jobs[job.id] = job
        # Seq 0 of the job's run: the queued lifecycle event, published
        # outside the manager lock (bus dispatch takes its own lock and
        # calls back into route()).
        bus = active_bus()
        if bus is not None:
            with run_scope(job.id):
                bus.publish(
                    CATEGORY_LIFECYCLE,
                    {"kind": "job", "phase": "queued", "label": job.label},
                )
        self._pool.submit(self._execute, job)
        return job

    def _prune_locked(self) -> None:
        """Drop the oldest terminal jobs once :data:`DEFAULT_MAX_JOBS`
        is exceeded."""
        overflow = len(self._jobs) + 1 - DEFAULT_MAX_JOBS
        if overflow <= 0:
            return
        for job_id in [
            job.id for job in self._jobs.values() if job.terminal
        ][:overflow]:
            del self._jobs[job_id]

    # -- execution (worker threads) -----------------------------------------

    def _execute(self, job: Job) -> None:
        with self._lock:
            if job.status != STATUS_QUEUED:
                # Cancelled while queued: cancel() already finished it.
                return
            job.status = STATUS_RUNNING
            job.started_ts = time.time()
        bus = active_bus()
        with run_scope(job.id):
            if bus is not None:
                bus.publish(
                    CATEGORY_LIFECYCLE,
                    {"kind": "job", "phase": "running", "label": job.label},
                )
            entry, unfinished = self._run(job)
        self._finish(job, entry, unfinished)

    def _run(self, job: Job):
        """Run one job's task on the runner: ``(entry, unfinished)``.

        The job's token is the run context, so a cancel reaches every
        checkpoint of an inline run; the process runner relays
        ``future.cancel()`` to the worker instead.  A task that never
        reached the end of its run — crashed or timed-out worker,
        cancelled before it started — surfaces as a FAILED or
        CANCELLED entry with the error as ``unfinished``, never a hang.
        """
        from concurrent.futures import CancelledError as FutureCancelled

        with run_context(RunContext(token=job.token)):
            future = self._runner.submit(
                _run_job, job.source, job.label, job.entity, job.options,
                self.library,
            )
        with self._lock:
            job.future = future
        if job.cancel_requested:
            # cancel() raced ahead of the submission; relay it now so
            # the worker-side token still gets the request.
            future.cancel()
        try:
            entry, job.artifacts = future.result()
        except (FutureCancelled, VaseError) as err:
            if isinstance(err, FutureCancelled):
                err = CancelledError(job.token.reason or "cancelled")
            entry = BatchEntry(
                file=job.label, status=error_outcome(err), error=str(err),
            )
            return entry, err
        finally:
            with self._lock:
                job.future = None
        return entry, None

    def _finish(
        self, job: Job, entry, unfinished: Optional[BaseException] = None,
    ) -> None:
        """Terminal bookkeeping of a job, however it ended.

        Publishes the job's terminal lifecycle event, copies the entry
        onto the job and closes its event log.  ``unfinished`` is the
        error of a job whose run never reached its end (so wrote no
        ledger record): the manager records that job itself.
        """
        bus = active_bus()
        if bus is not None:
            with run_scope(job.id):
                bus.publish(
                    CATEGORY_LIFECYCLE, entry.terminal_payload("job", "label")
                )
        ledger = job.options.ledger
        if unfinished is not None and ledger is not None:
            try:
                ledger.append(record_for_failure(
                    job.id, job.source, job.label, entry.elapsed_s,
                    job.options, unfinished,
                ))
            except OSError:  # pragma: no cover - ledger on a full disk
                pass
        with self._lock:
            job.design = entry.design
            job.summary = entry.summary
            job.error = entry.error
            job.errors = list(entry.errors)
            job.warnings = list(entry.warnings)
            job.recovery = list(entry.recovery)
            job.elapsed_s = entry.elapsed_s
            job.finished_ts = time.time()
            job.status = entry.status
            self.done[entry.status] = self.done.get(entry.status, 0) + 1
        # Terminal status is visible before close(): an SSE handler
        # woken by close() always observes the final state.
        job.events.close()

    # -- queries -------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no job {job_id!r}")
        return job

    def jobs(self) -> List[Job]:
        """Every known job, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, object]:
        """The /metrics gauges: queue depth, running, done by outcome."""
        with self._lock:
            statuses = [job.status for job in self._jobs.values()]
            return {
                "queued": statuses.count(STATUS_QUEUED),
                "running": statuses.count(STATUS_RUNNING),
                "done": dict(self.done),
            }

    # -- lifecycle -----------------------------------------------------------

    def cancel(self, job_id: str, reason: str = "cancelled by request") -> Job:
        """Cancel one job; returns it with the cancel under way.

        A *queued* job is dequeued and finished immediately (terminal
        ``cancelled`` status, ledger record, closed event log — its
        scheduled execution slot becomes a no-op).  A *running* job is
        cancelled cooperatively: its token is set, so the flow abandons
        work at the next checkpoint; under the ``process`` backend the
        request is additionally relayed to the worker over its pipe.
        A terminal job raises :class:`JobConflictError`.
        """
        job = self.get(job_id)
        with self._lock:
            if job.terminal:
                raise JobConflictError(
                    f"job {job.id} is already {job.status}"
                )
            job.cancel_requested = True
            was_queued = job.status == STATUS_QUEUED
            if was_queued:
                # Terminal at once, so _execute never starts the job.
                job.status = STATUS_CANCELLED
            future = job.future
        job.token.cancel(reason)
        if future is not None:
            future.cancel()
        if was_queued:
            self._finish(
                job,
                BatchEntry(
                    file=job.label, status=STATUS_CANCELLED, error=reason,
                ),
                CancelledError(reason),
            )
        return job

    def drain(self, timeout_s: float = 30.0) -> Dict[str, int]:
        """Graceful shutdown: stop admission, finish, then cancel.

        Closes admission (further submits get
        :class:`QueueFullError`/503), cancels every still-queued job
        immediately, lets running jobs finish for up to ``timeout_s``
        seconds, cancels the stragglers cooperatively, and finally
        shuts the worker pools down.  Returns ``{"finished": ...,
        "cancelled": ...}`` for the operator log line.
        """
        with self._lock:
            self._closed = True
            snapshot = list(self._jobs.values())
        for job in snapshot:
            if job.status == STATUS_QUEUED:
                try:
                    self.cancel(
                        job.id, reason="server draining: job dequeued"
                    )
                except JobError:  # started or finished meanwhile
                    pass
        deadline = time.monotonic() + max(0.0, timeout_s)
        while time.monotonic() < deadline:
            if not any(
                job.status in (STATUS_QUEUED, STATUS_RUNNING)
                for job in snapshot
            ):
                break
            time.sleep(0.05)
        for job in snapshot:
            if job.status in (STATUS_QUEUED, STATUS_RUNNING):
                try:
                    self.cancel(
                        job.id,
                        reason="server draining: drain timeout expired",
                    )
                except JobError:
                    pass
        self.stop(wait=True)
        return {
            "finished": sum(
                1 for job in snapshot
                if job.status in OUTCOMES
            ),
            "cancelled": sum(
                1 for job in snapshot
                if job.status == STATUS_CANCELLED
            ),
        }

    def stop(self, wait: bool = True) -> None:
        """Refuse new jobs and shut the worker pool(s) down."""
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)
        self._runner.shutdown(wait=wait)
