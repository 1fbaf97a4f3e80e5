"""Pluggable execution backends: one API, three ways to run tasks.

Every parallel surface of the flow — ``FlowOptions.explore_solvers``,
``vase batch``, the ``vase serve`` resident pool — runs its tasks on
one of these backends.  Threads are the wrong tool for the CPU-bound
half of the flow: the branch-and-bound mapper and the MNA
factorizations serialize on the GIL, so a thread pool buys fault
isolation and overlap of the (small) I/O slices but no multi-core
speedup.  This module makes the executor a first-class choice:

``serial``
    Run tasks inline on the calling thread, in order.  The reference
    semantics every other backend must be output-identical to.
``thread``
    A bounded :class:`~concurrent.futures.ThreadPoolExecutor`.
    Cheap to start, shares all in-process state (artifact cache
    memory tier, metrics registry, telemetry bus) — but GIL-bound.
``process``
    ``multiprocessing`` **spawn** workers behind a Pipe task bridge.
    True multi-core execution of CPU-bound synthesis.  Tasks cross
    the pickling boundary: a task is a *module-level function* plus
    picklable arguments, results and escaped exceptions are pickled
    back.  The types that hold live state decide how they cross, so a
    caller submits the same task to every backend:
    :class:`~repro.flow.FlowOptions` leaves its telemetry bus and
    ledger home and arrives serial (a worker never spawns a pool of
    its own), and an :class:`~repro.pipeline.cache.ArtifactCache`
    arrives as the worker's per-process cache over the same on-disk
    tier — the shared store across workers.  Each ``done`` message
    carries the worker caches' counter delta for the task and the
    task's metric-counter delta, folded into the submitting side's
    cache and metrics registry before the future resolves.  Telemetry
    events published inside a worker are forwarded over the result
    channel and re-published onto the submitting run's bus, so per-run
    seqs stay dense no matter where the event originated.

All backends implement the same :class:`Executor` interface:
``submit`` (one task, returns a :class:`~concurrent.futures.Future`),
``map_ordered`` (a batch, results in submission order), ``shutdown``,
and context-manager use.  ``map_ordered`` cancels every outstanding
future before propagating an escaped task exception, so a failing
task never leaks the remaining work into the background.

Worker lifecycle of the ``process`` backend: workers are spawned
eagerly, live for the executor's lifetime (one interpreter start and
one ``import repro`` per worker, amortized over all its tasks), and
are shut down gracefully with a poison-pill message.  A worker that
crashes (killed, segfaulted, ``os._exit``) is detected by EOF on its
pipe: its in-flight task is *retried* with exponential backoff and
deterministic jitter (crashes are transient until proven otherwise)
while a replacement worker is spawned; once the bounded retries are
exhausted — or a per-task circuit breaker trips after consecutive
crashes of the same task, so a poisoned input cannot crash-loop the
pool — the task fails with a
:class:`~repro.robust.lifecycle.WorkerCrashError` — never a hang.

Cancellation: each backend participates in the run-lifecycle layer
(:mod:`repro.robust.lifecycle`).  ``serial`` runs inline under the
caller's active context; ``thread`` re-enters the submitting thread's
context on the worker thread; ``process`` installs a fresh context in
the worker and relays ``Future.cancel()`` on a *running* task over the
worker's pipe, cancelling that context's token — the task then
abandons work at its next cooperative checkpoint and the future
completes with :class:`~repro.robust.lifecycle.CancelledError`.

Imports from :mod:`repro.robust.lifecycle` are deliberately deferred
to call sites: ``repro.robust`` imports ``repro.pipeline`` back (for
the batch runner), so a module-level import here would make the
package initialisation order circular.
"""

from __future__ import annotations

import pickle
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import connection, get_context
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.diagnostics import VaseError
from repro.instrument.metrics import metrics

#: The executor kinds ``ParallelOptions.executor`` accepts.
EXECUTOR_KINDS = ("serial", "thread", "process")

#: Poison pill sent to a process worker to make it exit its loop.
_PILL = None

#: How long ``shutdown`` waits for a worker to exit after the pill
#: before terminating it.
_JOIN_TIMEOUT_S = 5.0

#: Bridge-thread poll interval (retry-backoff granularity).
_POLL_S = 0.2


@dataclass(frozen=True)
class ParallelOptions:
    """Where and how wide parallel work runs.

    The executor *kind* and the worker count are one value, validated
    at construction, carried on :class:`~repro.flow.FlowOptions` and
    accepted by ``vase synth|batch|serve --executor/--workers``.
    Deliberately excluded from every content fingerprint (stage cache
    keys, ledger options digests): the backend must never change
    *what* is produced, only how fast.
    """

    #: one of :data:`EXECUTOR_KINDS`
    executor: str = "serial"
    #: worker count (pool width; ignored by ``serial``)
    workers: int = 1

    def __post_init__(self):
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"executor must be one of {'/'.join(EXECUTOR_KINDS)}, "
                f"got {self.executor!r}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def bounded(self, n_tasks: int) -> "ParallelOptions":
        """A copy whose width never exceeds the task count."""
        return ParallelOptions(
            executor=self.executor,
            workers=max(1, min(self.workers, n_tasks)),
        )

    def describe(self) -> str:
        if self.executor == "serial":
            return "serial"
        return f"{self.executor} x{self.workers}"


@dataclass(frozen=True)
class Task:
    """One unit of work: a callable plus positional arguments.

    For the ``process`` backend ``fn`` must be a module-level function
    and ``args`` must pickle (the task crosses a process boundary);
    in-process backends accept anything callable.
    """

    fn: Callable
    args: Tuple = ()


class Executor:
    """The common backend interface (see the module docstring)."""

    #: backend name (one of :data:`EXECUTOR_KINDS`)
    kind: str = "serial"

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    # -- the protocol -------------------------------------------------------

    def submit(self, fn: Callable, *args) -> "Future":
        raise NotImplementedError

    def map_ordered(self, tasks: Sequence[Task]) -> List[object]:
        """Run every task; results in submission order.

        An exception escaping a task propagates to the caller — after
        every outstanding future has been cancelled, so no stray work
        keeps running (or holding pool slots) behind the raise.
        """
        futures = [self.submit(task.fn, *task.args) for task in tasks]
        results: List[object] = []
        try:
            for future in futures:
                results.append(future.result())
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return results

    def shutdown(self, wait: bool = True) -> None:
        pass

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown(wait=True)
        return False


class SerialExecutor(Executor):
    """Run tasks inline, in submission order — the reference backend."""

    kind = "serial"

    def __init__(self):
        super().__init__(workers=1)

    def submit(self, fn: Callable, *args) -> "Future":
        future: "Future" = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(*args))
        except BaseException as err:  # noqa: BLE001 - future carries it
            future.set_exception(err)
        return future

    def map_ordered(self, tasks: Sequence[Task]) -> List[object]:
        # Inline and lazy: a raising task means the tasks after it are
        # never started — exactly the pre-executor serial semantics.
        return [task.fn(*task.args) for task in tasks]


class ThreadExecutor(Executor):
    """The bounded in-process thread pool (GIL-bound but cheap).

    The submitting thread's telemetry run id and lifecycle context are
    captured per task and re-entered on the worker thread, so events
    from workers land on the run that submitted them and a cancel of
    its token reaches them.
    """

    kind = "thread"

    def __init__(self, workers: int):
        super().__init__(workers=workers)
        self._pool = ThreadPoolExecutor(max_workers=workers)

    def submit(self, fn: Callable, *args) -> "Future":
        from repro.instrument.events import current_run_id, run_scope
        from repro.robust.lifecycle import active_context, run_context

        rid = current_run_id()
        context = active_context()

        def run():
            with run_scope(rid):
                if context is None:
                    return fn(*args)
                # Re-enter the submitter's lifecycle context so a
                # cancel of its token reaches work on pool threads.
                with run_context(context):
                    return fn(*args)

        return self._pool.submit(run)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)


# -- the process backend ------------------------------------------------------


def _jsonable_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """A payload reduced to plain JSON-ready data (events must cross
    the pipe even when a publisher attached an exotic object)."""
    import json

    try:
        return json.loads(json.dumps(payload, default=str))
    except (TypeError, ValueError):
        return {"unforwardable": repr(payload)}


def _encode_error(err: BaseException) -> Tuple[Optional[bytes], str, str]:
    """(pickled exception or None, summary text, traceback text)."""
    summary = f"{type(err).__name__}: {err}"
    tb = "".join(traceback.format_exception(type(err), err, err.__traceback__))
    try:
        return pickle.dumps(err), summary, tb
    except Exception:  # noqa: BLE001 - exotic exception state
        return None, summary, tb


def _decode_error(encoded: Tuple[Optional[bytes], str, str]) -> BaseException:
    payload, summary, tb = encoded
    if payload is not None:
        try:
            return pickle.loads(payload)
        except Exception:  # noqa: BLE001 - fall through to the summary
            pass
    return VaseError(f"worker task failed: {summary}\n{tb}")


def _worker_main(conn) -> None:
    """The loop of one spawn worker: recv task, run, send result.

    Messages from the parent are ``("task", task_id, fn, args, run_id,
    forward)`` tuples, ``("cancel", task_id)`` requests, or the poison
    pill (``None``) meaning exit.  Replies are
    ``("event", task_id, category, payload)`` — telemetry forwarded
    live while the task runs — and one terminal ``("done", task_id,
    ok, value, cache_delta, counted)``, where ``cache_delta`` is what
    this process's worker caches counted during the task and
    ``counted`` what its metric counters counted.  All sends happen
    from the main thread, in order, so the parent always sees a task's
    events before its result.

    A dedicated *listener* thread drains the pipe so a ``cancel``
    request is seen while a task runs: it cancels the current task's
    lifecycle token, and the task abandons work at its next
    cooperative checkpoint (the raised ``CancelledError`` ships back
    like any other task exception).
    """
    import queue as queue_mod
    import signal
    from contextlib import ExitStack

    from repro.instrument.events import TelemetryBus, run_scope, telemetry
    from repro.pipeline.cache import stats_delta, worker_stats
    from repro.robust.lifecycle import (
        CancellationToken,
        CancelledError,
        RunContext,
        run_context,
    )

    try:  # the parent handles interrupts; workers die by pill or pipe
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass

    inbox: "queue_mod.Queue" = queue_mod.Queue()
    current_lock = threading.Lock()
    current: Dict[str, object] = {"id": None, "token": None}
    #: cancel requests that arrived before their task left the inbox
    early_cancels: set = set()

    def listen() -> None:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                inbox.put(_PILL)
                return
            if message is _PILL:
                inbox.put(_PILL)
                return
            if message[0] == "cancel":
                _mkind, target_id = message
                with current_lock:
                    if current["id"] == target_id:
                        token = current["token"]
                    else:
                        # The task message is still in the inbox (or in
                        # flight): remember the cancel so the main loop
                        # never starts the task at all.
                        early_cancels.add(target_id)
                        token = None
                if token is not None:
                    token.cancel("cancelled by the submitting process")
                continue
            inbox.put(message)

    threading.Thread(
        target=listen, name="vase-worker-listener", daemon=True
    ).start()

    while True:
        message = inbox.get()
        if message is _PILL:
            break
        _mkind, task_id, fn, args, run_id, forward = message

        with current_lock:
            cancelled_early = task_id in early_cancels
            early_cancels.discard(task_id)
        if cancelled_early:
            conn.send(("done", task_id, False, _encode_error(
                CancelledError(
                    "task cancelled before it started on the worker"
                )
            ), {}, {}))
            continue

        def forward_event(event, _tid=task_id):
            try:
                conn.send((
                    "event", _tid, event.category,
                    _jsonable_payload(event.payload),
                ))
            except Exception:  # noqa: BLE001 - never kill the task
                pass

        token = CancellationToken()
        with current_lock:
            current["id"] = task_id
            current["token"] = token
        before = worker_stats()
        counters_before = metrics().counters()
        ok = True
        try:
            with ExitStack() as stack:
                if forward:
                    bus = TelemetryBus()
                    bus.subscribe(forward_event)
                    stack.enter_context(telemetry(bus))
                if run_id is not None:
                    stack.enter_context(run_scope(run_id))
                stack.enter_context(run_context(RunContext(token=token)))
                value = fn(*args)
        except BaseException as err:  # noqa: BLE001 - shipped to parent
            ok = False
            value = _encode_error(err)
        finally:
            with current_lock:
                current["id"] = None
                current["token"] = None
        delta = stats_delta(before, worker_stats())
        counted = {
            name: total - counters_before.get(name, 0)
            for name, total in metrics().counters().items()
            if total != counters_before.get(name, 0)
        }
        try:
            conn.send(("done", task_id, ok, value, delta, counted))
        except Exception as err:  # noqa: BLE001 - unpicklable result
            conn.send((
                "done", task_id, False,
                _encode_error(VaseError(
                    f"task result is not picklable: {err!r}"
                )),
                delta,
                counted,
            ))
    conn.close()


class _TaskFuture(Future):
    """A future whose ``cancel()`` also reaches *running* tasks.

    While the task is queued this behaves exactly like a standard
    future.  Once the task runs on a worker process, ``cancel()``
    relays a cooperative cancel request over the worker's pipe: the
    worker cancels the task's lifecycle token and the task abandons
    work at its next checkpoint, completing this future with
    :class:`~repro.robust.lifecycle.CancelledError`.  The True return
    then means the request was *delivered*, not that the task already
    stopped.
    """

    def __init__(self, executor: "ProcessExecutor", task_id: int):
        super().__init__()
        self._vase_executor = executor
        self._vase_task_id = task_id

    def cancel(self) -> bool:
        if super().cancel():
            return True
        if self.done():
            return False
        return self._vase_executor._cancel_task(self._vase_task_id)


@dataclass
class _Pending:
    """Parent-side bookkeeping of one submitted process task."""

    id: int
    fn: Callable
    args: Tuple
    run_id: Optional[str]
    forward: bool
    future: "Future" = field(default_factory=Future)
    #: stable task identity for retry jitter and the circuit breaker
    fingerprint: str = ""
    #: retry attempt number (0 = first execution)
    attempt: int = 0
    #: earliest monotonic time the next attempt may dispatch
    not_before: float = 0.0
    #: a cooperative cancel was requested for this task
    cancel_requested: bool = False


class _WorkerHandle:
    """One spawn worker: its process, pipe, and current assignment."""

    def __init__(self, ctx, index: int):
        self.index = index
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"vase-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # parent keeps only its end
        self.busy: Optional[_Pending] = None


class ProcessExecutor(Executor):
    """Spawn-worker pool behind a Pipe task bridge (see module doc).

    A dedicated *bridge* thread owns all scheduling: it assigns queued
    tasks to idle workers, multiplexes result pipes with
    :func:`multiprocessing.connection.wait`, re-publishes forwarded
    telemetry onto the parent's active bus, resolves futures, detects
    crashed workers by pipe EOF (retrying or failing their in-flight
    task and spawning a replacement).

    ``cache`` is the submitting side's artifact cache: each task's
    worker-cache counter delta is folded into its stats before the
    task's future resolves.  The task's metric-counter delta is folded
    into this process's :func:`~repro.instrument.metrics.metrics`
    registry at the same point, so a task counts the same on every
    backend.
    """

    kind = "process"

    def __init__(
        self,
        workers: int,
        retry: Optional["RetryPolicy"] = None,
        cache: Optional["ArtifactCache"] = None,
    ):
        from repro.robust.lifecycle import RetryPolicy

        super().__init__(workers=workers)
        self._cache = cache
        self._retry = retry if retry is not None else RetryPolicy()
        self._ctx = get_context("spawn")
        self._lock = threading.Lock()
        self._queue: Deque[_Pending] = deque()
        #: retried tasks waiting out their backoff delay
        self._delayed: List[_Pending] = []
        #: consecutive crash count per task fingerprint
        self._crashes: Dict[str, int] = {}
        #: tripped circuit breakers: task fingerprint -> reason
        self._broken: Dict[str, str] = {}
        self._handles: List[_WorkerHandle] = []
        self._next_id = 0
        self._closed = False
        self._stopping = False
        self._idle = threading.Condition(self._lock)
        # Self-pipe: submit() pokes the bridge out of its wait().
        self._wake_recv, self._wake_send = self._ctx.Pipe(duplex=False)
        for index in range(workers):
            self._handles.append(_WorkerHandle(self._ctx, index))
        self._bridge = threading.Thread(
            target=self._bridge_loop, name="vase-executor-bridge",
            daemon=True,
        )
        self._bridge.start()

    # -- submission ---------------------------------------------------------

    def submit(self, fn: Callable, *args) -> "Future":
        from repro.instrument.events import active_bus, current_run_id
        from repro.robust.lifecycle import task_fingerprint

        with self._lock:
            if self._closed:
                raise RuntimeError("executor is shut down")
            pending = _Pending(
                id=self._next_id,
                fn=fn,
                args=args,
                run_id=current_run_id(),
                forward=active_bus() is not None,
                future=_TaskFuture(self, self._next_id),
                fingerprint=task_fingerprint(fn, args),
            )
            self._next_id += 1
            self._queue.append(pending)
        self._wake()
        return pending.future

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"x")
        except (OSError, ValueError):  # pragma: no cover - closing race
            pass

    # -- the bridge thread --------------------------------------------------

    def _bridge_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopping:
                    break
                self._promote_due_locked(time.monotonic())
                self._dispatch_locked()
                conns = [
                    handle.conn for handle in self._handles
                ] + [self._wake_recv]
            try:
                ready = connection.wait(conns, timeout=_POLL_S)
            except OSError:  # pragma: no cover - shutdown race
                ready = []
            for conn in ready:
                if conn is self._wake_recv:
                    try:
                        self._wake_recv.recv()
                    except (EOFError, OSError):
                        pass
                    continue
                self._drain_worker(conn)

    def _promote_due_locked(self, now: float) -> None:
        """Move retries whose backoff elapsed back into the queue."""
        if not self._delayed:
            return
        due = [p for p in self._delayed if p.not_before <= now]
        if due:
            self._delayed = [
                p for p in self._delayed if p.not_before > now
            ]
            self._queue.extend(sorted(due, key=lambda p: p.id))

    def _dispatch_locked(self) -> None:
        """Hand queued tasks to idle workers (under the lock)."""
        for handle in self._handles:
            if handle.busy is not None:
                continue
            while self._queue:
                pending = self._queue.popleft()
                if pending.attempt == 0:
                    if not pending.future.set_running_or_notify_cancel():
                        continue  # cancelled while queued
                elif pending.future.done():
                    continue  # resolved while awaiting retry
                if pending.fingerprint in self._broken:
                    pending.future.set_exception(VaseError(
                        f"circuit breaker open: "
                        f"{self._broken[pending.fingerprint]}"
                    ))
                    self._idle.notify_all()
                    continue
                try:
                    handle.conn.send((
                        "task", pending.id, pending.fn, pending.args,
                        pending.run_id, pending.forward,
                    ))
                except Exception as err:  # noqa: BLE001 - unpicklable task
                    pending.future.set_exception(VaseError(
                        f"task could not be shipped to a worker "
                        f"process: {err}"
                    ))
                    self._idle.notify_all()
                    continue
                handle.busy = pending
                break

    def _drain_worker(self, conn) -> None:
        with self._lock:
            handle = next(
                (h for h in self._handles if h.conn is conn), None
            )
        if handle is None:  # pragma: no cover - already replaced
            return
        try:
            message = conn.recv()
        except (EOFError, OSError):
            self._worker_died(handle)
            return
        kind = message[0]
        if kind == "event":
            _mkind, _tid, category, payload = message
            self._republish(handle, category, payload)
            return
        if kind == "done":
            _mkind, _tid, ok, value, delta, counted = message
            if self._cache is not None:
                self._cache.stats.apply_delta(delta)
            registry = metrics()
            for name, amount in counted.items():
                # The worker published these deltas as metric events,
                # already forwarded; count them without re-emitting.
                registry.inc(name, amount, publish=False)
            with self._lock:
                pending, handle.busy = handle.busy, None
                if pending is not None and ok:
                    # A success resets the consecutive-crash streak.
                    self._crashes.pop(pending.fingerprint, None)
                self._idle.notify_all()
            if pending is None:  # pragma: no cover - defensive
                return
            if ok:
                pending.future.set_result(value)
                return
            error = _decode_error(value)
            if self._maybe_retry(pending, error, crashed=False):
                return
            pending.future.set_exception(error)

    def _republish(self, handle: _WorkerHandle, category: str,
                   payload: Dict[str, object]) -> None:
        """Re-publish one forwarded worker event on the parent bus.

        The parent bus assigns the seq, under its own lock, in arrival
        order — so a run's seqs stay dense even when its events were
        produced in another process."""
        from repro.instrument.events import active_bus

        bus = active_bus()
        pending = handle.busy
        if bus is None or pending is None:
            return
        bus.publish(category, payload, run_id=pending.run_id)

    def _worker_died(self, handle: _WorkerHandle) -> None:
        """EOF on a worker pipe: retry or fail its task, spawn a
        replacement worker."""
        from repro.robust.lifecycle import CancelledError, WorkerCrashError

        with self._lock:
            pending, handle.busy = handle.busy, None
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
            if not self._closed:
                replacement = _WorkerHandle(self._ctx, handle.index)
                self._handles[self._handles.index(handle)] = replacement
            else:
                self._handles.remove(handle)
            self._idle.notify_all()
        handle.process.join(timeout=0.5)
        if pending is None:
            return
        if pending.cancel_requested:
            pending.future.set_exception(CancelledError(
                "task cancelled; its worker exited before confirming"
            ))
            return
        error = WorkerCrashError(
            f"pipeline worker crashed while running a task "
            f"(exit code {handle.process.exitcode}, "
            f"attempt {pending.attempt + 1})"
        )
        if self._maybe_retry(pending, error, crashed=True):
            return
        pending.future.set_exception(error)

    def _maybe_retry(
        self, pending: _Pending, error: BaseException, crashed: bool
    ) -> bool:
        """Requeue a transiently-failed task with backoff.

        Returns False when the task must fail for real: the error is
        not transient, retries are exhausted, the task's circuit
        breaker tripped, or the task was cancelled.  Worker
        crashes count toward the breaker; in-band transient errors do
        not (the worker survived them).
        """
        from repro.instrument.events import CATEGORY_RETRY, active_bus
        from repro.robust.lifecycle import is_transient

        if pending.cancel_requested:
            return False
        if not crashed and not is_transient(error):
            return False
        policy = self._retry
        with self._lock:
            if self._closed or self._stopping:
                return False
            if crashed:
                count = self._crashes.get(pending.fingerprint, 0) + 1
                self._crashes[pending.fingerprint] = count
                if count >= policy.breaker_threshold:
                    self._broken.setdefault(
                        pending.fingerprint,
                        f"task crashed its worker {count} consecutive "
                        f"time(s); refusing to run it again",
                    )
                    return False
            if pending.attempt >= policy.max_retries:
                return False
            pending.attempt += 1
            delay = policy.delay_s(pending.fingerprint, pending.attempt)
            pending.not_before = time.monotonic() + delay
            self._delayed.append(pending)
        bus = active_bus()
        if bus is not None:
            bus.publish(CATEGORY_RETRY, {
                "task": pending.fingerprint[:12],
                "attempt": pending.attempt,
                "delay_s": round(delay, 4),
                "crashed": crashed,
                "error": str(error),
            }, run_id=pending.run_id)
        return True

    def _cancel_task(self, task_id: int) -> bool:
        """Cooperatively cancel a task past the queued state."""
        from repro.robust.lifecycle import CancelledError

        awaiting_retry: Optional[_Pending] = None
        with self._lock:
            for pending in self._delayed:
                if pending.id == task_id:
                    awaiting_retry = pending
                    break
            if awaiting_retry is not None:
                self._delayed.remove(awaiting_retry)
                awaiting_retry.cancel_requested = True
                self._idle.notify_all()
            else:
                handle = next(
                    (h for h in self._handles
                     if h.busy is not None and h.busy.id == task_id),
                    None,
                )
                if handle is None:
                    return False
                handle.busy.cancel_requested = True
                try:
                    handle.conn.send(("cancel", task_id))
                except (OSError, ValueError):
                    return False
                return True
        awaiting_retry.future.set_exception(CancelledError(
            "task cancelled while awaiting its retry backoff"
        ))
        return True

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        from repro.robust.lifecycle import CancelledError

        abandoned: List[_Pending] = []
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if wait:
                self._idle.wait_for(
                    lambda: not self._queue
                    and not self._delayed
                    and all(h.busy is None for h in self._handles)
                )
            else:
                # Drain under the lock, resolve futures outside it:
                # cancelling a retried (already-running) future would
                # re-enter _cancel_task and deadlock on self._lock.
                queued = list(self._queue)
                self._queue.clear()
                abandoned = list(self._delayed)
                self._delayed.clear()
                for pending in queued:
                    if pending.attempt == 0:
                        pending.future.cancel()
                    else:
                        abandoned.append(pending)
        for pending in abandoned:
            pending.future.set_exception(CancelledError(
                "executor shut down before the task's retry"
            ))
        with self._lock:
            self._stopping = True
            handles = list(self._handles)
        self._wake()
        self._bridge.join(timeout=_JOIN_TIMEOUT_S)
        for handle in handles:
            try:
                handle.conn.send(_PILL)
            except (OSError, ValueError):
                pass
        for handle in handles:
            handle.process.join(timeout=_JOIN_TIMEOUT_S)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        try:
            self._wake_recv.close()
            self._wake_send.close()
        except OSError:  # pragma: no cover
            pass


def create_executor(
    options: Optional[ParallelOptions] = None,
    cache: Optional["ArtifactCache"] = None,
) -> Executor:
    """The backend for ``options`` (default: serial).

    ``thread`` with one worker degrades to :class:`SerialExecutor`
    (a one-thread pool buys nothing); ``process`` always builds the
    pool, even one worker wide — process isolation is part of what
    was asked for.  ``cache`` is the artifact cache the submitted
    tasks work against; the ``process`` backend folds its workers'
    counters into it (in-process backends count there directly).
    """
    options = options or ParallelOptions()
    if options.executor == "process":
        return ProcessExecutor(options.workers, cache=cache)
    if options.executor == "thread" and options.workers > 1:
        return ThreadExecutor(options.workers)
    return SerialExecutor()
