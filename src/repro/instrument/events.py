"""The unified telemetry bus: one event stream for the whole flow.

PRs 1-3 grew three observability channels — trace spans, the metrics
registry, the exploration log — plus recovery events, cache counters
and batch buckets, each with its own shape and its own output path.
This module gives them a single spine: a thread-safe publish/subscribe
**bus** carrying typed, JSON-ready :class:`TelemetryEvent` records.
Every existing channel publishes into it (tracer span open/close,
metric deltas, explog decisions, recovery-ladder attempts, artifact
cache hits/misses/stores, per-file batch lifecycle), and subscribers
consume the one merged stream:

* :class:`JsonlSink` — one JSON line per event
  (``FlowOptions.telemetry`` / ``vase synth --events FILE``);
* :class:`RingBuffer` — a bounded in-memory buffer for programmatic
  consumers (``vase serve`` replays per-job buffers over SSE);
* :class:`ProgressRenderer` — a live TTY view of batch lifecycle
  events (``vase batch --progress``).

Event identity:

* ``run_id`` — one id per synthesis (or batch) run, established with
  :func:`run_scope`; worker threads inherit the id through the thunks
  the pool runs, so a parallel run still tags every event with the run
  that caused it;
* ``seq`` — strictly monotonic *per run id*, assigned under the bus
  lock, so subscribers see each run's events in a total order with no
  gaps and no duplicates;
* ``ts`` — wall-clock epoch seconds, correlatable with the explog's
  ``ts`` field and the ledger records;
* ``category`` — one of :data:`CATEGORIES`;
* ``payload`` — the category-specific dict.

Activation mirrors the tracer/explog pattern but is process-global
(the whole point is merging events from many threads): hot call sites
guard every publish with ``active_bus() is None``, so the disabled
path costs one module-global load and nothing else — no events, no
allocations.  Subscriber callbacks run under the bus lock (delivery
order therefore matches ``seq`` order); they must be fast and must not
block.  A subscriber that raises is counted (``TelemetryBus.errors``)
and skipped, never allowed to kill a synthesis run.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, IO, List, Optional, Union

from repro.instrument.ledger import ALL_OUTCOMES

#: Event categories, the ``category`` field of every event.
CATEGORY_SPAN = "span"          # tracer span open/close
CATEGORY_METRIC = "metric"      # metrics-registry deltas
CATEGORY_EXPLOG = "explog"      # exploration-log decisions
CATEGORY_RECOVERY = "recovery"  # recovery-ladder attempts
CATEGORY_CACHE = "cache"        # artifact-cache hit/miss/store/evict
CATEGORY_LIFECYCLE = "lifecycle"  # run / per-file batch lifecycle
CATEGORY_CANCELLED = "cancelled"  # cancellation requests and outcomes
CATEGORY_RETRY = "retry"          # executor transient-failure retries

CATEGORIES = (
    CATEGORY_SPAN,
    CATEGORY_METRIC,
    CATEGORY_EXPLOG,
    CATEGORY_RECOVERY,
    CATEGORY_CACHE,
    CATEGORY_LIFECYCLE,
    CATEGORY_CANCELLED,
    CATEGORY_RETRY,
)


@dataclass(frozen=True)
class TelemetryEvent:
    """One record on the bus: who, when, what kind, and the payload."""

    run_id: str
    #: strictly monotonic within ``run_id``, assigned by the bus
    seq: int
    #: wall-clock epoch seconds at publish time
    ts: float
    category: str
    payload: Dict[str, object]

    def as_dict(self) -> Dict[str, object]:
        return {
            "run_id": self.run_id,
            "seq": self.seq,
            "ts": self.ts,
            "category": self.category,
            "payload": dict(self.payload),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), default=str)


def new_run_id() -> str:
    """A fresh run id (12 hex chars — short enough to read, unique
    enough for a ledger)."""
    return uuid.uuid4().hex[:12]


# -- the current run id (per thread, propagated into pools by callers) ------

_RUN_TLS = threading.local()


def current_run_id() -> Optional[str]:
    """The run id established by the innermost :func:`run_scope`."""
    return getattr(_RUN_TLS, "run_id", None)


class run_scope:
    """Context manager: tag this thread's events with ``run_id``.

    Nested scopes restore the previous id on exit.  Worker-pool code
    captures ``current_run_id()`` on the submitting thread and enters a
    ``run_scope`` inside each thunk, so events published from workers
    carry the submitting run's id.
    """

    def __init__(self, run_id: Optional[str]):
        self.run_id = run_id
        self._previous: Optional[str] = None

    def __enter__(self) -> "run_scope":
        self._previous = current_run_id()
        _RUN_TLS.run_id = self.run_id
        return self

    def __exit__(self, *exc) -> bool:
        _RUN_TLS.run_id = self._previous
        return False


#: run id used for events published outside any :func:`run_scope`
UNSCOPED_RUN = "-"


class TelemetryBus:
    """Thread-safe publish/subscribe hub for :class:`TelemetryEvent`s.

    One lock covers sequence assignment *and* subscriber dispatch, so
    every subscriber observes each run's events in ``seq`` order.  The
    lock is re-entrant: a subscriber may itself publish (e.g. a metric
    incremented from inside a sink) without deadlocking.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._subscribers: List[Callable[[TelemetryEvent], None]] = []
        self._seqs: Dict[str, int] = {}
        #: events published, per category (under the lock)
        self.counts: Dict[str, int] = {}
        #: subscriber callbacks that raised (events are never lost to
        #: the *other* subscribers)
        self.errors: int = 0

    # -- wiring ------------------------------------------------------------

    def subscribe(
        self, subscriber: Callable[[TelemetryEvent], None]
    ) -> Callable[[TelemetryEvent], None]:
        """Register ``subscriber``; returns it (decorator-friendly)."""
        with self._lock:
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(
        self, subscriber: Callable[[TelemetryEvent], None]
    ) -> None:
        with self._lock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

    # -- publishing (hot path while a bus is active) -----------------------

    def publish(
        self,
        category: str,
        payload: Dict[str, object],
        run_id: Optional[str] = None,
    ) -> TelemetryEvent:
        """Emit one event; returns the published record.

        ``run_id`` defaults to this thread's :func:`current_run_id`
        (:data:`UNSCOPED_RUN` when none is established).
        """
        rid = run_id or current_run_id() or UNSCOPED_RUN
        with self._lock:
            seq = self._seqs.get(rid, 0)
            self._seqs[rid] = seq + 1
            event = TelemetryEvent(
                run_id=rid,
                seq=seq,
                ts=time.time(),
                category=category,
                payload=payload,
            )
            self.counts[category] = self.counts.get(category, 0) + 1
            for subscriber in self._subscribers:
                try:
                    subscriber(event)
                except Exception:  # noqa: BLE001 - never kill the flow
                    self.errors += 1
                    self._count_subscriber_error()
        return event

    @staticmethod
    def _count_subscriber_error() -> None:
        """Mirror a swallowed subscriber exception into the metrics
        registry so a broken sink (e.g. a dead SSE client) is visible.

        ``publish=False`` keeps the increment off the bus: publishing
        from inside dispatch would re-enter the failing subscriber and
        recurse without bound.
        """
        from repro.instrument.metrics import metrics

        metrics().inc("telemetry.subscriber_errors", publish=False)

    # -- introspection ------------------------------------------------------

    def published(self) -> int:
        """Total events published across all categories."""
        with self._lock:
            return sum(self.counts.values())

    def last_seq(self, run_id: str) -> int:
        """Events published so far for ``run_id`` (== next seq)."""
        with self._lock:
            return self._seqs.get(run_id, 0)

    def stats(self) -> Dict[str, object]:
        """Plain-data health summary: published counts, runs, errors."""
        with self._lock:
            return {
                "published": sum(self.counts.values()),
                "counts": dict(sorted(self.counts.items())),
                "runs": len(self._seqs),
                "subscribers": len(self._subscribers),
                "subscriber_errors": self.errors,
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"<TelemetryBus subscribers={len(self._subscribers)} "
                f"published={sum(self.counts.values())} "
                f"runs={len(self._seqs)} errors={self.errors}>"
            )


# -- subscribers -------------------------------------------------------------


class JsonlSink:
    """Write every event as one JSON line (file path or open stream).

    Thread-safe; when constructed from a path the file is opened
    immediately (truncating) and :meth:`close` — or use as a context
    manager — flushes and closes it.

    Flush policy: the default ``flush_every=1`` flushes after every
    event, so the file can be tailed live and tests can read it
    mid-run.  Hot runs publish thousands of events, where a flush (a
    syscall) per event dominates the sink cost; ``flush_every=N``
    batches the flushes (the pending tail is flushed on :meth:`close`).
    """

    def __init__(
        self,
        target: Union[str, IO[str]],
        flush_every: int = 1,
    ):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self._lock = threading.Lock()
        if isinstance(target, str):
            self._stream: IO[str] = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self._stream = target
            self._owns = False
        self.written = 0
        self.flush_every = flush_every
        #: flush() calls actually issued (tests and benchmarks)
        self.flushes = 0
        self._pending = 0

    def __call__(self, event: TelemetryEvent) -> None:
        line = event.to_json()
        with self._lock:
            self._stream.write(line + "\n")
            self.written += 1
            self._pending += 1
            if self._pending >= self.flush_every:
                self._flush_locked()

    def _flush_locked(self) -> None:
        self._stream.flush()
        self.flushes += 1
        self._pending = 0

    def close(self) -> None:
        with self._lock:
            if self._pending:
                self._flush_locked()
            else:
                self._stream.flush()
            if self._owns:
                self._stream.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class RingBuffer:
    """Bounded in-memory subscriber: keeps the newest ``capacity``
    events.

    The programmatic consumer surface: ``vase serve`` keeps one per
    job for SSE replay, tests assert on it.  ``deque`` appends are
    atomic, so no extra lock is needed on the publish path.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        #: events pushed out of the buffer by newer ones
        self.dropped = 0

    def __call__(self, event: TelemetryEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[TelemetryEvent]:
        """A snapshot of the buffered events, oldest first."""
        return list(self._events)

    def drain(self) -> List[TelemetryEvent]:
        """Pop and return everything buffered, oldest first."""
        out: List[TelemetryEvent] = []
        while True:
            try:
                out.append(self._events.popleft())
            except IndexError:
                return out


@dataclass
class ProgressCounts:
    """Running per-status tallies of a batch run."""

    queued: int = 0
    done: int = 0
    ok: int = 0
    degraded: int = 0
    failed: int = 0
    cancelled: int = 0


class ProgressRenderer:
    """Live TTY view of batch lifecycle events (``--progress``).

    Subscribes to the bus and prints one line per finished file with
    running ok/degraded/failed counts — driven entirely by bus events,
    not by ad-hoc prints in the batch runner.
    """

    #: lifecycle phases that terminate one file
    TERMINAL = ALL_OUTCOMES

    def __init__(self, stream: Optional[IO[str]] = None):
        import sys

        self._stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()
        self.counts = ProgressCounts()

    def __call__(self, event: TelemetryEvent) -> None:
        if event.category != CATEGORY_LIFECYCLE:
            return
        payload = event.payload
        if payload.get("kind") != "file":
            return
        phase = payload.get("phase")
        with self._lock:
            if phase == "queued":
                self.counts.queued += 1
                return
            if phase not in self.TERMINAL:
                return
            self.counts.done += 1
            setattr(
                self.counts, str(phase),
                getattr(self.counts, str(phase)) + 1,
            )
            total = self.counts.queued or self.counts.done
            self._stream.write(
                f"[{self.counts.done}/{total}] {str(phase).upper():<9}"
                f" {payload.get('file', '?')}"
                f"  (ok {self.counts.ok}, degraded {self.counts.degraded},"
                f" failed {self.counts.failed})\n"
            )
            self._stream.flush()


# -- the active bus (process-global) -----------------------------------------
#
# Unlike the tracer and the explog, the bus is deliberately *not*
# thread-local: its purpose is to merge events from every thread of a
# run (worker pools included) into one stream.  Reads of the module
# global are atomic; installation is rare and lock-protected.

_ACTIVE: Optional[TelemetryBus] = None
_ACTIVE_LOCK = threading.Lock()


def active_bus() -> Optional[TelemetryBus]:
    """The process-wide bus, or ``None`` while telemetry is off.

    Hot call sites call this once per publish and guard with
    ``is None`` — the whole disabled cost.
    """
    return _ACTIVE


def enable_telemetry(bus: Optional[TelemetryBus] = None) -> TelemetryBus:
    """Install ``bus`` (or a fresh one) as the process-wide bus."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = bus if bus is not None else TelemetryBus()
        return _ACTIVE


def disable_telemetry() -> Optional[TelemetryBus]:
    """Deactivate telemetry; returns the bus that was active."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        bus = _ACTIVE
        _ACTIVE = None
        return bus


class telemetry:
    """Context manager: activate a bus, restoring the previous one.

    >>> with telemetry() as bus:
    ...     bus.subscribe(ring := RingBuffer())
    ...     synthesize(source)
    >>> ring.events()
    """

    def __init__(self, bus: Optional[TelemetryBus] = None):
        self._bus = bus if bus is not None else TelemetryBus()
        self._previous: Optional[TelemetryBus] = None

    def __enter__(self) -> TelemetryBus:
        global _ACTIVE
        with _ACTIVE_LOCK:
            self._previous = _ACTIVE
            _ACTIVE = self._bus
        return self._bus

    def __exit__(self, *exc) -> bool:
        global _ACTIVE
        with _ACTIVE_LOCK:
            _ACTIVE = self._previous
        return False
