"""Run-lifecycle primitives: cancellation, deadlines, and retry policy.

Long synthesis runs need first-class lifecycle control: a served job
must be cancellable, a whole flow must respect a wall-clock budget, and
transient worker failures must be retried without crash-looping on
poisoned inputs.  This module provides the shared vocabulary:

* :class:`CancellationToken` — a thread-safe, one-way "stop requested"
  flag with a reason.  Cancellation is *cooperative*: holders of the
  token periodically call :func:`checkpoint` and abandon work by
  raising :class:`CancelledError`.
* :class:`RunContext` — a token plus an optional monotonic deadline,
  installed per run (thread-local, like the telemetry run scope).  The
  pipeline checks it at every stage boundary and the mapper checks it
  inside the branch-and-bound loop, generalising the mapper's own
  ``deadline_s`` knob into whole-flow budget propagation.
* :func:`checkpoint` — the module-level cancellation point.  A cheap
  no-op when no context is active, so code outside a managed run pays
  nothing.
* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter (hash-derived, never ``random``), plus the
  circuit-breaker threshold that stops a poisoned task from
  crash-looping a worker pool.

Error taxonomy: :class:`CancelledError` (run abandoned on request) and
its subclass :class:`DeadlineExceeded` (budget exhausted) terminate a
run; :class:`TransientError` and its subclass
:class:`WorkerCrashError` mark failures the executor may retry.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.diagnostics import VaseError

__all__ = [
    "CancellationToken",
    "CancelledError",
    "DeadlineExceeded",
    "RetryPolicy",
    "RunContext",
    "TransientError",
    "WorkerCrashError",
    "active_context",
    "checkpoint",
    "is_transient",
    "run_context",
    "task_fingerprint",
]


class CancelledError(VaseError):
    """The run was cancelled before it could finish."""


class DeadlineExceeded(CancelledError):
    """The run exhausted its wall-clock budget."""


class TransientError(VaseError):
    """A failure the executor may safely retry: running the same task
    again may succeed (its worker died, or it reported a passing
    condition)."""


class WorkerCrashError(TransientError):
    """A pipeline worker process died while executing a task."""


class CancellationToken:
    """Thread-safe one-way cancellation flag with a reason.

    The token only ever transitions unset -> set; the first ``cancel``
    call wins and fixes the reason.  Safe to share across threads and
    to pickle conceptually — in practice tokens never cross the spawn
    boundary; the executor re-creates one worker-side and relays the
    cancel request over the pipe.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason: Optional[str] = None

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> Optional[str]:
        return self._reason

    def cancel(self, reason: str = "cancelled") -> bool:
        """Request cancellation.  Returns True on the first call."""
        if self._event.is_set():
            return False
        self._reason = reason
        self._event.set()
        return True

    def raise_if_cancelled(self, where: Optional[str] = None) -> None:
        if self._event.is_set():
            suffix = f" at {where}" if where else ""
            raise CancelledError(
                f"run cancelled{suffix}: {self._reason or 'cancelled'}"
            )


@dataclass
class RunContext:
    """A cancellation token plus an optional monotonic deadline.

    ``deadline`` is an absolute ``time.perf_counter()`` value; budgets
    are always converted on creation so child contexts can take the
    minimum without re-anchoring clocks.
    """

    token: CancellationToken
    deadline: Optional[float] = None

    @classmethod
    def create(
        cls,
        deadline_s: Optional[float] = None,
        token: Optional[CancellationToken] = None,
    ) -> "RunContext":
        deadline = None
        if deadline_s is not None:
            deadline = time.perf_counter() + max(float(deadline_s), 0.0)
        return cls(token=token or CancellationToken(), deadline=deadline)

    def remaining_s(self) -> Optional[float]:
        """Seconds left in the budget, or None when unbounded."""
        if self.deadline is None:
            return None
        return max(self.deadline - time.perf_counter(), 0.0)

    def expired(self) -> bool:
        return (
            self.deadline is not None
            and time.perf_counter() >= self.deadline
        )

    def checkpoint(self, where: Optional[str] = None) -> None:
        """Raise if the run was cancelled or the budget is spent."""
        self.token.raise_if_cancelled(where)
        if self.expired():
            suffix = f" at {where}" if where else ""
            raise DeadlineExceeded(
                f"run deadline exceeded{suffix}"
            )

    def child(self, deadline_s: Optional[float] = None) -> "RunContext":
        """A context sharing this token, with the tighter deadline."""
        deadline = self.deadline
        if deadline_s is not None:
            candidate = time.perf_counter() + max(float(deadline_s), 0.0)
            deadline = (
                candidate if deadline is None else min(deadline, candidate)
            )
        return RunContext(token=self.token, deadline=deadline)


_CONTEXT_TLS = threading.local()


def active_context() -> Optional[RunContext]:
    """The calling thread's active run context, if any."""
    return getattr(_CONTEXT_TLS, "context", None)


@contextmanager
def run_context(context: RunContext) -> Iterator[RunContext]:
    """Install ``context`` as the thread's active run context."""
    previous = getattr(_CONTEXT_TLS, "context", None)
    _CONTEXT_TLS.context = context
    try:
        yield context
    finally:
        _CONTEXT_TLS.context = previous


def checkpoint(where: Optional[str] = None) -> None:
    """Cooperative cancellation point: cheap no-op outside managed runs."""
    context = getattr(_CONTEXT_TLS, "context", None)
    if context is not None:
        context.checkpoint(where)


def is_transient(error: BaseException) -> bool:
    """True when the executor is allowed to retry after ``error``."""
    return isinstance(error, TransientError)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``delay_s`` derives its jitter from a hash of the task key and the
    attempt number — never from ``random`` — so retry schedules are
    reproducible run to run.  ``breaker_threshold`` consecutive worker
    crashes on the *same* task trip a circuit breaker: further
    submissions of that task fail fast instead of crash-looping the
    pool.
    """

    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    breaker_threshold: int = 3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")

    def delay_s(self, key: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) of ``key``."""
        base = self.backoff_s * self.backoff_factor ** max(attempt - 1, 0)
        digest = hashlib.sha256(f"{key}|{attempt}".encode("utf-8")).digest()
        jitter = digest[0] / 255.0 / 2.0  # deterministic, in [0, 0.5]
        return min(base * (1.0 + jitter), self.max_backoff_s)


def task_fingerprint(fn: object, args: tuple) -> str:
    """Stable identity of a task for breaker/jitter keying."""
    name = getattr(fn, "__qualname__", None) or repr(fn)
    module = getattr(fn, "__module__", "?")
    raw = f"{module}.{name}|{args!r}".encode("utf-8", "replace")
    return hashlib.sha256(raw).hexdigest()[:16]
