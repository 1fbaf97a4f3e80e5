"""Flow-wide fault tolerance: graceful degradation instead of crashes.

The VASE flow is a pipeline of searches and numerical solves — DAE
causalization, branch-and-bound mapping, MNA factorization, AC sweeps —
and historically any single failure killed a whole run with one
exception.  This package makes the flow degrade gracefully and report
*what* it sacrificed:

* :mod:`repro.robust.recovery` — the recovery ladder the flow climbs
  when synthesis fails (alternative causalizations, the greedy mapper,
  bounded constraint relaxation), with every attempt recorded as a
  structured :class:`RecoveryEvent`;
* :mod:`repro.robust.guards` — numerical guards for the SPICE substrate
  (condition-number estimation, singular-system suspect naming,
  non-finite waveform detection);
* :mod:`repro.robust.batch` — multi-design sweeps with per-file
  isolation and a machine-readable ok/degraded/failed summary;
* :mod:`repro.robust.lifecycle` — cooperative cancellation tokens,
  whole-flow deadline propagation, and the transient-failure taxonomy
  the executors' retry machinery classifies against;
* :mod:`repro.robust.journal` — the fsync'd completion journal behind
  crash-safe ``vase batch --resume``.

The tests reach every one of these failure paths from outside the
program: real inputs where one provokes the failure (a singular
circuit, a NaN source waveform, an unmeetable constraint, a zero
mapper deadline), and ``monkeypatch`` or test-module tasks where none
does.
"""

from repro.robust.batch import (
    BatchEntry,
    BatchReport,
    find_sources,
    run_batch,
    schedule_longest_first,
)
from repro.robust.journal import BatchJournal
from repro.robust.lifecycle import (
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
    run_context,
)
from repro.robust.guards import (
    NumericalWarning,
    check_finite,
    condition_estimate,
    singular_suspects,
)
from repro.robust.recovery import (
    RecoveryEvent,
    relax_constraints,
)

__all__ = [
    "BatchEntry",
    "BatchJournal",
    "BatchReport",
    "CancellationToken",
    "CancelledError",
    "DeadlineExceeded",
    "NumericalWarning",
    "RecoveryEvent",
    "RetryPolicy",
    "RunContext",
    "TransientError",
    "WorkerCrashError",
    "active_context",
    "check_finite",
    "checkpoint",
    "condition_estimate",
    "find_sources",
    "is_transient",
    "relax_constraints",
    "run_batch",
    "run_context",
    "schedule_longest_first",
    "singular_suspects",
]
