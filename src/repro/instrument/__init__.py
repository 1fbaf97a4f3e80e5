"""Flow-wide observability: tracing, metrics and profiling.

The VASE flow is a pipeline of very different engines (lexer, parser,
DAE causalization, branch-and-bound search, op-amp sizing, MNA
simulation); this package gives all of them one measurement layer:

* :mod:`repro.instrument.tracer` — hierarchical spans.  Stages wrap
  their work in ``with trace_phase("map"):`` blocks; when no tracer is
  active the call returns a shared no-op span, so instrumented code
  pays (almost) nothing in production.  An active
  :class:`~repro.instrument.tracer.Tracer` renders its spans as a
  human-readable timing tree or as Chrome ``trace_event`` JSON
  (load it in ``chrome://tracing`` / Perfetto).
* :mod:`repro.instrument.metrics` — a process-wide registry of
  counters, gauges and histograms.  Hot paths (mapper search, pattern
  matching, op-amp sizing, MNA factorizations, the VASS frontend)
  publish effort counters here.
* :mod:`repro.instrument.profile` — repeat-run profiling of the whole
  flow, exposed as ``vase profile`` on the command line.
* :mod:`repro.instrument.explog` — a decision-level exploration
  recorder: while active, the branch-and-bound mapper streams one
  structured event per decision (candidates, alloc/share, prune with
  both bound values and the incumbent area, complete/infeasible with
  the violated constraints) and the DAE compiler records the chosen
  causalization.  Rendered by ``vase explain``
  (:mod:`repro.instrument.explain`) as a narrative, a Figure-6 DOT
  tree and a self-contained HTML exploration report.
* :mod:`repro.instrument.baseline` — a metrics regression gate over
  the benchmark metrics JSON dumps, exposed as ``vase bench-check``.
* :mod:`repro.instrument.events` — the unified telemetry bus.  All of
  the channels above double as publishers of typed, JSON-ready
  :class:`~repro.instrument.events.TelemetryEvent` records (run id,
  monotonic seq, wall-clock ts, category, payload) on one process-wide
  bus; subscribers include a JSONL sink (``vase synth --events``), a
  bounded ring buffer for programmatic consumers, and the live TTY
  progress renderer behind ``vase batch --progress``.
* :mod:`repro.instrument.ledger` — the persistent run ledger: one
  append-only JSONL record per synthesize/batch run (source and
  options fingerprints, outcome bucket, key metrics, cache counters,
  durations), read back by ``vase history`` and ``vase stats``.
* :mod:`repro.instrument.promexport` — Prometheus text exposition
  rendering of any metrics snapshot (``vase metrics --prom``,
  ``vase batch --metrics-out``) plus a dependency-free format lint.
"""

from repro.instrument.baseline import (
    BenchCheckReport,
    Regression,
    check_baselines,
    compare_metrics,
    extract_metrics,
)
from repro.instrument.events import (
    CATEGORIES,
    CATEGORY_CACHE,
    CATEGORY_CANCELLED,
    CATEGORY_EXPLOG,
    CATEGORY_LIFECYCLE,
    CATEGORY_METRIC,
    CATEGORY_RECOVERY,
    CATEGORY_RETRY,
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
from repro.instrument.explain import (
    events_summary,
    narrate,
    render_exploration_html,
)
from repro.instrument.ledger import (
    OUTCOME_CANCELLED,
    OUTCOME_DEGRADED,
    OUTCOME_FAILED,
    OUTCOME_OK,
    LedgerRecord,
    RunLedger,
    format_stats,
    record_for_failure,
    resolve_ledger,
    summarize,
)
from repro.instrument.promexport import (
    render_family,
    render_prometheus,
    validate_exposition,
)
from repro.instrument.explog import (
    ExplorationLog,
    active_explog,
    decision_tree,
    disable_explog,
    enable_explog,
    explogging,
)
from repro.instrument.metrics import (
    Histogram,
    MetricsRegistry,
    metrics,
)
from repro.instrument.tracer import (
    Span,
    Tracer,
    active_tracer,
    enable_tracing,
    trace_phase,
    tracing,
)
from repro.instrument.profile import (
    PhaseProfile,
    ProfileReport,
    aggregate_spans,
    profile_flow,
)

__all__ = [
    "BenchCheckReport",
    "Regression",
    "check_baselines",
    "compare_metrics",
    "extract_metrics",
    "CATEGORIES",
    "CATEGORY_CACHE",
    "CATEGORY_CANCELLED",
    "CATEGORY_EXPLOG",
    "CATEGORY_LIFECYCLE",
    "CATEGORY_METRIC",
    "CATEGORY_RECOVERY",
    "CATEGORY_RETRY",
    "CATEGORY_SPAN",
    "JsonlSink",
    "ProgressRenderer",
    "RingBuffer",
    "TelemetryBus",
    "TelemetryEvent",
    "active_bus",
    "current_run_id",
    "disable_telemetry",
    "enable_telemetry",
    "new_run_id",
    "run_scope",
    "telemetry",
    "LedgerRecord",
    "OUTCOME_CANCELLED",
    "OUTCOME_DEGRADED",
    "OUTCOME_FAILED",
    "OUTCOME_OK",
    "RunLedger",
    "format_stats",
    "record_for_failure",
    "resolve_ledger",
    "summarize",
    "render_family",
    "render_prometheus",
    "validate_exposition",
    "events_summary",
    "narrate",
    "render_exploration_html",
    "ExplorationLog",
    "active_explog",
    "decision_tree",
    "disable_explog",
    "enable_explog",
    "explogging",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "Span",
    "Tracer",
    "active_tracer",
    "enable_tracing",
    "trace_phase",
    "tracing",
    "PhaseProfile",
    "ProfileReport",
    "aggregate_spans",
    "profile_flow",
]
