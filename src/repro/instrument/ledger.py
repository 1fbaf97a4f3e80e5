"""The persistent run ledger: one append-only record per run.

Every ``synthesize``/``batch`` run (when a ledger is wired in —
``FlowOptions.ledger``, or the CLI default ``.vase-ledger/``) appends
one JSON line to ``ledger.jsonl``: run id, wall-clock timestamp,
source fingerprint, options digest, outcome bucket
(``ok``/``degraded``/``failed``/``cancelled``), key metrics, cache
counters and durations.  Every way a run can end is recorded: a
result, a lexer/parse/semantic/compile/synthesis error, an internal
error, a cancel or an exhausted budget.  ``synthesize`` writes the
record of a run itself, so ``vase synth``, ``vase batch`` and served
jobs (in the server process or a ``process`` worker) all append
through the same code.  The ledger is the cross-run memory the per-run channels
lack: ``vase history`` lists recent runs (filterable by outcome and
source), ``vase stats`` aggregates the whole file (degradation rate,
cache hit rate, duration mean/p50/p95 overall and per phase), and the
fuzz/learned-heuristic direction gets a durable corpus of per-run
telemetry to learn from.

The file format is deliberately dumb — append-only JSON Lines, one
record per line, corrupt lines skipped (and counted) on read — so
concurrent appends from different processes stay safe on POSIX
(single ``write`` of one line in append mode) and a truncated final
line never poisons the history.

Resolution order for the CLI default (:func:`resolve_ledger`):
an explicit ``--ledger PATH`` flag, then the ``VASE_LEDGER``
environment variable (``off``/``0``/``none`` disables), then
``.vase-ledger/ledger.jsonl`` in the working directory.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: default ledger location (a directory; the file inside is fixed)
DEFAULT_LEDGER_DIR = ".vase-ledger"
LEDGER_FILENAME = "ledger.jsonl"

#: outcome buckets: the one run-outcome vocabulary, shared by the
#: batch runner's entry statuses, the serve queue's terminal job
#: states and the lifecycle events' terminal phases
OUTCOME_OK = "ok"
OUTCOME_DEGRADED = "degraded"
OUTCOME_FAILED = "failed"
OUTCOME_CANCELLED = "cancelled"
#: the always-reported outcome buckets; ``cancelled`` only appears in
#: summaries when cancelled runs actually exist
OUTCOMES = (OUTCOME_OK, OUTCOME_DEGRADED, OUTCOME_FAILED)
ALL_OUTCOMES = OUTCOMES + (OUTCOME_CANCELLED,)


@dataclass
class LedgerRecord:
    """One run, as remembered across processes."""

    run_id: str
    #: ``synth`` or ``batch``
    kind: str
    #: wall-clock epoch seconds at record time
    ts: float
    #: what was synthesized (file name, app name, or batch root)
    source: str
    #: content fingerprint of the source (text or file list)
    source_fp: str
    #: fingerprint of the options subtrees that shape the result
    options_fp: str
    #: ``ok`` / ``degraded`` / ``failed`` / ``cancelled``
    outcome: str
    degraded: bool = False
    #: key result metrics (area, opamps, nodes_visited, ... or batch
    #: bucket counts)
    metrics: Dict[str, object] = field(default_factory=dict)
    #: artifact-cache counters of the run (hits/misses/...)
    cache: Dict[str, object] = field(default_factory=dict)
    #: wall-clock durations: always ``total_s``; per-phase keys when a
    #: tracer was active
    durations: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "ts": self.ts,
            "source": self.source,
            "source_fp": self.source_fp,
            "options_fp": self.options_fp,
            "outcome": self.outcome,
            "degraded": self.degraded,
            "metrics": dict(self.metrics),
            "cache": dict(self.cache),
            "durations": dict(self.durations),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LedgerRecord":
        return cls(
            run_id=str(data.get("run_id", "?")),
            kind=str(data.get("kind", "synth")),
            ts=float(data.get("ts", 0.0)),  # type: ignore[arg-type]
            source=str(data.get("source", "?")),
            source_fp=str(data.get("source_fp", "")),
            options_fp=str(data.get("options_fp", "")),
            outcome=str(data.get("outcome", OUTCOME_FAILED)),
            degraded=bool(data.get("degraded", False)),
            metrics=dict(data.get("metrics") or {}),  # type: ignore[call-overload]
            cache=dict(data.get("cache") or {}),  # type: ignore[call-overload]
            durations={
                str(k): float(v)  # type: ignore[arg-type]
                for k, v in (data.get("durations") or {}).items()  # type: ignore[union-attr]
            },
        )

    def describe(self) -> str:
        stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.ts))
        text = (
            f"{self.run_id}  {stamp}  {self.kind:<5} "
            f"{self.outcome.upper():<9} {self.source}"
        )
        total = self.durations.get("total_s")
        if total is not None:
            text += f"  ({total * 1e3:.1f} ms)"
        return text


class RunLedger:
    """Append-only JSONL store of :class:`LedgerRecord`s."""

    def __init__(self, path):
        target = Path(path)
        if target.suffix != ".jsonl":
            target = target / LEDGER_FILENAME
        self.path = target
        self._lock = threading.Lock()
        #: corrupt lines skipped by the last :meth:`records` call
        self.skipped = 0

    def __reduce__(self):
        # A ledger crosses a process boundary by path: every append is
        # one ``O_APPEND`` write, so workers append to the same file.
        return (RunLedger, (str(self.path),))

    def append(self, record: LedgerRecord) -> None:
        """Append one record (creating the ledger on first use).

        The whole line goes down in a single ``os.write`` on an
        ``O_APPEND`` file descriptor: POSIX makes such writes atomic
        with respect to other appenders, so concurrent server jobs —
        or two ``vase batch`` processes sharing one ledger — can never
        interleave bytes mid-line.  (A buffered ``open(..., "a")``
        offers no such guarantee: the libc buffer may split one line
        across several writes.)
        """
        line = json.dumps(record.as_dict(), default=str) + "\n"
        payload = line.encode("utf-8")
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                str(self.path),
                os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                0o644,
            )
            try:
                written = os.write(fd, payload)
                if written != len(payload):  # pragma: no cover - POSIX
                    raise OSError(
                        f"short ledger write: {written}/{len(payload)} bytes"
                    )
            finally:
                os.close(fd)

    def exists(self) -> bool:
        return self.path.is_file()

    def records(self) -> List[LedgerRecord]:
        """Every readable record, oldest first (corrupt lines skipped)."""
        out: List[LedgerRecord] = []
        self.skipped = 0
        if not self.path.is_file():
            return out
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                    if not isinstance(data, dict) or "run_id" not in data:
                        raise ValueError("not a ledger record")
                    out.append(LedgerRecord.from_dict(data))
                except (json.JSONDecodeError, TypeError, ValueError):
                    self.skipped += 1
        return out

    def tail(
        self,
        limit: Optional[int] = None,
        outcome: Optional[str] = None,
        source: Optional[str] = None,
    ) -> List[LedgerRecord]:
        """The most recent records, newest first, filtered.

        ``outcome`` matches the bucket exactly; ``source`` is a
        case-insensitive substring of the record's source.
        """
        records = self.records()
        if outcome is not None:
            records = [r for r in records if r.outcome == outcome]
        if source is not None:
            needle = source.lower()
            records = [r for r in records if needle in r.source.lower()]
        records.reverse()
        if limit is not None:
            records = records[:limit]
        return records


# -- record builders ----------------------------------------------------------


def options_digest(options) -> str:
    """Fingerprint of the :class:`~repro.flow.FlowOptions` subtrees
    that shape a synthesis result (runtime knobs like ``parallel``,
    ``trace`` or ``telemetry`` are deliberately excluded — the
    execution backend must never change what is produced)."""
    from repro.pipeline.fingerprint import fingerprint

    return fingerprint(
        options.compiler,
        options.mapper,
        options.constraints,
        options.interfacing,
        options.derive_constraints_from_annotations,
        options.recovery,
        options.explore_solvers,
    )[:16]


def source_digest(source: str) -> str:
    """Content fingerprint of one source text."""
    from repro.pipeline.fingerprint import fingerprint

    return fingerprint(source)[:16]


def phase_durations(tracer) -> Dict[str, float]:
    """Total per-phase seconds from a finished tracer (top level of
    each ``synthesize`` span)."""
    durations: Dict[str, float] = {}
    for root_name in ("synthesize",):
        for span in tracer.find(root_name):
            for child in span.children:
                durations[child.name] = (
                    durations.get(child.name, 0.0) + child.duration_s
                )
    return durations


def record_for_result(
    result,
    source: str,
    source_label: str,
    elapsed_s: float,
    options,
) -> LedgerRecord:
    """Build the ledger record of one successful ``synthesize`` run."""
    durations: Dict[str, float] = {"total_s": elapsed_s}
    if result.trace is not None:
        durations.update(phase_durations(result.trace))
    search = result.mapping.statistics
    metrics: Dict[str, object] = {
        "area_um2": round(result.estimate.area * 1e12, 3),
        "power_mw": round(result.estimate.power * 1e3, 6),
        "opamps": result.estimate.opamps,
        "nodes_visited": search.nodes_visited,
        "nodes_pruned": search.nodes_pruned,
        "feasible_mappings": search.feasible_mappings,
        "truncated": bool(search.truncated),
    }
    return LedgerRecord(
        run_id=result.run_id or "?",
        kind="synth",
        ts=time.time(),
        source=source_label,
        source_fp=source_digest(source),
        options_fp=options_digest(options),
        outcome=OUTCOME_DEGRADED if result.degraded else OUTCOME_OK,
        degraded=result.degraded,
        metrics=metrics,
        cache=dict(result.cache_stats or {}),
        durations=durations,
    )


def error_outcome(error: BaseException) -> str:
    """The outcome of a run that raised ``error``: ``cancelled`` for a
    :class:`~repro.robust.lifecycle.CancelledError` (a cancel request
    or an exhausted budget), ``failed`` for any other error."""
    from repro.robust.lifecycle import CancelledError

    if isinstance(error, CancelledError):
        return OUTCOME_CANCELLED
    return OUTCOME_FAILED


def record_for_failure(
    run_id: str,
    source: str,
    source_label: str,
    elapsed_s: float,
    options,
    error: BaseException,
) -> LedgerRecord:
    """Build the ledger record of a run that ended without a result
    (outcome by :func:`error_outcome`)."""
    metrics: Dict[str, object] = {"error": str(error)}
    statistics = getattr(error, "statistics", None)
    if statistics is not None:
        metrics["nodes_visited"] = getattr(statistics, "nodes_visited", 0)
        violations = getattr(statistics, "constraint_violations", None)
        if violations:
            metrics["constraint_violations"] = dict(violations)
    return LedgerRecord(
        run_id=run_id,
        kind="synth",
        ts=time.time(),
        source=source_label,
        source_fp=source_digest(source),
        options_fp=options_digest(options),
        outcome=error_outcome(error),
        degraded=False,
        metrics=metrics,
        durations={"total_s": elapsed_s},
    )


def record_for_batch(
    report, run_id: str, source_label: str, files, options
) -> LedgerRecord:
    """Build the ledger record of one ``batch`` run."""
    from repro.pipeline.fingerprint import fingerprint

    if report.failed:
        outcome = OUTCOME_FAILED
    elif getattr(report, "cancelled", 0):
        outcome = OUTCOME_CANCELLED
    elif report.degraded:
        outcome = OUTCOME_DEGRADED
    else:
        outcome = OUTCOME_OK
    return LedgerRecord(
        run_id=run_id,
        kind="batch",
        ts=time.time(),
        source=source_label,
        source_fp=fingerprint([str(path) for path in files])[:16],
        options_fp=options_digest(options),
        outcome=outcome,
        degraded=report.degraded > 0,
        metrics={
            "files": len(report.entries),
            "ok": report.ok,
            "degraded": report.degraded,
            "failed": report.failed,
        },
        cache=dict(report.cache or {}),
        durations={"total_s": report.elapsed_s},
    )


# -- aggregation (``vase stats``) ---------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1]).

    The one implementation: metric histograms take their p50/p95 from
    it too."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def _duration_summary(values: List[float]) -> Dict[str, float]:
    if not values:
        return {"count": 0, "mean_s": 0.0, "p50_s": 0.0, "p95_s": 0.0}
    return {
        "count": len(values),
        "mean_s": sum(values) / len(values),
        "p50_s": percentile(values, 0.50),
        "p95_s": percentile(values, 0.95),
    }


def summarize(records: List[LedgerRecord]) -> Dict[str, object]:
    """Aggregate a ledger into the ``vase stats`` payload."""
    outcomes = {name: 0 for name in OUTCOMES}
    hits = misses = 0
    totals: List[float] = []
    phases: Dict[str, List[float]] = {}
    kinds: Dict[str, int] = {}
    for record in records:
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
        kinds[record.kind] = kinds.get(record.kind, 0) + 1
        hits += int(record.cache.get("hits", 0) or 0)
        misses += int(record.cache.get("misses", 0) or 0)
        for name, value in record.durations.items():
            if name == "total_s":
                totals.append(value)
            else:
                phases.setdefault(name, []).append(value)
    runs = len(records)
    usable = outcomes[OUTCOME_OK] + outcomes[OUTCOME_DEGRADED]
    return {
        "runs": runs,
        "kinds": dict(sorted(kinds.items())),
        "outcomes": outcomes,
        "degradation_rate": (
            outcomes[OUTCOME_DEGRADED] / usable if usable else 0.0
        ),
        "failure_rate": outcomes[OUTCOME_FAILED] / runs if runs else 0.0,
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if (hits + misses) else 0.0,
        },
        "durations": {
            "total": _duration_summary(totals),
            "phases": {
                name: _duration_summary(values)
                for name, values in sorted(phases.items())
            },
        },
    }


def format_stats(stats: Dict[str, object]) -> str:
    """Human-readable ``vase stats`` rendering."""
    outcomes = stats["outcomes"]  # type: ignore[index]
    cache = stats["cache"]  # type: ignore[index]
    durations = stats["durations"]  # type: ignore[index]
    lines = [
        f"runs: {stats['runs']} "  # type: ignore[index]
        + " ".join(
            f"{kind}={count}"
            for kind, count in stats["kinds"].items()  # type: ignore[union-attr]
        ),
        f"outcomes: {outcomes['ok']} ok, "  # type: ignore[index]
        f"{outcomes['degraded']} degraded, "  # type: ignore[index]
        f"{outcomes['failed']} failed"  # type: ignore[index]
        + (
            f", {outcomes[OUTCOME_CANCELLED]} cancelled"  # type: ignore[index]
            if outcomes.get(OUTCOME_CANCELLED)  # type: ignore[union-attr]
            else ""
        ),
        f"degradation rate: {stats['degradation_rate'] * 100:.1f}%",  # type: ignore[operator]
        f"failure rate: {stats['failure_rate'] * 100:.1f}%",  # type: ignore[operator]
        f"cache: {cache['hits']} hit(s), {cache['misses']} miss(es) "  # type: ignore[index]
        f"({cache['hit_rate'] * 100:.1f}% hit rate)",  # type: ignore[operator]
    ]
    total = durations["total"]  # type: ignore[index]
    lines.append(
        f"duration (total): mean {total['mean_s'] * 1e3:.1f} ms, "
        f"p50 {total['p50_s'] * 1e3:.1f} ms, "
        f"p95 {total['p95_s'] * 1e3:.1f} ms "
        f"over {total['count']} run(s)"
    )
    for name, summary in durations["phases"].items():  # type: ignore[union-attr]
        lines.append(
            f"duration ({name}): mean {summary['mean_s'] * 1e3:.1f} ms, "
            f"p50 {summary['p50_s'] * 1e3:.1f} ms, "
            f"p95 {summary['p95_s'] * 1e3:.1f} ms "
            f"over {summary['count']} run(s)"
        )
    return "\n".join(lines)


# -- CLI default resolution ---------------------------------------------------

_DISABLED_VALUES = ("", "0", "off", "none", "false")


def resolve_ledger(
    flag: Optional[str] = None, disabled: bool = False
) -> Optional[RunLedger]:
    """The ledger the CLI should write, or ``None`` when disabled.

    Precedence: ``--no-ledger`` (``disabled``), then an explicit
    ``--ledger PATH`` flag, then ``VASE_LEDGER`` (a path, or
    ``off``/``0``/``none`` to disable), then the working-directory
    default ``.vase-ledger/ledger.jsonl``.
    """
    if disabled:
        return None
    if flag:
        return RunLedger(flag)
    configured = os.environ.get("VASE_LEDGER")
    if configured is not None:
        if configured.lower() in _DISABLED_VALUES:
            return None
        return RunLedger(configured)
    return RunLedger(DEFAULT_LEDGER_DIR)
