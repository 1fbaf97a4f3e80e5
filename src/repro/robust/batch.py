"""Batch synthesis: many VASS files, per-file fault isolation.

``vase batch <dir>`` runs the full flow over every ``.vhd``/``.vhdl``
file it finds and keeps going when individual files fail: a parse error
in one design must not cost the remaining ninety-nine.  Each file lands
in exactly one bucket:

* ``ok`` — synthesized cleanly;
* ``degraded`` — synthesized, but only after the recovery ladder
  loosened something (the entry records every
  :class:`~repro.robust.recovery.RecoveryEvent`);
* ``failed`` — no netlist: syntax errors (collected with the parser's
  error-recovery mode, so *all* of them are reported), semantic or
  synthesis errors, or an unexpected exception;
* ``cancelled`` — the run was cancelled (or exhausted its wall-clock
  budget) before the file could finish.

``parallel`` selects the execution backend
(:class:`~repro.pipeline.ParallelOptions`: ``serial``, the in-process
``thread`` pool, or ``process`` spawn workers that sidestep the GIL);
results come back in input order, so a parallel run's report is
identical to the serial one no matter the backend (``--no-timing``
additionally zeroes the wall-clock fields, making the JSON
byte-identical).  An :class:`~repro.pipeline.ArtifactCache` passed as
``cache`` is shared by every file — and, with a ``disk_dir``, across
whole batch runs *and* across the worker processes of the ``process``
backend, which share the disk tier.

The exit-code policy is deliberate: ``0`` when every file is at least
degraded, ``1`` when anything failed — and ``--strict`` promotes
degraded results to failures for CI gates that must not ship loosened
constraints silently.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.instrument.events import (
    CATEGORY_LIFECYCLE,
    active_bus,
    current_run_id,
    new_run_id,
    run_scope,
)
from repro.instrument.ledger import (  # the per-file outcome buckets
    OUTCOME_CANCELLED as STATUS_CANCELLED,
    OUTCOME_DEGRADED as STATUS_DEGRADED,
    OUTCOME_FAILED as STATUS_FAILED,
    OUTCOME_OK as STATUS_OK,
    error_outcome,
)
from repro.pipeline import ArtifactCache, ParallelOptions, create_executor

#: Source suffixes ``vase batch <dir>`` picks up.
SOURCE_SUFFIXES = (".vhd", ".vhdl", ".vass")


@dataclass
class BatchEntry:
    """Outcome of one file of a batch run."""

    file: str
    status: str
    elapsed_s: float = 0.0
    #: name of the synthesized design (ok / degraded only)
    design: Optional[str] = None
    #: Table-1 style component summary (ok / degraded only)
    summary: str = ""
    #: the fatal error (failed only; first of ``errors`` when parsing)
    error: str = ""
    #: every collected syntax error (parser error-recovery mode)
    errors: List[str] = field(default_factory=list)
    #: non-fatal diagnostics of the synthesis
    warnings: List[str] = field(default_factory=list)
    #: recovery-ladder events, when the ladder ran
    recovery: List[Dict[str, object]] = field(default_factory=list)

    def as_dict(self, timing: bool = True) -> Dict[str, object]:
        return {
            "file": self.file,
            "status": self.status,
            "elapsed_s": round(self.elapsed_s, 6) if timing else 0.0,
            "design": self.design,
            "summary": self.summary,
            "error": self.error,
            "errors": list(self.errors),
            "warnings": list(self.warnings),
            "recovery": list(self.recovery),
        }

    def terminal_payload(self, kind: str, subject: str) -> Dict[str, object]:
        """The terminal lifecycle event of this entry: a batch file's
        (``"file", "file"``) or a served job's (``"job", "label"``);
        ``subject`` is the key that names the entry."""
        payload: Dict[str, object] = {
            "kind": kind,
            "phase": self.status,
            subject: self.file,
            "elapsed_s": self.elapsed_s,
        }
        if self.design:
            payload["design"] = self.design
        if self.status in (STATUS_FAILED, STATUS_CANCELLED) \
                and (self.error or self.errors):
            payload["error"] = self.error or self.errors[0]
        return payload

    def describe(self) -> str:
        text = f"{self.status.upper():9s} {self.file}"
        if self.design:
            text += f" ({self.design})"
        if self.status == STATUS_FAILED:
            head = self.error or (self.errors[0] if self.errors else "")
            if head:
                text += f": {head}"
            extra = len(self.errors) - 1
            if extra > 0:
                text += f" (+{extra} more)"
        elif self.recovery:
            text += f" [recovery: {len(self.recovery)} attempts]"
        return text


@dataclass
class BatchReport:
    """Aggregate of a whole batch run."""

    entries: List[BatchEntry] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: counters of the shared artifact cache, when one was used
    cache: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> int:
        return sum(1 for e in self.entries if e.status == STATUS_OK)

    @property
    def degraded(self) -> int:
        return sum(1 for e in self.entries if e.status == STATUS_DEGRADED)

    @property
    def failed(self) -> int:
        return sum(1 for e in self.entries if e.status == STATUS_FAILED)

    @property
    def cancelled(self) -> int:
        return sum(
            1 for e in self.entries if e.status == STATUS_CANCELLED
        )

    def as_dict(self, timing: bool = True) -> Dict[str, object]:
        """JSON-ready report; ``timing=False`` zeroes wall-clock fields
        (and drops the cache counters) so two runs of the same inputs
        serialize byte-identically."""
        payload: Dict[str, object] = {
            "files": len(self.entries),
            "ok": self.ok,
            "degraded": self.degraded,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "elapsed_s": round(self.elapsed_s, 6) if timing else 0.0,
            "entries": [e.as_dict(timing=timing) for e in self.entries],
        }
        if timing and self.cache is not None:
            payload["cache"] = self.cache
        return payload

    def to_json(self, indent: int = 2, timing: bool = True) -> str:
        return json.dumps(self.as_dict(timing=timing), indent=indent)

    def describe(self, timing: bool = True) -> str:
        lines = [entry.describe() for entry in self.entries]
        tail = (
            f"{len(self.entries)} files: {self.ok} ok, "
            f"{self.degraded} degraded, {self.failed} failed"
        )
        if self.cancelled:
            tail += f", {self.cancelled} cancelled"
        if timing:
            tail += f" ({self.elapsed_s:.2f} s)"
        lines.append(tail)
        return "\n".join(lines)

    def exit_code(self, strict: bool = False) -> int:
        """``0`` all usable, ``1`` any failure or cancellation
        (degraded too if strict)."""
        if self.failed or self.cancelled:
            return 1
        if strict and self.degraded:
            return 1
        return 0


def find_sources(root: Path) -> List[Path]:
    """The batch work list: VASS sources under ``root``, sorted."""
    if root.is_file():
        return [root]
    return sorted(
        path
        for path in root.rglob("*")
        if path.is_file() and path.suffix.lower() in SOURCE_SUFFIXES
    )


#: nominal synthesis throughput used to turn a file size into a
#: duration estimate when the ledger has no history for the file
_EST_BYTES_PER_SECOND = 1e6


def schedule_longest_first(files, ledger=None) -> List[int]:
    """Submission order for a batch: indices into ``files``, longest
    first.

    Long-pole scheduling: a parallel batch that starts its slowest
    file last serializes the whole tail of the run behind it.  With a
    run ledger available, each file's expected duration is the
    ``total_s`` of its most recent ``synth`` record (matched by source
    label); files the ledger has never seen fall back to a
    size-derived estimate.  Ties (and the no-ledger case with
    equal-sized files) keep input order, so the schedule is
    deterministic.  Only *scheduling* is affected — batch reports
    always list entries in input order.
    """
    durations: Dict[str, float] = {}
    if ledger is not None:
        try:
            for record in ledger.records():
                if record.kind != "synth":
                    continue
                total = record.durations.get("total_s")
                if total is not None:
                    durations[record.source] = float(total)
        except OSError:  # pragma: no cover - unreadable ledger
            pass
    weighted = []
    for index, path in enumerate(files):
        weight = durations.get(str(path))
        if weight is None:
            try:
                size = Path(path).stat().st_size
            except OSError:
                size = 0
            weight = size / _EST_BYTES_PER_SECOND
        weighted.append((-weight, index))
    return [index for _, index in sorted(weighted)]


def run_source(
    text: str,
    label: str,
    options,
    library=None,
    entity_name: Optional[str] = None,
):
    """Synthesize one source text with per-entry fault isolation.

    The shared execution core of ``vase batch`` and the ``vase serve``
    job queue.  The run is one :func:`~repro.flow.synthesize` call,
    which ends every run itself (its ``finished`` event and its ledger
    record); this wrapper only turns the outcome into a
    :class:`BatchEntry`, so every failure mode — syntax, semantic or
    synthesis errors, unexpected exceptions, a cancel — becomes a
    FAILED or CANCELLED entry instead of an exception.  On a lexer or
    parse error the source is parsed once more in the parser's
    error-recovery mode, so the entry lists *every* syntax error; that
    second parse runs on this failure path only.  Returns ``(entry,
    result)``: ``result`` is the :class:`~repro.flow.SynthesisResult`
    on success (the server builds its artifacts from it), else
    ``None``.
    """
    # Imported lazily: repro.flow imports the mapper, which imports the
    # fault-injection hooks from this package.
    from repro.diagnostics import LexerError, ParseError, Severity, VaseError
    from repro.flow import synthesize
    from repro.vass.parser import parse_source_collecting

    entry = BatchEntry(file=label, status=STATUS_FAILED)
    start = time.perf_counter()
    result = None
    try:
        result = synthesize(
            text,
            entity_name=entity_name,
            options=options,
            library=library,
            source_filename=label,
        )
    except (LexerError, ParseError) as err:
        _units, errors = parse_source_collecting(text, filename=label)
        entry.errors = [str(error) for error in errors] or [str(err)]
        entry.error = entry.errors[0]
    except VaseError as err:
        entry.status = error_outcome(err)
        entry.error = str(err)
    except Exception as err:  # noqa: BLE001 - isolation is the point
        entry.error = f"internal error: {type(err).__name__}: {err}"
    else:
        entry.design = result.design.name
        entry.summary = result.summary
        entry.warnings = [
            str(d)
            for d in result.diagnostics
            if d.severity is not Severity.NOTE
        ]
        entry.recovery = [e.as_dict() for e in result.recovery]
        entry.status = STATUS_DEGRADED if result.degraded else STATUS_OK
    entry.elapsed_s = time.perf_counter() - start
    return entry, result


def _run_one(path: Path, options, library) -> BatchEntry:
    """Synthesize one file; every failure becomes a FAILED entry."""
    bus = active_bus()
    if bus is not None:
        bus.publish(
            CATEGORY_LIFECYCLE,
            {"kind": "file", "phase": "started", "file": str(path)},
        )
    start = time.perf_counter()
    try:
        text = path.read_text()
    except OSError as err:
        entry = BatchEntry(
            file=str(path), status=STATUS_FAILED,
            error=f"cannot read: {err}",
        )
        entry.elapsed_s = time.perf_counter() - start
    else:
        entry, _result = run_source(text, str(path), options, library)
    if bus is not None:
        bus.publish(CATEGORY_LIFECYCLE, entry.terminal_payload("file", "file"))
    return entry


def run_batch(
    files: Iterable[Path],
    options: Optional[object] = None,
    library: Optional[object] = None,
    parallel: Optional[ParallelOptions] = None,
    cache: Optional[ArtifactCache] = None,
    ledger=None,
    source_label: Optional[str] = None,
    journal=None,
) -> BatchReport:
    """Synthesize every file, isolating failures per file.

    ``options`` is a :class:`~repro.flow.FlowOptions` (defaults enable
    the recovery ladder — batch runs want usable-but-degraded results
    over hard stops).  Nothing a single file does — syntax error,
    infeasible constraints, even an unexpected exception — stops the
    remaining files.

    ``parallel`` selects the execution backend and width
    (:class:`~repro.pipeline.ParallelOptions`; defaults to
    ``options.parallel``).  Entries always come back in input order,
    so the report content is independent of backend and worker count.
    Under a parallel backend, *submission* order is long-pole
    scheduled (:func:`schedule_longest_first`): the files the ledger
    knows to be slowest start first, so a straggler never serializes
    the tail of the run.  ``cache`` is an artifact cache shared by
    every file of the run (stage keys are content-addressed, so
    sharing is always safe); under the ``process`` backend its on-disk
    tier is the store the worker processes share, and their counters
    are folded back into it.

    ``journal`` is a :class:`~repro.robust.journal.BatchJournal`: each
    completed entry is appended (fsync'd) as it finishes, and entries
    a previous interrupted run already journaled — keyed by source
    *content* plus the options digest — are resumed instead of re-run,
    so a killed batch restarted with the same journal produces the
    same report without repeating finished work.

    With a telemetry bus active, the whole batch shares one run id:
    every file emits ``lifecycle`` events (``queued`` up front, then
    ``started`` and a terminal ``ok``/``degraded``/``failed``/
    ``cancelled`` — or ``resumed`` for journaled entries), and the
    per-file synthesis events carry the same id from the workers —
    process workers forward theirs over the result channel.  A
    ``ledger`` (:class:`~repro.instrument.ledger.RunLedger`) gets one
    batch-level record appended.
    """
    from dataclasses import replace

    from repro.flow import FlowOptions

    if options is None:
        options = FlowOptions(recovery=True)
    if parallel is None:
        parallel = options.parallel
    if cache is not None:
        options = replace(options, cache=cache)

    paths = [Path(path) for path in files]
    entries: List[Optional[BatchEntry]] = [None] * len(paths)
    keys: List[Optional[str]] = [None] * len(paths)
    if journal is not None:
        from repro.instrument.ledger import options_digest

        opts_fp = options_digest(options)
        completed = journal.load()
        for index, path in enumerate(paths):
            try:
                text = path.read_text()
            except OSError:
                continue  # unreadable: runs (and fails) again below
            key = journal.entry_key(text, opts_fp)
            keys[index] = key
            data = completed.get(key)
            if data is not None:
                entries[index] = BatchEntry(**data)
    pending = [
        (index, path)
        for index, path in enumerate(paths)
        if entries[index] is None
    ]

    report = BatchReport()
    rid = current_run_id() or new_run_id()
    with run_scope(rid):
        bus = active_bus()
        if bus is not None:
            for path in paths:
                bus.publish(
                    CATEGORY_LIFECYCLE,
                    {"kind": "file", "phase": "queued", "file": str(path)},
                )
            for entry in entries:
                if entry is not None:
                    bus.publish(CATEGORY_LIFECYCLE, {
                        "kind": "file",
                        "phase": "resumed",
                        "file": entry.file,
                        "status": entry.status,
                    })
        batch_start = time.perf_counter()

        effective = parallel.bounded(max(1, len(pending)))
        if effective.executor != "serial" and len(pending) > 1:
            # Long-pole scheduling: submit the expected-slowest files
            # first.  Input order is restored via the indices.
            order = schedule_longest_first(
                [path for _, path in pending], ledger
            )
            pending = [pending[position] for position in order]

        def journal_entry(index: int, entry: BatchEntry) -> None:
            if journal is not None and keys[index] is not None:
                journal.record(keys[index], entry.as_dict())

        # The executor propagates this scope's run id to its workers
        # (thread workers re-enter it, process workers ship it and
        # forward their telemetry), so the whole batch shares one run.
        with create_executor(effective, cache=options.cache) as executor:
            if executor.kind == "serial":
                # Inline, one file at a time: each entry is journaled
                # before the next file starts, so a kill at any point
                # loses at most the file that was running.
                for index, path in pending:
                    entry = _run_one(path, options, library)
                    entries[index] = entry
                    journal_entry(index, entry)
            else:
                futures = [
                    executor.submit(_run_one, path, options, library)
                    for _, path in pending
                ]
                try:
                    for (index, _path), future in zip(pending, futures):
                        entry = future.result()
                        entries[index] = entry
                        journal_entry(index, entry)
                except BaseException:
                    for future in futures:
                        future.cancel()
                    raise
        report.entries = [entry for entry in entries if entry is not None]
        report.elapsed_s = time.perf_counter() - batch_start
        if cache is not None:
            report.cache = cache.stats.as_dict()
        if ledger is not None:
            from repro.instrument.ledger import record_for_batch

            ledger.append(record_for_batch(
                report,
                rid,
                source_label or (str(paths[0]) if paths else "<empty>"),
                paths,
                options,
            ))
    return report
