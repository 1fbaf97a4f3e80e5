"""The end-to-end VASE flow: VASS text in, op-amp netlist out.

Mirrors Figure 1 of the paper: a VHDL-AMS (VASS) specification is
compiled into VHIF, simple FSMs are realized as analog control circuits
(zero-cross detectors, Schmitt triggers), the signal-flow graphs are
mapped by branch-and-bound architecture generation, interfacing
transformations buffer overloaded nets, and the performance estimation
tools price the result.

Since the staged-pipeline refactor the flow runs on
:class:`repro.pipeline.PipelineSession`: every phase is a cacheable
stage with a content-addressed key, so the recovery ladder compiles
the source once per distinct causalization, ``explore_solvers`` maps
all enumerated causalizations (concurrently on the backend
``FlowOptions.parallel`` selects — threads or spawned worker
processes), and ``vase batch``/``vase synth --cache`` can share
artifacts across runs (and across worker processes, through the
cache's on-disk tier).
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.compiler import CompilerOptions
from repro.diagnostics import Diagnostic, Severity, SynthesisError, VaseError
from repro.estimation import ConstraintSet, PerformanceEstimate
from repro.instrument import (
    ExplorationLog,
    Tracer,
    active_explog,
    active_tracer,
    explogging,
    trace_phase,
    tracing,
)
from repro.instrument.events import (
    CATEGORY_CANCELLED,
    CATEGORY_LIFECYCLE,
    TelemetryBus,
    active_bus,
    current_run_id,
    new_run_id,
    run_scope,
    telemetry,
)
from repro.instrument.ledger import (
    RunLedger,
    record_for_cancelled,
    record_for_failure,
    record_for_result,
)
from repro.library import ComponentLibrary, default_library
from repro.pipeline import (
    ArtifactCache,
    ParallelOptions,
    PipelineSession,
    Task,
    create_executor,
)
from repro.robust.lifecycle import (
    CancelledError,
    RunContext,
    active_context,
    run_context,
)
from repro.robust.recovery import (
    MAX_CAUSALIZATIONS,
    MAX_RELAX_STEPS,
    OUTCOME_FAILED,
    OUTCOME_RECOVERED,
    OUTCOME_SKIPPED,
    RUNG_BASELINE,
    RUNG_CAUSALIZATION,
    RUNG_GREEDY,
    RUNG_RELAX,
    RecoveryEvent,
    RecoveryLog,
    relax_constraints,
)
from repro.synth import (
    InterfacingOptions,
    MapperOptions,
    MappingResult,
    Netlist,
)
from repro.synth.fsm_mapping import (
    FsmRealizationSummary,
    RealizedControl,
    summarize_fsm_realizations,
)
from repro.vhif.design import VhifDesign


@dataclass
class FlowOptions:
    """All knobs of the flow in one bag."""

    compiler: CompilerOptions = field(default_factory=CompilerOptions)
    mapper: MapperOptions = field(default_factory=MapperOptions)
    constraints: ConstraintSet = field(default_factory=ConstraintSet)
    interfacing: Optional[InterfacingOptions] = field(
        default_factory=InterfacingOptions
    )
    #: realize simple FSMs as analog comparator hardware before mapping
    realize_fsm_controls: bool = True
    #: derive constraint defaults from port annotations (the paper's
    #: declarative mechanism: FREQUENCY sets the signal bandwidth,
    #: RANGE / LIMITED set the amplitude the op amps must swing)
    derive_constraints_from_annotations: bool = True
    #: run the technology-independent peephole passes on the VHIF
    #: (scale fusion, negation absorption) before mapping
    optimize_vhif: bool = True
    #: collect a per-phase span trace of this run; the tracer lands on
    #: ``SynthesisResult.trace`` (``vase synth --trace`` renders it).
    #: When tracing is already active process-wide, spans always join
    #: the active tracer regardless of this knob.
    trace: bool = False
    #: record the decision-level exploration log of this run; the
    #: recorder lands on ``SynthesisResult.explog`` (``vase explain``
    #: renders it).  When a recorder is already active process-wide,
    #: events always join it regardless of this knob.
    explog: bool = False
    #: climb the recovery ladder instead of dying on the first
    #: :class:`SynthesisError`: alternative DAE causalizations, the
    #: greedy mapper, bounded constraint relaxation.  Every attempt is
    #: recorded on ``SynthesisResult.recovery``; a recovered run is
    #: explicitly *degraded*, never silent.
    recovery: bool = False
    #: map *every* enumerated DAE causalization (the paper: each
    #: causalization yields a distinct solver SFG and "synthesis
    #: considers all of them") and keep the best-area feasible result;
    #: per-solver outcomes land on ``SynthesisResult.solver_exploration``
    #: and in the exploration log
    explore_solvers: bool = False
    #: execution backend and width for ``explore_solvers`` (and the
    #: default for batch runs built on this options bag): ``serial``,
    #: ``thread`` (the in-process pool) or ``process`` (spawned
    #: workers, true multi-core).  Results are deterministic — and
    #: byte-identical — regardless of backend and worker count.
    parallel: ParallelOptions = field(default_factory=ParallelOptions)
    #: artifact cache shared across runs (``vase synth --cache`` wires
    #: an on-disk one).  ``None`` means a private per-run cache: stages
    #: are still reused *within* the run — ladder rungs, solver
    #: exploration — but repeated calls (``vase profile``) stay cold.
    cache: Optional[ArtifactCache] = None
    #: telemetry bus for this run (``vase synth --events`` wires a
    #: JSONL sink onto one).  Installing a bus process-wide for the
    #: run's duration also turns on tracing and exploration logging if
    #: they are off, so a single run emits every event category.  When
    #: a bus is already active process-wide, events always join it
    #: regardless of this knob.
    telemetry: Optional[TelemetryBus] = None
    #: run ledger this run appends its outcome record to (the CLI
    #: resolves ``.vase-ledger/`` / ``VASE_LEDGER`` onto this knob;
    #: ``None`` means no persistence)
    ledger: Optional[RunLedger] = None
    #: whole-flow wall-clock budget in seconds.  Generalises the
    #: mapper's ``deadline_s``: the budget is installed on the run's
    #: lifecycle context and checked at every pipeline stage boundary
    #: *and* inside the mapper's branch loop; exhausting it raises
    #: :class:`~repro.robust.lifecycle.DeadlineExceeded`.  A runtime
    #: knob like ``parallel``: deliberately excluded from every content
    #: fingerprint (stage cache keys, ledger options digests).
    deadline_s: Optional[float] = None

    def __getstate__(self) -> Dict[str, object]:
        # Crossing a process boundary: the bus and the ledger stay with
        # the submitting side (worker telemetry is forwarded, records
        # are written at home), and the worker runs serially so it
        # never spawns a pool of its own.  ``cache`` crosses as the
        # worker's cache (``ArtifactCache.__reduce__``).
        state = dict(self.__dict__)
        state.update(telemetry=None, ledger=None, parallel=ParallelOptions())
        return state


@dataclass
class SolverOutcome:
    """What mapping one DAE causalization produced (explore_solvers)."""

    #: causalization index (the compiler's ``solver_index``)
    solver: int
    #: did branch-and-bound find a feasible mapping for this solver SFG
    feasible: bool
    area: Optional[float] = None
    opamps: Optional[int] = None
    #: failure text when infeasible
    detail: str = ""
    #: True for the best-area feasible solver the flow kept
    chosen: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "solver": self.solver,
            "feasible": self.feasible,
            "area": self.area,
            "opamps": self.opamps,
            "detail": self.detail,
            "chosen": self.chosen,
        }

    def describe(self) -> str:
        if not self.feasible:
            return f"solver #{self.solver}: infeasible ({self.detail})"
        line = (
            f"solver #{self.solver}: area {self.area * 1e12:,.0f} um^2, "
            f"{self.opamps} op amp(s)"
        )
        if self.chosen:
            line += " — selected"
        return line


@dataclass
class SynthesisResult:
    """Everything the flow produced for one design."""

    design: VhifDesign
    netlist: Netlist
    estimate: PerformanceEstimate
    mapping: MappingResult
    realized_controls: List[RealizedControl] = field(default_factory=list)
    #: per-FSM realization summary (analog vs digital fallback [8])
    fsm_summaries: List[FsmRealizationSummary] = field(default_factory=list)
    #: span trace of this run (when tracing was enabled)
    trace: Optional[Tracer] = None
    #: decision-level exploration log (when explog was enabled)
    explog: Optional[ExplorationLog] = None
    #: follower instances inserted by the interfacing transformations
    interfacing_added: List[object] = field(default_factory=list)
    #: recovery-ladder events (non-empty only when synthesis initially
    #: failed and ``FlowOptions.recovery`` climbed the ladder)
    recovery: List[RecoveryEvent] = field(default_factory=list)
    #: per-causalization outcomes (non-empty only when
    #: ``FlowOptions.explore_solvers`` mapped more than one solver)
    solver_exploration: List[SolverOutcome] = field(default_factory=list)
    #: artifact-cache counters of the run's pipeline session
    cache_stats: Optional[Dict[str, object]] = None
    #: telemetry run id of this run (every bus event and the ledger
    #: record of the run carry the same id)
    run_id: Optional[str] = None

    @property
    def summary(self) -> str:
        """Table-1 style component summary."""
        return self.netlist.summary()

    @property
    def diagnostics(self) -> List[Diagnostic]:
        """Non-fatal problems collected across the flow stages.

        One consolidated list: the mapper's own diagnostics (e.g.
        node-budget truncation), a WARNING per FSM that fell back to
        digital synthesis [8] (its area lives outside the analog
        mapping), and a NOTE per follower the interfacing
        transformations inserted.
        """
        diagnostics = list(self.mapping.diagnostics)
        for summary in self.fsm_summaries:
            if summary.mode == "analog":
                continue
            diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    f"FSM {summary.fsm!r} uses the digital fallback "
                    f"({summary.describe()}); its standard-cell area "
                    "is estimated, not synthesized by the analog flow",
                )
            )
        for instance in self.interfacing_added:
            buffered = (
                f"buffering net {instance.inputs[0]!r}"
                if instance.inputs
                else "with no input net recorded"
            )
            diagnostics.append(
                Diagnostic(
                    Severity.NOTE,
                    f"interfacing: inserted {instance.spec.name} "
                    f"{instance.name!r} {buffered}",
                )
            )
        for event in self.recovery:
            severity = (
                Severity.WARNING
                if event.outcome == OUTCOME_RECOVERED
                else Severity.NOTE
            )
            diagnostics.append(
                Diagnostic(severity, f"recovery: {event.describe()}")
            )
        return diagnostics

    @property
    def degraded(self) -> bool:
        """True when this result exists only thanks to the ladder."""
        return any(e.outcome == OUTCOME_RECOVERED for e in self.recovery)

    def describe(self) -> str:
        stats = self.design.statistics()
        search = self.mapping.statistics
        lines = [
            f"design {self.design.name!r}:",
            f"  VHIF: {stats.n_blocks} blocks, {stats.n_states} states, "
            f"{stats.n_datapath} data-path elements",
            f"  netlist: {self.summary}",
            f"  {self.estimate.describe()}",
        ]
        if self.realized_controls:
            kinds = ", ".join(
                f"{r.signal}->{r.kind}" for r in self.realized_controls
            )
            lines.append(f"  FSM controls realized: {kinds}")
        for summary in self.fsm_summaries:
            if summary.mode != "analog":
                lines.append(f"  {summary.describe()}")
        search_line = (
            f"  search: {search.nodes_visited} nodes visited, "
            f"{search.nodes_pruned} pruned, "
            f"{search.complete_mappings} complete "
            f"({search.feasible_mappings} feasible), "
            f"{search.shared_branches} shared, "
            f"{search.runtime_s * 1e3:.1f} ms"
        )
        if search.truncated:
            where = (
                "wall-clock deadline"
                if search.truncated_reason == "deadline"
                else "node budget"
            )
            search_line += f" — TRUNCATED at {where}"
        lines.append(search_line)
        if search.constraint_violations:
            lines.append(
                "  infeasible mappings killed by: "
                f"{search.violation_summary()}"
            )
        if self.solver_exploration:
            lines.append(
                f"  solver exploration "
                f"({len(self.solver_exploration)} causalization(s)):"
            )
            for outcome in self.solver_exploration:
                lines.append(f"    {outcome.describe()}")
        if self.recovery:
            lines.append(
                f"  recovery ladder ({len(self.recovery)} attempt(s), "
                f"result {'DEGRADED' if self.degraded else 'not recovered'}):"
            )
            for event in self.recovery:
                lines.append(f"    {event.describe()}")
        if self.cache_stats and self.cache_stats.get("hits"):
            lines.append(
                f"  pipeline cache: {self.cache_stats['hits']} stage "
                f"hit(s), {self.cache_stats['misses']} miss(es)"
            )
        return "\n".join(lines)

    @property
    def digital_fallback_area(self) -> float:
        """Standard-cell area of FSM parts outside the analog mapping."""
        return sum(s.estimated_area for s in self.fsm_summaries)


def derive_constraints(
    design: VhifDesign, base: ConstraintSet
) -> ConstraintSet:
    """Refine a constraint set from the design's port annotations.

    Only fields still at their dataclass defaults are derived, so an
    explicitly-configured constraint always wins:

    * ``signal_bandwidth_hz`` ← the widest FREQUENCY annotation;
    * ``signal_amplitude`` ← the largest RANGE magnitude or LIMITED
      level among the ports.
    """
    defaults = ConstraintSet()
    derived = ConstraintSet(**vars(base))

    if base.signal_bandwidth_hz == defaults.signal_bandwidth_hz:
        bands = [
            info.frequency_range[1]
            for info in design.ports.values()
            if info.frequency_range is not None
        ]
        if bands:
            derived.signal_bandwidth_hz = max(bands)

    if base.signal_amplitude == defaults.signal_amplitude:
        amplitudes = []
        for info in design.ports.values():
            if info.value_range is not None:
                low, high = info.value_range
                amplitudes.append(max(abs(low), abs(high)))
            if info.limit_level is not None:
                amplitudes.append(abs(info.limit_level))
            if info.drive_amplitude is not None:
                amplitudes.append(abs(info.drive_amplitude))
        if amplitudes:
            derived.signal_amplitude = max(amplitudes)
    return derived


def synthesize(
    source: str,
    entity_name: Optional[str] = None,
    library: Optional[ComponentLibrary] = None,
    options: Optional[FlowOptions] = None,
    architecture_name: Optional[str] = None,
    source_filename: Optional[str] = None,
) -> SynthesisResult:
    """Run the complete behavioral synthesis flow on VASS source text.

    With ``options.recovery`` enabled, a :class:`SynthesisError` does
    not kill the run immediately: the recovery ladder retries with
    alternative DAE causalizations, then the greedy mapper, then
    bounded constraint relaxation, and the returned result records
    every attempt on ``SynthesisResult.recovery``.

    With ``options.explore_solvers`` enabled, every enumerated DAE
    causalization is mapped (concurrently, on the backend
    ``options.parallel`` selects) and the best-area feasible result is
    returned, the others recorded on
    ``SynthesisResult.solver_exploration``.
    """
    options = options or FlowOptions()
    library = library or default_library()
    session = PipelineSession(
        source,
        entity_name=entity_name,
        architecture_name=architecture_name,
        source_filename=source_filename,
        options=options,
        library=library,
        cache=options.cache,
    )

    # Honour the trace/explog/telemetry knobs: start a recorder unless
    # one is already active (in which case this run's records join it).
    tracer = active_tracer()
    explog = active_explog()
    started = time.perf_counter()
    with ExitStack() as stack:
        if options.telemetry is not None and active_bus() is None:
            stack.enter_context(telemetry(options.telemetry))
            # A run that asked for a bus should put every category on
            # it: give the run a tracer and an exploration recorder
            # unless the caller already has them on.
            if tracer is None:
                tracer = stack.enter_context(tracing())
            if explog is None:
                explog = stack.enter_context(explogging())
        if options.trace and tracer is None:
            tracer = stack.enter_context(tracing())
        if options.explog and explog is None:
            explog = stack.enter_context(explogging())
        run_id = current_run_id()
        if run_id is None:
            run_id = new_run_id()
            stack.enter_context(run_scope(run_id))
        # Install the run-lifecycle context: an enclosing context (a
        # served job's cancellation token, a worker's relayed token)
        # is narrowed to the tighter deadline; otherwise a whole-flow
        # budget gets a fresh context of its own.
        if options.deadline_s is not None:
            enclosing = active_context()
            stack.enter_context(run_context(
                enclosing.child(options.deadline_s)
                if enclosing is not None
                else RunContext.create(options.deadline_s)
            ))
        source_label = source_filename or entity_name or "<vass>"
        bus = active_bus()
        if bus is not None:
            # The effective knobs ride on the started event so stream
            # consumers (the SSE watch client, the serve job router)
            # can label the run without a second lookup.
            bus.publish(
                CATEGORY_LIFECYCLE,
                {
                    "kind": "run",
                    "phase": "started",
                    "source": source_label,
                    "recovery": options.recovery,
                    "explore_solvers": options.explore_solvers,
                },
            )
        try:
            try:
                if options.explore_solvers:
                    result = _explore_solvers(session)
                else:
                    result = _synthesize_staged(session)
            except SynthesisError as err:
                if not options.recovery:
                    raise
                result = _recover(session, err)
        except CancelledError as err:
            # Cancelled / over-budget runs still leave a full audit
            # trail: a terminal lifecycle event, a cancellation event,
            # and a ledger record with the "cancelled" outcome.
            elapsed = time.perf_counter() - started
            if bus is not None:
                bus.publish(
                    CATEGORY_LIFECYCLE,
                    {
                        "kind": "run",
                        "phase": "finished",
                        "status": "cancelled",
                        "source": source_label,
                        "error": str(err),
                        "elapsed_s": elapsed,
                    },
                )
                bus.publish(
                    CATEGORY_CANCELLED,
                    {
                        "source": source_label,
                        "reason": str(err),
                        "elapsed_s": elapsed,
                    },
                )
            if options.ledger is not None:
                options.ledger.append(record_for_cancelled(
                    run_id, source, source_label, elapsed, options,
                    str(err),
                ))
            raise
        except SynthesisError as err:
            elapsed = time.perf_counter() - started
            if bus is not None:
                bus.publish(
                    CATEGORY_LIFECYCLE,
                    {
                        "kind": "run",
                        "phase": "finished",
                        "status": "failed",
                        "source": source_label,
                        "error": str(err),
                        "elapsed_s": elapsed,
                    },
                )
            if options.ledger is not None:
                options.ledger.append(record_for_failure(
                    run_id, source, source_label, elapsed, options, err,
                ))
            raise
        result.trace = tracer
        result.explog = explog
        result.cache_stats = session.cache.stats.as_dict()
        result.run_id = run_id
        elapsed = time.perf_counter() - started
        if bus is not None:
            bus.publish(
                CATEGORY_LIFECYCLE,
                {
                    "kind": "run",
                    "phase": "finished",
                    "status": "degraded" if result.degraded else "ok",
                    "source": source_label,
                    "design": result.design.name,
                    "elapsed_s": elapsed,
                },
            )
        if options.ledger is not None:
            label = (
                source_label if source_label != "<vass>"
                else result.design.name
            )
            options.ledger.append(record_for_result(
                result, source, label, elapsed, options,
            ))
    return result


def _emit_recovery(event: RecoveryEvent) -> None:
    """Mirror a ladder event into the active exploration log, if any."""
    explog = active_explog()
    if explog is not None:
        explog.emit("recovery", **event.as_dict())


def _solver_attempt(session: PipelineSession, index: int):
    """One causalization attempt: ``(result, None)`` or ``(None, error)``."""
    try:
        return _synthesize_staged(session, solver_index=index), None
    except SynthesisError as err:
        return None, err


def _explore_solvers(session: PipelineSession) -> SynthesisResult:
    """Map every enumerated causalization, keep the best-area result.

    The paper states that each DAE causalization yields a distinct
    solver SFG and that synthesis considers all of them; this is that
    mode.  Attempts run on the executor ``options.parallel`` selects
    (inline, thread pool, or spawned worker processes); the winner is
    ``min`` by ``(area, solver_index)``, so the choice is
    deterministic no matter how many workers raced.  One
    ``solver_explored`` explog event per solver is emitted — from the
    calling thread, after the executor drained.
    """
    options = session.options
    with trace_phase("explore_solvers") as span:
        causalizations = session.enumerate_causalizations()
        count = len(causalizations)
        span.annotate(solvers=count)
        if count <= 1:
            # Nothing to explore; run the plain staged flow so the
            # usual spans/diagnostics shape is preserved.
            return _synthesize_staged(session)

        # Workers inherit the submitting thread's run id (the executor
        # re-enters / forwards it), so their telemetry — cache ops,
        # metric deltas — lands on this run with dense seqs.
        with create_executor(
            options.parallel.bounded(count), cache=session.cache
        ) as executor:
            span.annotate(executor=executor.kind)
            outcomes = executor.map_ordered([
                Task(_solver_attempt, (session, index))
                for index in range(count)
            ])

        best_index: Optional[int] = None
        best_result: Optional[SynthesisResult] = None
        exploration: List[SolverOutcome] = []
        last_error: Optional[SynthesisError] = None
        for index, (result, error) in enumerate(outcomes):
            if result is not None:
                area = result.estimate.area
                if best_result is None or (
                    (area, index)
                    < (best_result.estimate.area, best_index)
                ):
                    best_index, best_result = index, result
                exploration.append(SolverOutcome(
                    solver=index,
                    feasible=True,
                    area=area,
                    opamps=result.estimate.opamps,
                ))
            else:
                last_error = error
                exploration.append(SolverOutcome(
                    solver=index, feasible=False, detail=str(error),
                ))

        explog = active_explog()
        for outcome in exploration:
            outcome.chosen = outcome.solver == best_index
            if explog is not None:
                explog.emit("solver_explored", **outcome.as_dict())

        if best_result is None:
            raise SynthesisError(
                f"explore_solvers: none of {count} causalization(s) "
                f"mapped feasibly (last failure: {last_error})",
                statistics=getattr(last_error, "statistics", None),
            )
        span.annotate(winner=best_index)
        best_result.solver_exploration = exploration
        return best_result


def _recover(
    session: PipelineSession, failure: SynthesisError
) -> SynthesisResult:
    """Climb the recovery ladder after a failed synthesis attempt.

    Rungs, in order: alternative DAE causalizations (a different VHIF
    topology may map feasibly), the greedy first-solution mapper (finds
    *a* feasible mapping where the exhaustive search hit its budget),
    and bounded constraint relaxation driven by the named violation
    tally of the failed searches.  Returns the first recovered result
    (its ``recovery`` list holds the whole climb) or re-raises a
    :class:`SynthesisError` summarizing every attempted rung.

    All rungs run on the shared pipeline session, so the source is
    parsed once, compiled once per distinct causalization, and the
    greedy/relaxation rungs reuse the compiled/optimized VHIF artifact
    outright.
    """
    options = session.options
    log = RecoveryLog()
    _emit_recovery(log.record(
        RUNG_BASELINE, "branch-and-bound mapping",
        OUTCOME_FAILED, str(failure),
    ))
    last_stats = failure.statistics

    def _finish(result: SynthesisResult) -> SynthesisResult:
        result.recovery = list(log.events)
        return result

    # Rung 1: alternative DAE causalizations.  Exactly one event when
    # the rung cannot run: FAILED when enumeration itself died, SKIPPED
    # when it succeeded but offered no alternative.
    causalizations = None
    try:
        causalizations = session.enumerate_causalizations(
            max_solvers=max(
                options.compiler.max_solvers, MAX_CAUSALIZATIONS + 1,
            ),
        )
    except VaseError as err:
        _emit_recovery(log.record(
            RUNG_CAUSALIZATION, "enumerate DAE causalizations",
            OUTCOME_FAILED, str(err),
        ))
    if causalizations is not None:
        if len(causalizations) <= 1:
            _emit_recovery(log.record(
                RUNG_CAUSALIZATION, "alternative DAE causalizations",
                OUTCOME_SKIPPED,
                f"{len(causalizations)} causalization(s) available",
            ))
        else:
            baseline = min(
                options.compiler.solver_index, len(causalizations) - 1
            )
            tried = 0
            for index in range(len(causalizations)):
                if index == baseline or tried >= MAX_CAUSALIZATIONS:
                    continue
                tried += 1
                try:
                    result = _synthesize_staged(session, solver_index=index)
                except SynthesisError as err:
                    last_stats = err.statistics or last_stats
                    _emit_recovery(log.record(
                        RUNG_CAUSALIZATION, f"causalization #{index}",
                        OUTCOME_FAILED, str(err),
                    ))
                    continue
                _emit_recovery(log.record(
                    RUNG_CAUSALIZATION, f"causalization #{index}",
                    OUTCOME_RECOVERED,
                    "alternative VHIF topology mapped feasibly",
                ))
                return _finish(result)

    # Rung 2: the greedy first-solution mapper (no unconstrained
    # fallback here — an infeasible greedy mapping must fail the rung
    # so constraint relaxation gets its turn).
    try:
        result = _synthesize_staged(session, use_greedy=True)
    except SynthesisError as err:
        last_stats = err.statistics or last_stats
        _emit_recovery(log.record(
            RUNG_GREEDY, "greedy mapper", OUTCOME_FAILED, str(err),
        ))
    else:
        _emit_recovery(log.record(
            RUNG_GREEDY, "greedy mapper", OUTCOME_RECOVERED,
            "first-solution heuristic found a feasible mapping "
            "(not proven optimal)",
        ))
        return _finish(result)

    # Rung 3: bounded constraint relaxation driven by the named
    # violation tally of the failed searches.
    violations: Dict[str, int] = {}
    if last_stats is not None:
        violations = dict(
            getattr(last_stats, "constraint_violations", {}) or {}
        )
    if not violations:
        _emit_recovery(log.record(
            RUNG_RELAX, "constraint relaxation", OUTCOME_SKIPPED,
            "the failed searches named no violated constraints",
        ))
    else:
        current = options.constraints
        if options.derive_constraints_from_annotations:
            try:
                design, _realized, _key = session.prepared()
                current = derive_constraints(design, current)
            except VaseError:
                pass  # relax the explicit set instead
        for step in range(1, MAX_RELAX_STEPS + 1):
            relaxed, changes = relax_constraints(current, violations)
            if not changes:
                _emit_recovery(log.record(
                    RUNG_RELAX, f"relax step {step}", OUTCOME_SKIPPED,
                    "no named violation is relaxable",
                ))
                break
            action = f"relax step {step}: " + "; ".join(changes)
            try:
                result = _synthesize_staged(
                    session, constraints_override=relaxed
                )
            except SynthesisError as err:
                current = relaxed
                if err.statistics is not None and getattr(
                    err.statistics, "constraint_violations", None
                ):
                    violations = dict(err.statistics.constraint_violations)
                last_stats = err.statistics or last_stats
                _emit_recovery(log.record(
                    RUNG_RELAX, action, OUTCOME_FAILED, str(err),
                ))
                continue
            _emit_recovery(log.record(
                RUNG_RELAX, action, OUTCOME_RECOVERED,
                "constraints loosened; result is DEGRADED relative "
                "to the original specification",
            ))
            return _finish(result)

    ladder = " | ".join(event.describe() for event in log.events)
    raise SynthesisError(
        f"{failure} [recovery ladder exhausted after "
        f"{len(log.events)} attempt(s): {ladder}]",
        statistics=failure.statistics,
    )


def _synthesize_staged(
    session: PipelineSession,
    solver_index: Optional[int] = None,
    use_greedy: bool = False,
    constraints_override: Optional[ConstraintSet] = None,
) -> SynthesisResult:
    """The flow proper: one pipeline stage (and span) per phase.

    ``use_greedy`` and ``constraints_override`` are the recovery
    ladder's hooks: the former swaps the branch-and-bound mapper for
    the greedy heuristic (without its unconstrained fallback), the
    latter replaces the constraint set entirely — annotation-derived
    defaults included, since relaxation starts from the derived set.
    ``solver_index`` is the causalization hook shared by the ladder
    and the solver-space exploration.  Every stage consults the
    session's artifact cache, so repeated calls only pay for what
    actually changed.
    """
    options = session.options
    with trace_phase("synthesize") as flow_span:
        design, realized, design_key = session.prepared(solver_index)
        flow_span.annotate(design=design.name)

        if constraints_override is not None:
            constraints = constraints_override
        else:
            constraints = options.constraints
            if options.derive_constraints_from_annotations:
                constraints = derive_constraints(design, constraints)

        mapping, map_key = session.mapped(
            design, design_key, constraints, use_greedy
        )
        netlist = mapping.netlist
        interfacing_added: List[object] = []
        upstream_key = map_key
        if options.interfacing is not None:
            netlist, interfacing_added, upstream_key = session.interfaced(
                netlist, design, map_key
            )
            mapping = replace(mapping, netlist=netlist)
        estimate, _ = session.estimated(netlist, constraints, upstream_key)
    return SynthesisResult(
        design=design,
        netlist=netlist,
        estimate=estimate,
        mapping=mapping,
        realized_controls=realized,
        fsm_summaries=summarize_fsm_realizations(design, realized),
        interfacing_added=interfacing_added,
    )
