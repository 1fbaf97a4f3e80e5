"""The Figure-1 flow as first-class, cacheable pipeline stages.

The paper's synthesis flow is a sequence of distinct phases — compile
(VASS to VHIF), FSM realization, VHIF optimization, architecture
mapping, interfacing, estimation.  This module makes each phase a
:class:`StageDef` whose output is an immutable artifact stored in an
:class:`~repro.pipeline.cache.ArtifactCache` under a deterministic
content-addressed key:

``frontend``
    VASS text → analyzed design.  Key: source text + entity/architecture
    selection.
``enumerate_solvers``
    analyzed design → all DAE causalizations.  Key: frontend key +
    ``max_solvers``.
``compile``
    analyzed design → validated VHIF.  Key: frontend key + the
    :class:`~repro.compiler.CompilerOptions` subtree (so every distinct
    ``solver_index`` is a distinct artifact).
``realize_fsm`` / ``optimize_vhif``
    VHIF → VHIF with analog control realizations / after the peephole
    passes.  Keys chain on the upstream key.  Both always run: the
    stages are the Figure-1 phases, not options.
``map``
    VHIF → :class:`~repro.synth.MappingResult`.  Key: upstream key +
    mapper options + the *actual* constraint set (derived values
    included) + the component-library fingerprint + the greedy flag.
``interfacing`` / ``estimate``
    netlist transformations and the final performance estimate, chained
    on the map key.

A :class:`PipelineSession` binds one (source, options, library) triple
to a cache and exposes one method per stage; the flow, the recovery
ladder, the solver-space exploration and ``vase batch`` all run
through it, so a ladder climb compiles the source once and each rung
reuses the compiled/optimized VHIF artifact.  Failures are never
cached: an exception inside a stage's compute leaves the cache
untouched.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from repro.instrument.metrics import metrics
from repro.instrument.tracer import trace_phase
from repro.pipeline.cache import MISS, ArtifactCache
from repro.pipeline.fingerprint import fingerprint, library_fingerprint
from repro.robust.lifecycle import checkpoint


@dataclass(frozen=True)
class StageDef:
    """One Figure-1 phase: a cache namespace plus its trace span name."""

    #: cache namespace and metrics name (``pipeline.stage.<name>.*``)
    name: str
    #: trace span the stage opens (kept identical to the pre-pipeline
    #: flow so existing timing trees and profiles stay comparable)
    span: str
    #: bump to invalidate every cached artifact of this stage
    version: int = 1

    def key(self, *parts: object) -> str:
        """Content-addressed key of this stage for ``parts``."""
        return fingerprint(self.name, self.version, *parts)


FRONTEND = StageDef("frontend", "frontend")
ENUMERATE = StageDef("enumerate_solvers", "enumerate_solvers")
COMPILE = StageDef("compile", "compile")
REALIZE_FSM = StageDef("realize_fsm", "realize_fsm_controls")
OPTIMIZE = StageDef("optimize_vhif", "optimize_vhif")
MAP = StageDef("map", "map")
INTERFACE = StageDef("interfacing", "interfacing")
ESTIMATE = StageDef("estimate", "estimate")

#: All stages, in flow order (documentation and introspection).
ALL_STAGES: Tuple[StageDef, ...] = (
    FRONTEND, ENUMERATE, COMPILE, REALIZE_FSM, OPTIMIZE, MAP, INTERFACE,
    ESTIMATE,
)


@functools.lru_cache(maxsize=None)
def _default_library_fingerprint() -> str:
    """``library_fingerprint(default_library())``, once per process."""
    from repro.library import default_library

    return library_fingerprint(default_library())


class PipelineSession:
    """One design bound to a cache: the stage graph of a synthesis run.

    The session owns no mutable artifact state — every stage output
    lives in the cache and is shared read-only with every caller; the
    stages that rewrite their input (FSM realization, VHIF
    optimization, interfacing) rewrite a copy — so one session may be
    driven from several worker threads at once (the solver-space
    exploration does exactly that).
    """

    def __init__(
        self,
        source: str,
        entity_name: Optional[str] = None,
        architecture_name: Optional[str] = None,
        source_filename: Optional[str] = None,
        options=None,
        library=None,
        cache: Optional[ArtifactCache] = None,
    ):
        from repro.flow import FlowOptions
        from repro.library import default_library

        self.source = source
        self.entity_name = entity_name
        self.architecture_name = architecture_name
        self.source_filename = source_filename
        self.options = options if options is not None else FlowOptions()
        self.cache = cache if cache is not None else ArtifactCache()
        if library is None:
            self.library = default_library()
            self.library_fp = _default_library_fingerprint()
        else:
            self.library = library
            self.library_fp = library_fingerprint(library)

    # -- the generic stage runner -----------------------------------------

    def _run(
        self,
        stage: StageDef,
        digest: str,
        compute: Callable[[], object],
        annotate: Optional[Callable[[object], dict]] = None,
    ) -> object:
        """Serve ``digest`` from the cache or compute-and-store it."""
        # Stage boundaries are the pipeline's cancellation points: a
        # cancelled or over-budget run stops before the next compute.
        checkpoint(f"stage:{stage.name}")
        with trace_phase(stage.span) as span:
            value = self.cache.get(digest, stage=stage.name)
            if value is not MISS:
                span.annotate(cache="hit", key=digest[:12])
            else:
                started = time.perf_counter()
                value = compute()
                # The ``_s`` suffix keeps this out of bench-check
                # baselines (extract_metrics gates timing keys).
                metrics().observe(
                    f"pipeline.stage.{stage.name}.runtime_s",
                    time.perf_counter() - started,
                )
                self.cache.put(digest, value, stage=stage.name)
                span.annotate(cache="miss", key=digest[:12])
            if annotate is not None:
                span.annotate(**annotate(value))
            return value

    # -- frontend ----------------------------------------------------------

    def frontend_key(self) -> str:
        return FRONTEND.key(
            self.source, self.entity_name, self.architecture_name
        )

    def frontend(self):
        """The analyzed design (parse + semantic analysis)."""
        from repro.vass.parser import parse_source
        from repro.vass.semantics import analyze

        def compute():
            return analyze(
                parse_source(
                    self.source,
                    filename=self.source_filename or "<string>",
                ),
                entity_name=self.entity_name,
                architecture_name=self.architecture_name,
            )

        return self._run(FRONTEND, self.frontend_key(), compute)

    def enumerate_causalizations(
        self, max_solvers: Optional[int] = None
    ) -> list:
        """All DAE causalizations ("solvers") of the design's DAE set."""
        from repro.compiler import enumerate_solvers

        limit = (
            max_solvers
            if max_solvers is not None
            else self.options.compiler.max_solvers
        )
        digest = ENUMERATE.key(self.frontend_key(), limit)

        def compute():
            return enumerate_solvers(self.frontend(), max_solvers=limit)

        return self._run(
            ENUMERATE, digest, compute,
            annotate=lambda solvers: {"solvers": len(solvers)},
        )

    # -- compile / realize / optimize --------------------------------------

    def _compiler_options(self, solver_index: Optional[int]):
        if solver_index is None:
            return self.options.compiler
        return replace(self.options.compiler, solver_index=solver_index)

    def compile_key(self, solver_index: Optional[int] = None) -> str:
        return COMPILE.key(
            self.frontend_key(), self._compiler_options(solver_index)
        )

    def compiled(self, solver_index: Optional[int] = None):
        """The validated VHIF design for one causalization choice."""
        from repro.compiler import compile_design

        copts = self._compiler_options(solver_index)

        def compute():
            return compile_design(self.frontend(), options=copts)

        return self._run(COMPILE, self.compile_key(solver_index), compute)

    def prepared(
        self, solver_index: Optional[int] = None
    ) -> Tuple[object, List[object], str]:
        """The mapping-ready design: ``(design, realized_controls, key)``.

        Runs the compile stage, then the FSM-realization and
        VHIF-optimization stages, each consuming the previous artifact.
        """
        from repro.synth.fsm_mapping import realize_event_controls
        from repro.vhif.optimize import optimize_design

        compiled = self.compiled(solver_index)
        realize_key = REALIZE_FSM.key(self.compile_key(solver_index))

        def compute_realize():
            rewritten = compiled.copy()
            return (rewritten, realize_event_controls(rewritten))

        realized_design, realized = self._run(
            REALIZE_FSM, realize_key, compute_realize,
            annotate=lambda v: {"realized": len(v[1])},
        )
        optimize_key = OPTIMIZE.key(realize_key)

        def compute_optimize():
            rewritten = realized_design.copy()
            optimize_design(rewritten)
            return (rewritten, realized)

        design, realized = self._run(OPTIMIZE, optimize_key, compute_optimize)
        return design, realized, optimize_key

    # -- map / interface / estimate ----------------------------------------

    def map_key(
        self, design_key: str, constraints, use_greedy: bool
    ) -> str:
        return MAP.key(
            design_key,
            self.options.mapper,
            constraints,
            self.library_fp,
            bool(use_greedy),
        )

    def mapped(
        self, design, design_key: str, constraints, use_greedy: bool
    ) -> Tuple[object, str]:
        """Architecture generation: ``(MappingResult, key)``."""
        from repro.estimation import Estimator
        from repro.library import PatternMatcher
        from repro.synth import map_sfg
        from repro.synth.greedy import map_sfg_greedy

        digest = self.map_key(design_key, constraints, use_greedy)

        def compute():
            estimator = Estimator(constraints=constraints)
            matcher = PatternMatcher(
                self.library,
                enable_transforms=self.options.mapper.enable_transforms,
            )
            if use_greedy:
                return map_sfg_greedy(
                    design.main_sfg,
                    library=self.library,
                    estimator=estimator,
                    matcher=matcher,
                    fallback_unconstrained=False,
                )
            return map_sfg(
                design.main_sfg,
                library=self.library,
                estimator=estimator,
                options=self.options.mapper,
                matcher=matcher,
            )

        mapping = self._run(
            MAP, digest, compute,
            annotate=lambda m: m.statistics.as_dict(),
        )
        return mapping, digest

    def interfaced(
        self, netlist, design, map_digest: str
    ) -> Tuple[object, List[object], str]:
        """Interfacing transformations: ``(netlist, added, key)``."""
        from repro.synth import apply_interfacing

        digest = INTERFACE.key(map_digest, self.options.interfacing)

        def compute():
            rewritten = netlist.copy()
            added = apply_interfacing(
                rewritten, design, self.options.interfacing
            )
            return (rewritten, added)

        result, added = self._run(
            INTERFACE, digest, compute,
            annotate=lambda v: {"followers_added": len(v[1])},
        )
        return result, added, digest

    def estimated(
        self, netlist, constraints, upstream_digest: str
    ) -> Tuple[object, str]:
        """Performance estimation: ``(PerformanceEstimate, key)``."""
        from repro.estimation import Estimator

        digest = ESTIMATE.key(upstream_digest, constraints)

        def compute():
            return Estimator(constraints=constraints).estimate(netlist)

        estimate = self._run(
            ESTIMATE, digest, compute,
            annotate=lambda e: {"area": e.area, "opamps": e.opamps},
        )
        return estimate, digest
