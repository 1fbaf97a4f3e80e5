"""Staged synthesis pipeline: cacheable artifacts and bounded parallelism.

The Figure-1 flow of the paper, restructured as first-class stages.
See :mod:`repro.pipeline.stages` for the stage graph,
:mod:`repro.pipeline.cache` for the two-tier artifact cache and
:mod:`repro.pipeline.executor` for the pluggable execution backends
(``serial`` / ``thread`` / ``process``) behind
:class:`~repro.pipeline.executor.ParallelOptions`, used by
``FlowOptions.explore_solvers``, ``vase batch`` and ``vase serve``.
"""

from repro.pipeline.cache import MISS, ArtifactCache, CacheStats
from repro.pipeline.executor import (
    EXECUTOR_KINDS,
    Executor,
    ParallelOptions,
    ProcessExecutor,
    SerialExecutor,
    Task,
    ThreadExecutor,
    create_executor,
)
from repro.pipeline.fingerprint import (
    canonicalize,
    fingerprint,
    library_fingerprint,
)
from repro.pipeline.stages import (
    ALL_STAGES,
    COMPILE,
    ENUMERATE,
    ESTIMATE,
    FRONTEND,
    INTERFACE,
    MAP,
    OPTIMIZE,
    REALIZE_FSM,
    PipelineSession,
    StageDef,
)

__all__ = [
    "ALL_STAGES",
    "ArtifactCache",
    "CacheStats",
    "COMPILE",
    "ENUMERATE",
    "ESTIMATE",
    "EXECUTOR_KINDS",
    "Executor",
    "FRONTEND",
    "INTERFACE",
    "MAP",
    "MISS",
    "OPTIMIZE",
    "ParallelOptions",
    "PipelineSession",
    "ProcessExecutor",
    "REALIZE_FSM",
    "SerialExecutor",
    "StageDef",
    "Task",
    "ThreadExecutor",
    "canonicalize",
    "create_executor",
    "fingerprint",
    "library_fingerprint",
]
