"""Greedy mapping heuristic: the paper's future-work baseline.

Section 7 notes that the branch-and-bound algorithm "might fail for
larger designs" and that ongoing work "attempts to replace the
branch-and-bound method by a more time-effective exploration heuristic".
This module provides that heuristic so the scaling benchmark can compare
optimality against runtime: at every step it takes the largest matching
cone (ties broken by fewest op amps), shares when possible, and never
backtracks.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.diagnostics import SynthesisError
from repro.estimation.estimator import Estimator
from repro.library.components import ComponentLibrary
from repro.library.patterns import PatternMatcher
from repro.synth.mapper import (
    ArchitectureMapper,
    MapperOptions,
    MappingResult,
)
from repro.vhif.sfg import SignalFlowGraph


def map_sfg_greedy(
    sfg: SignalFlowGraph,
    library: Optional[ComponentLibrary] = None,
    estimator: Optional[Estimator] = None,
    matcher: Optional[PatternMatcher] = None,
    max_cone_size: int = 4,
    fallback_unconstrained: bool = True,
) -> MappingResult:
    """Greedy, non-backtracking mapping of one signal-flow graph.

    Implemented as the branch-and-bound machinery in first-solution
    mode with the largest-first sequencing rule: the first complete
    mapping down the leftmost path *is* the greedy solution.

    With ``fallback_unconstrained`` (the benchmark default), a greedy
    path that dies on constraints is retried with an unconstrained
    estimator so its area is still reported.  The recovery ladder
    disables the fallback: there an infeasible greedy solution must
    *fail* the rung so constraint relaxation gets its turn.
    """
    options = MapperOptions(
        enable_bounding=False,
        enable_sharing=True,
        enable_transforms=False,
        sequencing="largest_first",
        max_cone_size=max_cone_size,
        first_solution_only=True,
    )
    mapper = ArchitectureMapper(
        sfg,
        library=library,
        estimator=estimator,
        options=options,
        matcher=matcher,
    )
    start = time.perf_counter()
    try:
        result = mapper.run()
    except SynthesisError:
        if not fallback_unconstrained:
            raise
        # The greedy path may die on constraints; fall back to accepting
        # the first complete mapping regardless of feasibility so the
        # benchmark can still report its area.
        relaxed = ArchitectureMapper(
            sfg,
            library=library,
            estimator=Estimator(),  # unconstrained
            options=options,
            matcher=matcher,
        )
        result = relaxed.run()
    result.statistics.runtime_s = time.perf_counter() - start
    return result
