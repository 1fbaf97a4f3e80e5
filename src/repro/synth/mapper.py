"""Branch-and-bound architecture generation (paper Section 5, Figure 5).

Maps the signal-flow graphs of a VHIF representation onto a net-list of
library components so that all performance constraints are satisfied
and the total ASIC area is minimized.  The three problem-specific rules
of the paper are implemented explicitly and individually switchable for
the ablation benchmarks:

* **branching rule** (◇): all library-mappable sub-graphs (cones) with
  the current block as output, produced by the pattern matcher —
  including functional-transformation alternatives (amplifier cascades);
  the *sharing* branch (reuse an existing identical component) is tried
  before the *allocation* branch;
* **bounding rule** (□): a partial mapping is abandoned when
  ``(opamp_nr + cone_opamps) * MinArea`` is already no better than the
  best complete solution, with ``MinArea`` the area of a minimum-size
  op amp;
* **sequencing rule**: branching alternatives that map more blocks onto
  one component are visited first, so a good solution is found early
  and the bounding rule becomes effective.

Complete mappings are ranked by the analog performance estimation tools
(•): the estimator sizes every op amp and rolls up area and power; the
feasible minimum-area mapping wins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.diagnostics import Diagnostic, Severity, SynthesisError
from repro.estimation.constraints import (
    ConstraintSet,
    ConstraintViolation,
    PerformanceEstimate,
)
from repro.estimation.estimator import Estimator
from repro.instrument import active_explog, metrics, trace_phase
from repro.library.components import ComponentLibrary, default_library
from repro.library.patterns import CandidateIndex, PatternMatch, PatternMatcher
from repro.robust.faultinject import INJECTED_VIOLATION, fault_active
from repro.robust.lifecycle import active_context
from repro.synth.netlist import ComponentInstance, Netlist
from repro.vhif.design import VhifDesign
from repro.vhif.sfg import Block, BlockKind, CONTROL_PORT, SignalFlowGraph


@dataclass
class MapperOptions:
    """Search-strategy knobs (ablation points of DESIGN.md §5).

    All fields feed the MAP stage cache key and the ledger options
    digest.  The search always enumerates candidates through an
    incremental :class:`~repro.library.patterns.CandidateIndex`, and
    the Figure-6 decision tree is rebuilt from the exploration log
    (:func:`repro.instrument.explog.decision_tree`), so neither has a
    knob here.
    """

    enable_bounding: bool = True
    #: which lower bound prunes partial mappings (the paper's Section 7
    #: hopes for "more effective bounding rules"):
    #: "minarea"  — the paper's rule: op-amp count x MinArea;
    #: "exact"    — accumulated exact area of allocated instances;
    #: "combined" — the tighter of the two (default).
    bounding_mode: str = "combined"
    enable_sharing: bool = True
    enable_transforms: bool = True
    #: "largest_first" (the paper's rule), "smallest_first", "arbitrary"
    sequencing: str = "largest_first"
    #: try the sharing branch before allocating new hardware
    share_first: bool = True
    max_cone_size: int = 4
    #: safety cap on visited decision nodes
    max_nodes: int = 500_000
    #: wall-clock deadline for the search, seconds (None = unbounded);
    #: checked alongside ``max_nodes`` — on expiry the best incumbent
    #: is returned with ``truncated_reason == "deadline"``
    deadline_s: Optional[float] = None
    #: stop at the first feasible complete mapping (greedy-ish mode)
    first_solution_only: bool = False


@dataclass
class MappingStatistics:
    """Search effort counters."""

    nodes_visited: int = 0
    nodes_pruned: int = 0
    complete_mappings: int = 0
    feasible_mappings: int = 0
    shared_branches: int = 0
    runtime_s: float = 0.0
    #: the search stopped at a budget before exhausting the tree, so
    #: the reported mapping is best-found, not proven optimal
    truncated: bool = False
    #: which budget stopped the search: ``"nodes"`` (``max_nodes``) or
    #: ``"deadline"`` (``deadline_s``); None while not truncated
    truncated_reason: Optional[str] = None
    #: how often each named constraint killed a complete mapping
    #: (``sizing``, ``max_area``, ``min_ugf``, ...)
    constraint_violations: Dict[str, int] = field(default_factory=dict)

    @property
    def infeasible_mappings(self) -> int:
        return self.complete_mappings - self.feasible_mappings

    def violation_summary(self) -> str:
        """``"min_ugf x3, max_opamps x1"`` — empty when nothing failed."""
        return ", ".join(
            f"{name} x{count}"
            for name, count in sorted(self.constraint_violations.items())
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "nodes_visited": self.nodes_visited,
            "nodes_pruned": self.nodes_pruned,
            "complete_mappings": self.complete_mappings,
            "feasible_mappings": self.feasible_mappings,
            "shared_branches": self.shared_branches,
            "runtime_s": self.runtime_s,
            "truncated": self.truncated,
            "truncated_reason": self.truncated_reason,
            "constraint_violations": dict(
                sorted(self.constraint_violations.items())
            ),
        }


@dataclass
class MappingResult:
    """Outcome of architecture generation for one SFG."""

    netlist: Netlist
    estimate: PerformanceEstimate
    statistics: MappingStatistics
    #: op-amp counts of every complete mapping, in discovery order
    solution_opamps: List[int] = field(default_factory=list)
    #: non-fatal problems of the search (e.g. node-budget truncation)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def describe(self) -> str:
        text = (
            f"{self.netlist.summary()} | {self.estimate.describe()} | "
            f"{self.statistics.nodes_visited} nodes, "
            f"{self.statistics.nodes_pruned} pruned"
        )
        if self.statistics.truncated:
            budget = (
                "deadline hit"
                if self.statistics.truncated_reason == "deadline"
                else "node budget hit"
            )
            text += f" | TRUNCATED ({budget}; result may be suboptimal)"
        return text


def _largest_first_key(match: PatternMatch) -> Tuple[int, int, str]:
    return (-match.size, match.opamps, match.component)


def _smallest_first_key(match: PatternMatch) -> Tuple[int, int, str]:
    return (match.size, match.opamps, match.component)


#: sequencing rule -> candidate sort key ("arbitrary" keeps matcher order)
_SEQUENCING_KEYS = {
    "largest_first": _largest_first_key,
    "smallest_first": _smallest_first_key,
}


class ArchitectureMapper:
    """The Figure-5 algorithm over one signal-flow graph."""

    def __init__(
        self,
        sfg: SignalFlowGraph,
        library: Optional[ComponentLibrary] = None,
        estimator: Optional[Estimator] = None,
        options: Optional[MapperOptions] = None,
        matcher: Optional[PatternMatcher] = None,
    ):
        self.sfg = sfg
        self.library = library or default_library()
        self.estimator = estimator or Estimator()
        self.options = options or MapperOptions()
        self.matcher = matcher or PatternMatcher(
            self.library, enable_transforms=self.options.enable_transforms
        )
        self.min_area = self.estimator.min_area_per_opamp(self.library)

        # Search state.
        self._instances: List[ComponentInstance] = []
        self._area_stack: List[float] = []  # per-instance estimated areas
        self._area_so_far = 0.0
        self._covered: Set[int] = set()
        self._alias: Dict[int, int] = {}  # net id -> canonical net id
        self._best_netlist: Optional[Netlist] = None
        self._best_estimate: Optional[PerformanceEstimate] = None
        self._stats = MappingStatistics()
        self._area_cache: Dict[Tuple[str, str], float] = {}
        # The incremental candidate index (and the memos it makes
        # sound): index entries are long-lived, so per-match areas can
        # be memoized by object identity, and per-root minimum areas
        # feed the tightened lower bound.
        self._index = CandidateIndex(
            self.matcher,
            self.sfg,
            max_cone_size=self.options.max_cone_size,
            include_transforms=self.options.enable_transforms,
            sort_key=_SEQUENCING_KEYS.get(self.options.sequencing),
        )
        self._area_by_match: Dict[int, float] = {}
        self._min_area_memo: Dict[int, Optional[float]] = {}
        #: decision-tree node ids (Figure 6): the root is node 0, every
        #: alloc/share/prune branch takes the next one
        self._nodes = 0
        self._solutions: List[int] = []
        self._abort = False
        #: absolute perf_counter() time after which the search stops
        self._deadline: Optional[float] = None
        #: the exploration recorder, captured once per run; ``None``
        #: keeps every decision site on the zero-allocation fast path
        self._explog = None
        #: the run-lifecycle context, captured once per run; checked
        #: in the branch loop so a cancel request or an exhausted
        #: whole-flow budget stops the search between decision nodes
        self._lifecycle = None

    # -- net aliasing (hardware sharing) ----------------------------------------

    def _resolve(self, net: int) -> int:
        seen = set()
        while net in self._alias and net not in seen:
            seen.add(net)
            net = self._alias[net]
        return net

    # -- roots and frontier -------------------------------------------------------

    def _initial_pending(self) -> FrozenSet[int]:
        """Blocks that anchor the mapping: sinks of the data flow."""
        pending: Set[int] = set()
        for block in self.sfg.processing_blocks():
            successors = self.sfg.successors(block)
            data_sinks = [
                (sink, port)
                for sink, port in successors
                if port != CONTROL_PORT and sink.kind is not BlockKind.OUTPUT
            ]
            if not data_sinks:
                pending.add(block.block_id)
        if not pending and self.sfg.processing_blocks():
            # Cyclic graph with no pure sink: anchor at integrators.
            for block in self.sfg.blocks_of_kind(BlockKind.INTEGRATE):
                pending.add(block.block_id)
        return frozenset(pending)

    def _frontier_after(
        self,
        pending: FrozenSet[int],
        match: PatternMatch,
        covered: Optional[Set[int]] = None,
    ) -> FrozenSet[int]:
        """Update the worklist after covering ``match.cone``.

        ``covered`` previews the frontier against a hypothetical covered
        set (the bound computation asks "what if this match were
        covered?" *before* mutating state); the default is the live one.
        This matters for self-feeding cones — an integrator loop's input
        driver can sit inside its own cone, so pre- and post-cover
        frontiers differ.
        """
        if covered is None:
            covered = self._covered
        new_pending = set(pending)
        new_pending -= match.cone
        for net in match.inputs:
            block = self.sfg.block(net)
            if block.kind.is_source():
                continue
            if block.block_id not in covered:
                new_pending.add(block.block_id)
        if isinstance(match.control, int):
            control_block = self.sfg.block(match.control)
            if (
                not control_block.kind.is_source()
                and control_block.block_id not in covered
            ):
                new_pending.add(control_block.block_id)
        return frozenset(new_pending)

    # -- candidate ordering -------------------------------------------------------------

    def _ordered_candidates(self, root: Block) -> List[PatternMatch]:
        """The viable candidates of ``root``, in sequencing order."""
        return self._index.candidates(root)

    # -- covered-set bookkeeping (kept in sync with the index) ------------------

    def _cover(self, cone: FrozenSet[int]) -> None:
        self._covered |= cone
        self._index.cover(cone)

    def _uncover(self, cone: FrozenSet[int]) -> None:
        self._covered -= cone
        self._index.uncover(cone)

    # -- bound and node-id bookkeeping ------------------------------------------------

    def _instance_area(self, match: PatternMatch) -> float:
        """Estimated area of one candidate instance.

        Index entries are long-lived objects enumerated once per root,
        so the area is memoized by object identity — skipping even the
        params-repr key build of :meth:`_keyed_area` on the hot
        bound-computation path.
        """
        area = self._area_by_match.get(id(match))
        if area is None:
            area = self._keyed_area(match)
            self._area_by_match[id(match)] = area
        return area

    def _keyed_area(self, match: PatternMatch) -> float:
        """Estimated area of one candidate instance (cached by key)."""
        key = (match.component, repr(sorted(match.params.items())))
        cached = self._area_cache.get(key)
        if cached is None:
            dummy = ComponentInstance(
                name="_bound",
                spec=self.library.get(match.component),
                params=dict(match.params),
            )
            cached = self.estimator.estimate_instance(dummy).area
            self._area_cache[key] = cached
        return cached

    def _min_alloc_area(self, root: Block) -> Optional[float]:
        """Least instance area any candidate of ``root`` can have.

        Memoized per root over the index's *unfiltered* entry list, so
        it lower-bounds the allocation whatever the covered set is when
        the search reaches the root; ``None`` when the root has no
        candidates at all (a dead-end the search reports as such rather
        than pruning on a vacuous bound).
        """
        memo = self._min_area_memo
        root_id = root.block_id
        if root_id not in memo:
            entries = self._index.all_entries(root)
            memo[root_id] = min(
                (self._instance_area(m) for m in entries), default=None
            )
        return memo[root_id]

    def _new_node(self) -> int:
        node = self._nodes
        self._nodes += 1
        return node

    # -- completion ----------------------------------------------------------------------------

    def _current_netlist(self) -> Netlist:
        netlist = Netlist(name=self.sfg.name, library=self.library)
        for inst in self._instances:
            netlist.instances.append(
                ComponentInstance(
                    name=inst.name,
                    spec=inst.spec,
                    params=dict(inst.params),
                    inputs=[self._resolve(n) for n in inst.inputs],
                    output=self._resolve(inst.output),  # type: ignore[arg-type]
                    control=(
                        self._resolve(inst.control)
                        if isinstance(inst.control, int)
                        else inst.control
                    ),
                    covers=list(inst.covers),
                    transform=inst.transform,
                )
            )
        for block in self.sfg.inputs:
            netlist.inputs[block.name] = block.block_id
        for block in self.sfg.outputs:
            driver = self.sfg.driver_of(block, 0)
            if driver is not None:
                netlist.outputs[block.name] = self._resolve(driver.block_id)
        for block in self.sfg.blocks_of_kind(BlockKind.CONST):
            netlist.const_nets[block.block_id] = float(block.params["value"])
        return netlist

    def _complete(self, node_id: int, opamp_nr: int) -> None:
        """A complete mapping: call the estimation tools (• in Fig. 5)."""
        uncovered = {
            b.block_id for b in self.sfg.processing_blocks()
        } - self._covered
        if uncovered:
            # A disconnected fragment escaped the frontier walk.
            if self._explog is not None:
                self._explog.emit(
                    "dead_end", node=node_id,
                    reason="uncovered fragment",
                    uncovered=sorted(uncovered),
                )
            return
        self._stats.complete_mappings += 1
        self._solutions.append(opamp_nr)
        netlist = self._current_netlist()
        estimate = self.estimator.estimate(netlist)
        violations = self.estimator.constraints.check_detailed(estimate)
        if fault_active("mapper.infeasible"):
            violations = list(violations) + [
                ConstraintViolation(
                    INJECTED_VIOLATION,
                    "fault injection: mapping forced infeasible",
                )
            ]
        if violations:
            # An infeasible complete mapping: tally *which* constraints
            # killed it, so the search outcome can name its blockers.
            names = [v.name for v in violations]
            for name in names:
                self._stats.constraint_violations[name] = (
                    self._stats.constraint_violations.get(name, 0) + 1
                )
            if self._explog is not None:
                self._explog.emit(
                    "complete", node=node_id, opamps=opamp_nr,
                    area=estimate.area, power=estimate.power,
                    feasible=False, violations=names,
                    violation_messages=[v.message for v in violations],
                )
            return
        self._stats.feasible_mappings += 1
        is_new_best = (
            self._best_estimate is None
            or estimate.area < self._best_estimate.area
        )
        if self._explog is not None:
            self._explog.emit(
                "complete", node=node_id, opamps=opamp_nr,
                area=estimate.area, power=estimate.power,
                feasible=True, new_best=is_new_best,
            )
        if is_new_best:
            self._best_estimate = estimate
            self._best_netlist = netlist
        if self.options.first_solution_only:
            self._abort = True

    def _truncate(self, reason: str, parent_node: int) -> None:
        """Stop the search at a budget, keeping the best incumbent."""
        self._stats.truncated = True
        self._stats.truncated_reason = reason
        self._abort = True
        if self._explog is not None:
            self._explog.emit(
                "truncated", node=parent_node, reason=reason,
                max_nodes=self.options.max_nodes,
                deadline_s=self.options.deadline_s,
            )

    # -- the Figure-5 recursion -----------------------------------------------------------------

    def _map(
        self,
        pending: FrozenSet[int],
        opamp_nr: int,
        parent_node: int,
    ) -> None:
        if self._abort:
            return
        if self._lifecycle is not None:
            # Raises CancelledError / DeadlineExceeded: a lifecycle
            # stop abandons the search outright, unlike the mapper's
            # own soft deadline which truncates to the incumbent.
            self._lifecycle.checkpoint("mapper.search")
        if self._stats.nodes_visited >= self.options.max_nodes:
            self._truncate("nodes", parent_node)
            return
        if (
            self._deadline is not None
            and time.perf_counter() >= self._deadline
        ):
            self._truncate("deadline", parent_node)
            return
        if not pending:
            self._complete(parent_node, opamp_nr)
            return
        # "select an input signal of sub-graph; mapping(block with output
        # signal...)": depth-first on a deterministic representative.
        cur_block = self.sfg.block(max(pending))
        candidates = self._ordered_candidates(cur_block)
        if self._explog is not None:
            self._explog.emit(
                "candidates", node=parent_node,
                root=cur_block.block_id, root_name=cur_block.name,
                sequencing=self.options.sequencing,
                order=[
                    {
                        "component": c.component,
                        "cone": sorted(c.cone),
                        "opamps": c.opamps,
                        "transform": c.transform,
                    }
                    for c in candidates
                ],
            )
        if not candidates:
            if self._explog is not None:
                self._explog.emit(
                    "dead_end", node=parent_node,
                    reason="no candidate cones",
                    root=cur_block.block_id, root_name=cur_block.name,
                )
            return

        for match in candidates:
            # ---- sharing branch (tried first per the sequencing rule).
            if self.options.enable_sharing and self.options.share_first:
                self._try_share(match, pending, opamp_nr, parent_node)
                if self._abort:
                    return
            # ---- allocation branch with the bounding rule (□).
            # Two admissible lower bounds on any completion of this
            # partial mapping: the paper's op-amp-count * MinArea, and
            # the exact area of everything allocated so far (areas only
            # accumulate).  Prune on the tighter of the two.
            self._stats.nodes_visited += 1
            instance_area = self._instance_area(match)
            minarea_bound = (opamp_nr + match.opamps) * self.min_area
            exact_bound = self._area_so_far + instance_area
            if self.options.bounding_mode == "minarea":
                lower_bound = minarea_bound
            elif self.options.bounding_mode == "exact":
                lower_bound = exact_bound
            else:  # combined
                lower_bound = max(minarea_bound, exact_bound)
            if (
                self.options.enable_bounding
                and self.options.bounding_mode != "minarea"
                and not self.options.enable_sharing
                and self._best_estimate is not None
            ):
                # Min-area memo: without sharing, every frontier root
                # still costs at least its cheapest candidate, so the
                # next root's memoized minimum tightens the exact
                # bound.  (Sharing covers a cone at zero extra area,
                # which would make this inadmissible.)
                preview = self._frontier_after(
                    pending, match, covered=self._covered | match.cone
                )
                if preview:
                    next_min = self._min_alloc_area(
                        self.sfg.block(max(preview))
                    )
                    if next_min is not None:
                        lower_bound = max(
                            lower_bound, exact_bound + next_min
                        )
            if (
                self.options.enable_bounding
                and self._best_estimate is not None
                and lower_bound >= self._best_estimate.area
            ):
                self._stats.nodes_pruned += 1
                incumbent = self._best_estimate.area
                node = self._new_node()
                if self._explog is not None:
                    self._explog.emit(
                        "prune", node=node, parent=parent_node,
                        component=match.component,
                        cone=sorted(match.cone),
                        opamps=opamp_nr + match.opamps,
                        minarea_bound=minarea_bound,
                        exact_bound=exact_bound,
                        lower_bound=lower_bound,
                        incumbent_area=incumbent,
                    )
                continue
            node = self._new_node()
            if self._explog is not None:
                self._explog.emit(
                    "alloc", node=node, parent=parent_node,
                    component=match.component, cone=sorted(match.cone),
                    opamps=opamp_nr + match.opamps,
                    transform=match.transform,
                    instance_area=instance_area,
                )
            instance = ComponentInstance(
                name=f"U{len(self._instances) + 1}",
                spec=self.library.get(match.component),
                params=dict(match.params),
                inputs=list(match.inputs),
                output=match.root_id,
                control=match.control,
                covers=sorted(match.cone),
                transform=match.transform,
            )
            self._instances.append(instance)
            self._area_stack.append(instance_area)
            self._area_so_far += instance_area
            self._cover(match.cone)
            self._map(
                self._frontier_after(pending, match),
                opamp_nr + match.opamps,
                node,
            )
            self._uncover(match.cone)
            self._instances.pop()
            self._area_so_far -= self._area_stack.pop()
            if self._abort:
                return
            if not self.options.enable_sharing or self.options.share_first:
                continue
            self._try_share(match, pending, opamp_nr, parent_node)
            if self._abort:
                return

    def _try_share(
        self,
        match: PatternMatch,
        pending: FrozenSet[int],
        opamp_nr: int,
        parent_node: int,
    ) -> None:
        """Sharing branch: reuse an existing identical component.

        Blocks in distinct signal paths can share one component when
        they have identical inputs and perform similar operations —
        i.e. same component, same parameters, same (resolved) sources.
        """
        resolved_inputs = tuple(self._resolve(n) for n in match.inputs)
        for instance in self._instances:
            if instance.spec.name != match.component:
                continue
            if repr(sorted(instance.params.items())) != repr(
                sorted(match.params.items())
            ):
                continue
            if tuple(self._resolve(n) for n in instance.inputs) != resolved_inputs:
                continue
            control_a = (
                self._resolve(instance.control)
                if isinstance(instance.control, int)
                else instance.control
            )
            control_b = (
                self._resolve(match.control)
                if isinstance(match.control, int)
                else match.control
            )
            if control_a != control_b:
                continue
            # Reuse: alias this cone's output onto the instance's output.
            self._stats.nodes_visited += 1
            self._stats.shared_branches += 1
            node = self._new_node()
            if self._explog is not None:
                self._explog.emit(
                    "share", node=node, parent=parent_node,
                    instance=instance.name,
                    component=match.component,
                    cone=sorted(match.cone), opamps=opamp_nr,
                )
            self._alias[match.root_id] = instance.output  # type: ignore[assignment]
            instance.covers.extend(sorted(match.cone))
            self._cover(match.cone)
            self._map(self._frontier_after(pending, match), opamp_nr, node)
            self._uncover(match.cone)
            del instance.covers[-len(match.cone):]
            del self._alias[match.root_id]
            if self._abort:
                return
            break  # at most one identical instance can exist

    # -- public API -----------------------------------------------------------------------

    def _publish_metrics(self) -> None:
        registry = metrics()
        if not registry.enabled:
            return
        stats = self._stats
        registry.inc("mapper.runs")
        registry.inc("mapper.nodes_visited", stats.nodes_visited)
        registry.inc("mapper.nodes_pruned", stats.nodes_pruned)
        registry.inc("mapper.shared_branches", stats.shared_branches)
        registry.inc("mapper.complete_mappings", stats.complete_mappings)
        registry.inc("mapper.feasible_mappings", stats.feasible_mappings)
        for name, count in stats.constraint_violations.items():
            registry.inc(f"mapper.violations.{name}", count)
        if stats.truncated:
            registry.inc("mapper.truncations")
        registry.inc("mapper.index.hits", self._index.hits)
        registry.inc("mapper.index.misses", self._index.misses)
        registry.observe("mapper.runtime_s", stats.runtime_s)

    def run(self) -> MappingResult:
        """Search for the minimum-area feasible mapping."""
        start = time.perf_counter()
        if self.options.deadline_s is not None:
            self._deadline = start + max(self.options.deadline_s, 0.0)
        if fault_active("mapper.deadline"):
            # Fault injection: behave as if the wall clock expired
            # before the first decision node.
            self._deadline = start
        self._lifecycle = active_context()
        if self._lifecycle is not None and fault_active("mapper.cancel"):
            # Fault injection: the run is cancelled just as the search
            # starts, driving the in-loop cancellation path.
            self._lifecycle.token.cancel("injected mapper.cancel fault")
        self._explog = active_explog()
        if self._explog is not None:
            self._explog.emit(
                "search_start", sfg=self.sfg.name,
                min_area=self.min_area,
                bounding_mode=self.options.bounding_mode,
                sequencing=self.options.sequencing,
                enable_bounding=self.options.enable_bounding,
                enable_sharing=self.options.enable_sharing,
                enable_transforms=self.options.enable_transforms,
                max_nodes=self.options.max_nodes,
            )
        with trace_phase("mapper.search", sfg=self.sfg.name) as span:
            self._map(self._initial_pending(), 0, self._new_node())
            self._stats.runtime_s = time.perf_counter() - start
            span.annotate(**self._stats.as_dict())
        if self._explog is not None:
            self._explog.emit(
                "search_end", sfg=self.sfg.name,
                best_area=(
                    self._best_estimate.area if self._best_estimate else None
                ),
                **self._stats.as_dict(),
            )
        self._publish_metrics()
        if self._best_netlist is None or self._best_estimate is None:
            if not self._stats.truncated:
                reason = "no feasible complete mapping"
            elif self._stats.truncated_reason == "deadline":
                reason = "wall-clock deadline exhausted"
            else:
                reason = "node budget exhausted"
            blockers = self._stats.violation_summary()
            if blockers:
                reason += f"; violated constraints: {blockers}"
            raise SynthesisError(
                f"architecture synthesis failed for {self.sfg.name!r}: "
                f"{reason} ({self._stats.complete_mappings} complete, "
                f"{self._stats.nodes_visited} nodes)",
                statistics=self._stats,
            )
        self._best_netlist.validate()
        diagnostics: List[Diagnostic] = []
        if self._stats.truncated:
            if self._stats.truncated_reason == "deadline":
                # deadline_s may be None when the deadline was injected.
                budget = (
                    f"the {self.options.deadline_s:g} s wall-clock deadline"
                    if self.options.deadline_s is not None
                    else "the (injected) wall-clock deadline"
                )
            else:
                budget = f"the {self.options.max_nodes}-node budget"
            diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    f"architecture search for {self.sfg.name!r} stopped at "
                    f"{budget}; the mapping "
                    f"is the best of {self._stats.feasible_mappings} "
                    "feasible solution(s) found, not proven optimal",
                )
            )
        return MappingResult(
            netlist=self._best_netlist,
            estimate=self._best_estimate,
            statistics=self._stats,
            solution_opamps=self._solutions,
            diagnostics=diagnostics,
        )


def map_sfg(
    sfg: SignalFlowGraph,
    library: Optional[ComponentLibrary] = None,
    estimator: Optional[Estimator] = None,
    options: Optional[MapperOptions] = None,
    matcher: Optional[PatternMatcher] = None,
) -> MappingResult:
    """Map one signal-flow graph (convenience wrapper)."""
    return ArchitectureMapper(
        sfg, library=library, estimator=estimator, options=options,
        matcher=matcher,
    ).run()


def map_design(
    design: VhifDesign,
    library: Optional[ComponentLibrary] = None,
    constraints: Optional[ConstraintSet] = None,
    options: Optional[MapperOptions] = None,
    matcher: Optional[PatternMatcher] = None,
) -> Dict[str, MappingResult]:
    """Map every SFG of a VHIF design; returns results by SFG name."""
    estimator = Estimator(constraints=constraints or ConstraintSet())
    results: Dict[str, MappingResult] = {}
    for sfg in design.sfgs:
        results[sfg.name] = map_sfg(
            sfg,
            library=library,
            estimator=estimator,
            options=options,
            matcher=matcher,
        )
    return results
