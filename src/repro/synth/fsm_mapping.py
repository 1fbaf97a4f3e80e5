"""Mapping simple FSMs onto analog circuits (paper Section 5).

"For analog systems, the FSM has very often a simple structure, that can
be entirely mapped to analog circuits, i.e. Schmitt triggers, zero-cross
detectors, sample-and-hold circuits, etc."

Two FSM idioms are recognized and realized directly in the signal-flow
graph, so the mapper sees ordinary comparator blocks instead of abstract
control signals:

* **zero-cross control** — a signal assigned ``'1'`` when one
  ``q'above(th)`` event holds and ``'0'`` otherwise (the receiver's
  ``c1``) is realized by the comparator already watching the event; the
  signal's control bindings are rewired to the comparator's output net
  (the paper adds "a small hysteresis margin, so that repeated
  switchings between states are avoided");
* **Schmitt control** — a signal set by *two* thresholds on the *same*
  quantity (set below the low threshold, reset above the high one — the
  function generator's ramp direction) collapses the two comparators
  into one hysteretic comparator, which the pattern library maps onto a
  Schmitt trigger.

FSMs that match neither idiom are left as-is: the paper notes that more
complex structures are delegated to standard digital synthesis [8],
which is outside the analog mapping path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.vass import ast_nodes as ast
from repro.vhif.design import VhifDesign
from repro.vhif.fsm import (
    AboveEvent,
    AllOf,
    AnyOf,
    Condition,
    ExprCondition,
    Fsm,
    Not,
)
from repro.vhif.sfg import Block, BlockKind, CONTROL_PORT, SignalFlowGraph


@dataclass(frozen=True)
class RealizedControl:
    """Record of one FSM control signal realized by analog hardware."""

    signal: str
    fsm: str
    kind: str  # "zero_cross" / "schmitt"
    block_id: int


#: standard-cell cost model for the digital fallback (2 µm flavor)
_FLIPFLOP_AREA = 1.5e-9  # m^2 per state/output flip-flop
_DATAPATH_ELEMENT_AREA = 3.0e-9  # m^2 per data-path operator


@dataclass
class FsmRealizationSummary:
    """How one FSM ends up implemented after synthesis.

    Simple FSMs realize as analog circuits (zero-cross detectors,
    Schmitt triggers); the rest fall back to digital synthesis [8] —
    outside this flow, but costed with a standard-cell estimate so the
    area roll-up stays complete.
    """

    fsm: str
    mode: str  # "analog" / "digital" / "mixed"
    realized_signals: List[str]
    digital_signals: List[str]
    flipflops: int
    datapath_elements: int
    estimated_area: float  # m^2, zero for fully analog realizations

    def describe(self) -> str:
        if self.mode == "analog":
            return (
                f"FSM {self.fsm!r}: fully analog "
                f"({', '.join(self.realized_signals)})"
            )
        return (
            f"FSM {self.fsm!r}: {self.mode} — {self.flipflops} flip-flops, "
            f"{self.datapath_elements} data-path elements, "
            f"~{self.estimated_area*1e12:,.0f} um^2 of standard cells "
            f"for signals {', '.join(self.digital_signals) or '(none)'}"
        )


def summarize_fsm_realizations(
    design: VhifDesign, realized: List[RealizedControl]
) -> List[FsmRealizationSummary]:
    """Classify every FSM: analog realization vs digital fallback.

    ``realized`` is the output of :func:`realize_event_controls`.
    Signals whose values are read *only* as sampled data (they never
    configure SFG blocks) count as digital outputs and fall to the
    standard-cell estimate, as do any control signals the analog
    patterns could not absorb.
    """
    import math as _math

    realized_by_fsm: Dict[str, List[str]] = {}
    for record in realized:
        realized_by_fsm.setdefault(record.fsm, []).append(record.signal)

    summaries: List[FsmRealizationSummary] = []
    for fsm in design.fsms:
        analog = sorted(set(realized_by_fsm.get(fsm.name, [])))
        all_signals = sorted(fsm.output_signals())
        digital = [s for s in all_signals if s not in analog]
        if not digital:
            summaries.append(
                FsmRealizationSummary(
                    fsm=fsm.name,
                    mode="analog",
                    realized_signals=analog,
                    digital_signals=[],
                    flipflops=0,
                    datapath_elements=0,
                    estimated_area=0.0,
                )
            )
            continue
        n_states = max(fsm.n_states(), 1)
        state_bits = max(1, _math.ceil(_math.log2(n_states + 1)))
        flipflops = state_bits + len(digital)
        datapath = fsm.datapath_elements()
        area = (
            flipflops * _FLIPFLOP_AREA
            + datapath * _DATAPATH_ELEMENT_AREA
        )
        summaries.append(
            FsmRealizationSummary(
                fsm=fsm.name,
                mode="mixed" if analog else "digital",
                realized_signals=analog,
                digital_signals=digital,
                flipflops=flipflops,
                datapath_elements=datapath,
                estimated_area=area,
            )
        )
    return summaries


def _above_tests(
    condition: Condition, negated: bool = False
) -> List[Tuple[str, float, bool]]:
    """(quantity, threshold, polarity) tests found in an arc condition.

    Polarity is True when the arc requires ``q'above(th)`` to be *true*.
    Handles both AboveEvent terms and ExprCondition wrappers around
    ``q'above(th) = TRUE/FALSE`` comparisons.
    """
    out: List[Tuple[str, float, bool]] = []
    if isinstance(condition, AboveEvent):
        # An event term alone carries no level information.
        return out
    if isinstance(condition, Not):
        return _above_tests(condition.operand, not negated)
    if isinstance(condition, (AllOf, AnyOf)):
        for operand in condition.operands:
            out.extend(_above_tests(operand, negated))
        return out
    if isinstance(condition, ExprCondition):
        out.extend(_expr_above_tests(condition.expr, negated))
    return out


def _expr_above_tests(expr, negated: bool) -> List[Tuple[str, float, bool]]:
    if isinstance(expr, ast.AttributeExpr) and expr.attribute == "above":
        if isinstance(expr.prefix, ast.Name) and expr.arguments:
            threshold = _literal(expr.arguments[0])
            if threshold is not None:
                return [(expr.prefix.identifier, threshold, not negated)]
        return []
    if isinstance(expr, ast.BinaryOp) and expr.operator == "=":
        left, right = expr.left, expr.right
        if isinstance(right, ast.BooleanLiteral):
            inner = _expr_above_tests(left, negated)
            if not right.value:
                inner = [(q, t, not p) for q, t, p in inner]
            return inner
        if isinstance(left, ast.BooleanLiteral):
            inner = _expr_above_tests(right, negated)
            if not left.value:
                inner = [(q, t, not p) for q, t, p in inner]
            return inner
    if isinstance(expr, ast.UnaryOp) and expr.operator == "not":
        return _expr_above_tests(expr.operand, not negated)
    return []


def _literal(expr) -> Optional[float]:
    if isinstance(expr, ast.RealLiteral):
        return expr.value
    if isinstance(expr, ast.IntegerLiteral):
        return float(expr.value)
    return None


def _signal_decisions(
    fsm: Fsm,
) -> Dict[str, List[Tuple[List[Tuple[str, float, bool]], str]]]:
    """For each '0'/'1'-valued signal: (above-tests on its arc, literal)."""
    decisions: Dict[str, List[Tuple[List[Tuple[str, float, bool]], str]]] = {}
    for transition in fsm.transitions:
        state = (
            fsm.state(transition.target)
            if transition.target in fsm
            else None
        )
        if state is None:
            continue
        tests = _above_tests(transition.condition)
        for op in state.operations:
            if not op.is_signal:
                continue
            if not isinstance(op.expr, ast.CharacterLiteral):
                decisions.setdefault(op.target, []).append(([], "?"))
                continue
            decisions.setdefault(op.target, []).append((tests, op.expr.value))
    return decisions


def realize_event_controls(design: VhifDesign) -> List[RealizedControl]:
    """Realize matching FSM control signals as comparator hardware.

    Modifies the design's main SFG in place: control bindings of
    realized signals become direct comparator-output connections, and
    Schmitt pairs collapse two threshold comparators into one hysteretic
    comparator.  Returns the realizations performed.
    """
    realized: List[RealizedControl] = []
    for sfg in design.sfgs:
        for fsm in design.fsms:
            realized.extend(_realize_fsm(design, sfg, fsm))
    return realized


def _realize_fsm(
    design: VhifDesign, sfg: SignalFlowGraph, fsm: Fsm
) -> List[RealizedControl]:
    realized: List[RealizedControl] = []
    decisions = _signal_decisions(fsm)
    for signal, entries in decisions.items():
        # Signals that configure SFG blocks get rewired to the
        # comparator net; bare output signals (e.g. the power meter's
        # polarity bits) are realized by the comparator itself — its
        # output *is* the signal, so there is nothing to rewire.
        if any(literal == "?" for _, literal in entries):
            continue
        # Collect the distinct (quantity, threshold) tests deciding this
        # signal; all entries must test the same quantity.
        tests: List[Tuple[str, float, bool, str]] = []
        for arc_tests, literal in entries:
            for quantity, threshold, polarity in arc_tests:
                tests.append((quantity, threshold, polarity, literal))
        if not tests:
            continue
        quantities = {t[0] for t in tests}
        if len(quantities) != 1:
            continue
        quantity = quantities.pop()
        thresholds = sorted({t[1] for t in tests})
        if len(thresholds) == 1:
            block = _realize_zero_cross(
                design, sfg, signal, quantity, thresholds[0], tests
            )
            if block is not None:
                realized.append(
                    RealizedControl(
                        signal=signal,
                        fsm=fsm.name,
                        kind="zero_cross",
                        block_id=block.block_id,
                    )
                )
        elif len(thresholds) == 2:
            block = _realize_schmitt(
                design, sfg, signal, quantity, thresholds, tests
            )
            if block is not None:
                realized.append(
                    RealizedControl(
                        signal=signal,
                        fsm=fsm.name,
                        kind="schmitt",
                        block_id=block.block_id,
                    )
                )
    return realized


def _comparator_for(
    design: VhifDesign, sfg: SignalFlowGraph, quantity: str, threshold: float
) -> Optional[Block]:
    key = f"{quantity}'above({threshold:g})"
    source = design.event_sources.get(key)
    if source is None or source[0] != sfg.name:
        return None
    return sfg.block(source[1])


def _rewire_control(sfg: SignalFlowGraph, signal: str, block: Block) -> None:
    endpoints = sfg.control_bindings.pop(signal, [])
    for endpoint in endpoints:
        sfg.connect(block, sfg.block(endpoint.block_id), port=CONTROL_PORT)


def _realize_zero_cross(
    design: VhifDesign,
    sfg: SignalFlowGraph,
    signal: str,
    quantity: str,
    threshold: float,
    tests,
) -> Optional[Block]:
    comparator = _comparator_for(design, sfg, quantity, threshold)
    if comparator is None:
        return None
    # Polarity: does '1' coincide with 'above = true'?
    one_when_above = any(
        polarity and literal == "1" for _q, _t, polarity, literal in tests
    )
    if not one_when_above:
        comparator.params["invert"] = True
    # The paper adds a small hysteresis margin so repeated switchings
    # between states are avoided (Section 6).
    comparator.params.setdefault("hysteresis", 0.0)
    _rewire_control(sfg, signal, comparator)
    return comparator


def _realize_schmitt(
    design: VhifDesign,
    sfg: SignalFlowGraph,
    signal: str,
    quantity: str,
    thresholds: List[float],
    tests,
) -> Optional[Block]:
    low, high = thresholds
    cmp_low = _comparator_for(design, sfg, quantity, low)
    cmp_high = _comparator_for(design, sfg, quantity, high)
    if cmp_low is None or cmp_high is None:
        return None
    driver = sfg.driver_of(cmp_low, 0)
    if driver is None or sfg.driver_of(cmp_high, 0) is not driver:
        return None
    # '1' below the low threshold / '0' above the high one means the
    # realized comparator is inverted (output high while input is low).
    one_when_high = any(
        literal == "1" and polarity and threshold == high
        for _q, threshold, polarity, literal in tests
    )
    schmitt = sfg.add(
        BlockKind.COMPARATOR,
        name=f"schmitt_{signal}",
        threshold=(low + high) / 2.0,
        hysteresis=(high - low) / 2.0,
        invert=not one_when_high,
    )
    sfg.connect(driver, schmitt, port=0)
    _rewire_control(sfg, signal, schmitt)
    # The original event comparators stay as FSM event sources only if
    # other logic still consumes them; otherwise drop them.
    for comparator, threshold in ((cmp_low, low), (cmp_high, high)):
        key = f"{quantity}'above({threshold:g})"
        if sfg.fanout(comparator) == 0:
            design.event_sources.pop(key, None)
            design.event_sources[key] = (sfg.name, schmitt.block_id)
            sfg.remove_block(comparator)
    return schmitt
