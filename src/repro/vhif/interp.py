"""Behavioral interpreter for VHIF designs.

Simulates the technology-independent representation directly: the
signal-flow graphs are evaluated block by block in dataflow order with a
fixed time step, integrators carry state, and the FSMs react to events
exactly as the paper's process model prescribes (resume on event,
execute the entire state chain, suspend).

Each block is compiled once, when the :class:`Interpreter` is built,
into a closure over the value slots of its inputs and its resolved
parameters; a step runs those closures in dataflow order and walks no
graph.  The FSMs' event names, the integrator and differentiator lists
and the probe targets are resolved at the same time.

The interpreter serves two purposes:

* it lets the compiler's output be *executed*, so integration tests can
  check that a compiled design computes what its VASS source specifies;
* it provides the reference behavior that the synthesized op-amp netlist
  (simulated by :mod:`repro.spice`) must track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.diagnostics import SimulationError
from repro.vass import ast_nodes as ast
from repro.vhif.design import VhifDesign
from repro.vhif.fsm import Fsm, START_STATE, State
from repro.vhif.sfg import Block, BlockKind, SignalFlowGraph

InputFunction = Callable[[float], float]

_MATH_FUNCTIONS: Dict[str, Callable[..., float]] = {
    "log": math.log,
    "ln": math.log,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "arctan": math.atan,
    "sign": lambda x: math.copysign(1.0, x) if x != 0 else 0.0,
}


def eval_discrete(expr: ast.Expression, env: Mapping[str, object]) -> object:
    """Evaluate a data-path expression against the discrete environment."""
    if isinstance(expr, ast.IntegerLiteral):
        return float(expr.value)
    if isinstance(expr, ast.RealLiteral):
        return expr.value
    if isinstance(expr, ast.CharacterLiteral):
        return expr.value
    if isinstance(expr, ast.BooleanLiteral):
        return expr.value
    if isinstance(expr, ast.StringLiteral):
        return expr.value
    if isinstance(expr, ast.Name):
        if expr.identifier not in env:
            raise SimulationError(
                f"name {expr.identifier!r} is not defined in the data-path "
                "environment"
            )
        return env[expr.identifier]
    if isinstance(expr, ast.UnaryOp):
        value = eval_discrete(expr.operand, env)
        if expr.operator == "-":
            return -float(value)  # type: ignore[arg-type]
        if expr.operator == "+":
            return float(value)  # type: ignore[arg-type]
        if expr.operator == "abs":
            return abs(float(value))  # type: ignore[arg-type]
        if expr.operator == "not":
            return not _truthy(value)
        raise SimulationError(f"unknown unary operator {expr.operator!r}")
    if isinstance(expr, ast.BinaryOp):
        op = expr.operator
        left = eval_discrete(expr.left, env)
        right = eval_discrete(expr.right, env)
        if op in ("and", "or", "xor", "nand", "nor", "xnor"):
            lb, rb = _truthy(left), _truthy(right)
            if op == "and":
                return lb and rb
            if op == "or":
                return lb or rb
            if op == "xor":
                return lb != rb
            if op == "nand":
                return not (lb and rb)
            if op == "nor":
                return not (lb or rb)
            return lb == rb
        if op == "=":
            return _values_equal(left, right)
        if op == "/=":
            return not _values_equal(left, right)
        lf, rf = float(left), float(right)  # type: ignore[arg-type]
        if op == "+":
            return lf + rf
        if op == "-":
            return lf - rf
        if op == "*":
            return lf * rf
        if op == "/":
            return lf / rf
        if op == "**":
            return lf ** rf
        if op == "mod":
            return lf % rf
        if op == "<":
            return lf < rf
        if op == "<=":
            return lf <= rf
        if op == ">":
            return lf > rf
        if op == ">=":
            return lf >= rf
        raise SimulationError(f"unknown operator {op!r}")
    if isinstance(expr, ast.FunctionCall):
        fn = _MATH_FUNCTIONS.get(expr.name)
        if fn is None:
            raise SimulationError(f"unknown function {expr.name!r}")
        args = [float(eval_discrete(a, env)) for a in expr.arguments]  # type: ignore[arg-type]
        return fn(*args)
    if isinstance(expr, ast.AttributeExpr):
        if expr.attribute == "above":
            prefix = eval_discrete(expr.prefix, env)
            threshold = float(eval_discrete(expr.arguments[0], env))  # type: ignore[arg-type]
            return float(prefix) > threshold  # type: ignore[arg-type]
        raise SimulationError(f"attribute '{expr.attribute} not supported here")
    raise SimulationError(f"cannot evaluate {type(expr).__name__}")


def _truthy(value: object) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        return value == "1"
    return bool(value)


def _values_equal(left: object, right: object) -> bool:
    if isinstance(left, str) or isinstance(right, str):
        return str(left) == str(right)
    if isinstance(left, bool) or isinstance(right, bool):
        return _truthy(left) == _truthy(right)
    return float(left) == float(right)  # type: ignore[arg-type]


@dataclass
class TraceSet:
    """Recorded simulation traces, keyed by probe name."""

    time: np.ndarray
    values: Dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.values[name]

    def final(self, name: str) -> float:
        return float(self.values[name][-1])

    def names(self) -> List[str]:
        return sorted(self.values)


#: kinds whose state cell starts at their ``initial`` parameter
_HOLDING_KINDS = (BlockKind.INTEGRATE, BlockKind.SAMPLE_HOLD, BlockKind.SWITCH)


class _Undriven:
    """The value of an unconnected input port: reading it as a number
    raises, just as evaluating that port does."""

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message

    def __float__(self) -> float:
        raise SimulationError(self.message)


class Interpreter:
    """Fixed-step behavioral simulator for a :class:`VhifDesign`."""

    def __init__(
        self,
        design: VhifDesign,
        dt: float = 1e-5,
        inputs: Optional[Mapping[str, InputFunction]] = None,
    ):
        if dt <= 0:
            raise SimulationError("dt must be positive")
        self.design = design
        self.dt = dt
        self.inputs: Dict[str, InputFunction] = dict(inputs or {})
        self.time = 0.0
        # Discrete environment: signals, process variables, constants.
        self.env: Dict[str, object] = dict(design.constants)
        # Previous values used for event (edge) detection.
        self._prev_event_values: Dict[str, object] = {}
        # FSM bookkeeping: all processes start suspended.
        self._fsm_state: Dict[str, str] = {
            fsm.name: START_STATE for fsm in design.fsms
        }
        self._compile()

    # -- compilation ----------------------------------------------------------

    def _compile(self) -> None:
        """Resolve the design into slots and closures, once.

        Every block gets one value slot, in SFG and block order, and a
        state cell at the same index (integrator, held value,
        comparator memory, differentiator's previous input).  Each
        block compiles to a closure over its inputs' slots and its
        resolved parameters; a step runs them in dataflow order.
        """
        design = self.design
        slots: Dict[Tuple[str, int], int] = {}
        #: block name -> slot of the first block so named
        self._probe_slots: Dict[str, int] = {}
        for sfg in design.sfgs:
            for block in sfg.blocks:
                slot = slots[(sfg.name, block.block_id)] = len(slots)
                self._probe_slots.setdefault(block.name, slot)
        # Values are floats, or bools from comparators; a state cell is
        # None until its block keeps state.
        self._values: List[Any] = [0.0] * len(slots)
        self._state: List[Any] = [None] * len(slots)
        self._program: List[Tuple[int, Callable[[], object]]] = []
        #: (state slot, rate slot, gain) and (state slot, input slot)
        self._integrators: List[Tuple[int, int, float]] = []
        self._differentiators: List[Tuple[int, int]] = []
        for sfg in design.sfgs:
            for block in sfg.blocks:
                slot = slots[(sfg.name, block.block_id)]
                kind = block.kind
                if kind in _HOLDING_KINDS:
                    initial: Any = block.params.get("initial", 0.0)
                    self._state[slot] = float(initial)
                elif kind is BlockKind.COMPARATOR:
                    self._state[slot] = 0.0  # hysteresis memory (0/1)
                pred = sfg.driver_of(block, 0)
                if pred is None:
                    continue
                source = slots[(sfg.name, pred.block_id)]
                if kind is BlockKind.INTEGRATE:
                    self._integrators.append((slot, source, block.gain))
                elif kind is BlockKind.DIFFERENTIATE:
                    self._differentiators.append((slot, source))
            for block in sfg.topological_order():
                self._program.append((
                    slots[(sfg.name, block.block_id)],
                    self._compile_block(sfg, block, slots),
                ))
        # Signals default to '0' (bit) — the compiler records declared
        # signals in design.constants only when they are real constants.
        for fsm in design.fsms:
            for signal in fsm.output_signals():
                self.env.setdefault(signal, "0")
        for signal in design.external_signals:
            self.env.setdefault(signal, "0")
        self._input_block_names = {
            block.name for sfg in design.sfgs for block in sfg.inputs
        }
        self._event_sources = [
            (name, slots[source])
            for name, source in design.event_sources.items()
        ]
        # Signal events: the FSM-visible names no 'above event covers.
        self._signal_events: List[str] = []
        for fsm in design.fsms:
            for name in fsm.event_names():
                if not (
                    name in design.event_sources
                    or name.endswith("'above")
                    or name in self._signal_events
                ):
                    self._signal_events.append(name)
        self._quantity_taps = [
            (name, slots[source])
            for name, source in design.quantity_taps.items()
        ]

    def _compile_block(
        self,
        sfg: SignalFlowGraph,
        block: Block,
        slots: Mapping[Tuple[str, int], int],
    ) -> Callable[[], object]:
        """The closure computing ``block``'s output for one step."""
        v = self._values
        state = self._state
        own = slots[(sfg.name, block.block_id)]
        kind = block.kind
        params: Mapping[str, Any] = block.params

        def port(index: int) -> int:
            pred = sfg.driver_of(block, index)
            if pred is not None:
                return slots[(sfg.name, pred.block_id)]
            v.append(_Undriven(
                f"{sfg.name}: input {index} of {block.describe()} undriven"
            ))
            return len(v) - 1

        def control() -> Callable[[], object]:
            driver = sfg.control_driver_of(block)
            if driver is not None:
                source = slots[(sfg.name, driver.block_id)]
                return lambda: v[source]
            signal = sfg.control_signal_of(block)
            if signal is not None:
                return lambda: self.env.get(signal, "0")
            return lambda: "1"  # uncontrolled blocks behave transparently

        if kind is BlockKind.INPUT:
            name = block.name

            def evaluate() -> object:
                fn = self.inputs.get(name)
                if fn is None:
                    return 0.0
                return float(fn(self.time))

            return evaluate
        if kind is BlockKind.CONST:
            value = float(params["value"])
            return lambda: value
        if kind in (BlockKind.OUTPUT, BlockKind.DAC, BlockKind.BUFFER):
            a = port(0)
            return lambda: float(v[a])
        if kind is BlockKind.ADD:
            ports = [port(p) for p in range(block.n_inputs)]
            return lambda: sum([float(v[p]) for p in ports])
        if kind is BlockKind.SUB:
            a, b = port(0), port(1)
            return lambda: float(v[a]) - float(v[b])
        if kind is BlockKind.MUL:
            a, b = port(0), port(1)
            return lambda: float(v[a]) * float(v[b])
        if kind is BlockKind.DIV:
            a, b = port(0), port(1)

            def evaluate() -> object:
                denominator = float(v[b])
                if abs(denominator) < 1e-12:
                    denominator = math.copysign(1e-12, denominator or 1.0)
                return float(v[a]) / denominator

            return evaluate
        if kind is BlockKind.SCALE:
            a, gain = port(0), block.gain
            return lambda: gain * float(v[a])
        if kind is BlockKind.NEG:
            a = port(0)
            return lambda: -float(v[a])
        if kind is BlockKind.INTEGRATE:
            return lambda: state[own]
        if kind is BlockKind.DIFFERENTIATE:
            a = port(0)

            def evaluate() -> object:
                current = float(v[a])
                previous = state[own]
                if previous is None:  # first step: no previous input
                    previous = current
                return (current - previous) / self.dt

            return evaluate
        if kind is BlockKind.LOG:
            a = port(0)
            return lambda: math.log(max(float(v[a]), 1e-30))
        if kind is BlockKind.EXP:
            a = port(0)
            return lambda: math.exp(min(float(v[a]), 700.0))
        if kind is BlockKind.ABS:
            a = port(0)
            return lambda: abs(float(v[a]))
        if kind is BlockKind.LIMIT:
            a = port(0)
            low = float(params.get("low", -1.0))
            high = float(params.get("high", 1.0))
            return lambda: min(max(float(v[a]), low), high)
        if kind in (BlockKind.SAMPLE_HOLD, BlockKind.SWITCH):
            a, enabled = port(0), control()

            def evaluate() -> object:
                if _truthy(enabled()):
                    state[own] = float(v[a])
                return state[own]

            return evaluate
        if kind is BlockKind.MUX:
            ports = [port(p) for p in range(block.n_inputs)]
            last, selector = block.n_inputs - 1, control()

            def evaluate() -> object:
                select = selector()
                if isinstance(select, bool) or isinstance(select, str):
                    index = 0 if _truthy(select) else 1
                else:
                    index = int(select)  # type: ignore[call-overload]
                return float(v[ports[min(max(index, 0), last)]])

            return evaluate
        if kind is BlockKind.COMPARATOR:
            a = port(0)
            threshold = float(params.get("threshold", 0.0))
            hysteresis = float(params.get("hysteresis", 0.0))
            falling, rising = threshold - hysteresis, threshold + hysteresis
            invert = bool(params.get("invert"))

            def evaluate() -> object:
                value = float(v[a])
                if state[own] > 0.5:
                    high = value > falling
                else:
                    high = value > rising
                state[own] = 1.0 if high else 0.0
                if invert:
                    return not high
                return high

            return evaluate
        if kind is BlockKind.ADC:
            a, enabled = port(0), control()
            bits = int(params.get("bits", 8))
            full_scale = float(params.get("full_scale", 5.0))
            levels = (1 << bits) - 1

            def evaluate() -> object:
                if not _truthy(enabled()):
                    return v[own]  # hold the previous conversion
                value = float(v[a])
                code = round(min(max(value / full_scale, 0.0), 1.0) * levels)
                return code * full_scale / levels

            return evaluate

        def unknown() -> object:
            raise SimulationError(
                f"cannot evaluate block kind {kind.value!r}"
            )

        return unknown

    def _integrate_states(self) -> None:
        """Advance integrator states with the current block outputs."""
        v, state, dt = self._values, self._state, self.dt
        for own, source, gain in self._integrators:
            state[own] += gain * float(v[source]) * dt
        for own, source in self._differentiators:
            state[own] = float(v[source])

    # -- event detection -----------------------------------------------------------

    def _detect_events(self) -> None:
        """Populate ``event:*`` entries of the environment for this step."""
        v, env = self._values, self.env
        current: Dict[str, object] = {}
        # 'above events from comparator blocks registered as event sources.
        for event_name, slot in self._event_sources:
            current[event_name] = v[slot]
            # The FSM data-path may test the level of the 'above expression.
            env[event_name] = v[slot]
        # Signal events: value changes of FSM-visible signals.
        for name in self._signal_events:
            if name in env:
                current[name] = env[name]
        for name, value in current.items():
            if name not in self._prev_event_values:
                # VHDL semantics: every process executes once at time
                # zero, so the first observation counts as an event.
                env[f"event:{name}"] = True
            else:
                previous = self._prev_event_values[name]
                env[f"event:{name}"] = previous != value
            self._prev_event_values[name] = value
        # Quantity taps: make continuous values visible to data-paths.
        for qname, slot in self._quantity_taps:
            env[qname] = v[slot]

    # -- FSM execution -----------------------------------------------------------------

    def _run_fsm(self, fsm: Fsm) -> None:
        """Resume the process if an event fires; run to suspension."""
        current = self._fsm_state[fsm.name]
        if current != START_STATE:
            # A previous step left the FSM mid-chain (should not happen in
            # the paper's model, but be safe): continue from there.
            pass
        steps = 0
        while True:
            steps += 1
            if steps > 1000:
                raise SimulationError(
                    f"FSM {fsm.name!r} did not suspend after 1000 transitions"
                )
            moved = False
            for transition in fsm.transitions_from(current):
                if transition.condition.evaluate(self.env):
                    current = transition.target
                    if current != START_STATE:
                        self._execute_state(fsm.state(current))
                    moved = True
                    break
            if not moved:
                # No enabled outgoing arc: the process suspends.
                current = START_STATE
                break
            if current == START_STATE:
                break
        self._fsm_state[fsm.name] = current

    def _execute_state(self, state: State) -> None:
        # Operations of a state are concurrent: read all, then write all.
        updates: List[Tuple[str, object]] = []
        for op in state.operations:
            updates.append((op.target, eval_discrete(op.expr, self.env)))
        for target, value in updates:
            self.env[target] = value

    # -- stepping -------------------------------------------------------------------------

    def step(self) -> None:
        """Advance the simulation by one time step."""
        # External *signal* ports: sample their stimulus functions into
        # the discrete environment (bit values as '0'/'1' characters).
        for name, fn in self.inputs.items():
            if name in self._input_block_names:
                continue  # analog input, handled at its INPUT block
            value = fn(self.time)
            if isinstance(value, str):
                self.env[name] = value
            elif isinstance(value, bool):
                self.env[name] = "1" if value else "0"
            else:
                self.env[name] = "1" if float(value) > 0.5 else "0"
        values = self._values
        for slot, evaluate in self._program:
            values[slot] = evaluate()
        self._detect_events()
        for fsm in self.design.fsms:
            self._run_fsm(fsm)
        self._integrate_states()
        self.time += self.dt

    def probe(self, name: str) -> object:
        """Current value of a named block output, port or signal."""
        slot = self._probe_slots.get(name)
        if slot is not None:
            return self._values[slot]
        if name in self.env:
            return self.env[name]
        raise SimulationError(f"no probe target named {name!r}")

    def run(
        self,
        t_end: float,
        probes: Sequence[str] = (),
    ) -> TraceSet:
        """Simulate until ``t_end`` and record the named probes."""
        n_steps = max(1, int(round(t_end / self.dt)))
        times = np.empty(n_steps)
        records: Dict[str, List[float]] = {name: [] for name in probes}
        for i in range(n_steps):
            self.step()
            times[i] = self.time
            for name in probes:
                value = self.probe(name)
                if isinstance(value, bool):
                    records[name].append(1.0 if value else 0.0)
                elif isinstance(value, str):
                    records[name].append(1.0 if value == "1" else 0.0)
                else:
                    records[name].append(float(value))  # type: ignore[arg-type]
        return TraceSet(
            time=times,
            values={name: np.asarray(vals) for name, vals in records.items()},
        )


def simulate(
    design: VhifDesign,
    t_end: float,
    dt: float = 1e-5,
    inputs: Optional[Mapping[str, InputFunction]] = None,
    probes: Sequence[str] = (),
) -> TraceSet:
    """One-call simulation of a VHIF design."""
    return Interpreter(design, dt=dt, inputs=inputs).run(t_end, probes=probes)
