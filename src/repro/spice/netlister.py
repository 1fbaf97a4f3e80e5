"""Netlist back end: SPICE deck text and MNA elaboration.

Two consumers of a synthesized :class:`~repro.synth.netlist.Netlist`:

* :func:`to_spice_deck` — a textual SPICE deck with one subcircuit call
  per component instance (an inspection/interchange artifact, like the
  deck the paper generated for the receiver);
* :func:`elaborate` — an executable :class:`~repro.spice.mna.Circuit`
  built from op-amp macromodels, R/C networks, switches and translinear
  function cores, ready for transient analysis.

Circuit-level choices (documented substitutions):

* summing stages use the *non-inverting summer* topology (weighted
  resistor network into v+, gain-setting feedback), so the elaborated
  transfer matches the signal-flow semantics without global sign
  planning;
* integrators use the Howland/Deboo form (current source charging a
  grounded capacitor, buffered), which is non-inverting;
* multiplier/divider/log/antilog instances use function sources
  standing in for their translinear cores;
* comparators are steep sigmoid sources producing 0/1 control levels;
  a Schmitt trigger's sigmoid compares against a threshold node that
  two switches, controlled by the trigger's own output, connect to one
  of two DC levels, so its state is its previous step's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.diagnostics import SynthesisError
from repro.spice import mna
from repro.spice.macromodel import OpAmpMacro, add_limiter_stage, add_opamp
from repro.synth.netlist import ComponentInstance, Netlist

#: base resistor value for gain networks
R_NOM = 20.0e3


def _net_node(net: object) -> str:
    return f"n{net}"


# ---------------------------------------------------------------------------
# SPICE deck text
# ---------------------------------------------------------------------------


def to_spice_deck(
    netlist: Netlist,
    title: Optional[str] = None,
    t_end: float = 2.0e-3,
    dt: float = 1.0e-6,
) -> str:
    """Render the netlist as a SPICE deck (subcircuit-call style)."""
    lines: List[str] = [f"* {title or netlist.name} — synthesized by VASE repro"]
    lines.append("* op amp level net-list of library components")
    for port, net in netlist.inputs.items():
        lines.append(f"VIN_{port} {_net_node(net)} 0 DC 0 AC 1")
    for net, value in netlist.const_nets.items():
        lines.append(f"VREF_{net} {_net_node(net)} 0 DC {value:g}")
    for inst in netlist.instances:
        nodes = [_net_node(n) for n in inst.inputs]
        if inst.output is not None:
            nodes.append(_net_node(inst.output))
        if inst.control is not None:
            nodes.append(
                f"ctrl_{inst.control}"
                if isinstance(inst.control, str)
                else _net_node(inst.control)
            )
        params = " ".join(
            f"{k}={v}" for k, v in sorted(inst.params.items())
            if isinstance(v, (int, float))
        )
        lines.append(
            f"X{inst.name} {' '.join(nodes)} {inst.spec.name.upper()}"
            + (f" {params}" if params else "")
        )
    for port, net in netlist.outputs.items():
        lines.append(f"* output {port} at node {_net_node(net)}")
    lines.append(f".TRAN {dt:g} {t_end:g}")
    lines.append(".END")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# MNA elaboration
# ---------------------------------------------------------------------------


@dataclass
class ElaboratedCircuit:
    """An MNA circuit plus the mapping from netlist nets to node names."""

    circuit: mna.Circuit
    nodes: Dict[object, str] = field(default_factory=dict)
    #: node carrying each output port's voltage
    output_nodes: Dict[str, str] = field(default_factory=dict)
    input_nodes: Dict[str, str] = field(default_factory=dict)

    def transient(
        self, t_end: float, dt: float, probes: Optional[Sequence[str]] = None
    ) -> mna.TransientResult:
        return mna.MnaSolver(self.circuit).transient(t_end, dt, probes=probes)


def _sigmoid(threshold: float, steepness: float = 2000.0):
    def fn(v: float) -> float:
        x = steepness * (v - threshold)
        if x > 40.0:
            return 1.0
        if x < -40.0:
            return 0.0
        return 1.0 / (1.0 + math.exp(-x))

    return fn


class Elaborator:
    """Expands component instances into MNA elements."""

    def __init__(
        self,
        netlist: Netlist,
        input_waves: Optional[Mapping[str, mna.Waveform]] = None,
        control_waves: Optional[Mapping[str, mna.Waveform]] = None,
        control_links: Optional[Mapping[str, object]] = None,
        opamp: OpAmpMacro = OpAmpMacro(),
    ):
        self.netlist = netlist
        self.input_waves = dict(input_waves or {})
        self.control_waves = dict(control_waves or {})
        #: FSM control signal -> net whose voltage realizes it (e.g. the
        #: zero-cross detector's output implementing the receiver's c1)
        self.control_links = dict(control_links or {})
        self.opamp = opamp
        self.circuit = mna.Circuit(title=netlist.name)
        self._aux = 0

    def _fresh(self, stem: str) -> str:
        self._aux += 1
        return f"{stem}_{self._aux}"

    def _control_node(self, inst: ComponentInstance) -> str:
        control = inst.control
        if control is None:
            raise SynthesisError(
                f"{inst.name} needs a control source for elaboration"
            )
        if isinstance(control, str):
            if control in self.control_links:
                return _net_node(self.control_links[control])
            node = f"ctrl_{control}"
            if control in self.control_waves and not any(
                getattr(e, "name", "") == f"VCTRL_{control}"
                for e in self.circuit.elements
            ):
                self.circuit.vsource(
                    f"VCTRL_{control}", node, "0", self.control_waves[control]
                )
            return node
        return _net_node(control)

    # -- component expansions ----------------------------------------------------

    def _expand_summing(self, inst: ComponentInstance, out: str) -> None:
        """Non-inverting weighted summer (see module docs for topology)."""
        weights = [float(w) for w in inst.params.get("weights", [1.0])]
        if len(weights) != len(inst.inputs):
            weights = [1.0] * len(inst.inputs)
        positives = [(n, w) for n, w in zip(inst.inputs, weights) if w > 0]
        negatives = [(n, -w) for n, w in zip(inst.inputs, weights) if w < 0]
        vplus = self._fresh(f"{inst.name}_vp")
        vminus = self._fresh(f"{inst.name}_vm")
        p_total = sum(w for _, w in positives)
        n_total = sum(w for _, w in negatives)
        if not positives:
            # Pure inverting summer followed by an ideal sign restore.
            inv = self._fresh(f"{inst.name}_inv")
            rf = R_NOM
            for index, (net, w) in enumerate(negatives):
                self.circuit.resistor(
                    f"{inst.name}_rn{index}", _net_node(net), vminus, rf / w
                )
            self.circuit.resistor(f"{inst.name}_rf", vminus, inv, rf)
            add_opamp(self.circuit, f"{inst.name}_oa", "0", vminus, inv,
                      self.opamp)
            self.circuit.vcvs(f"{inst.name}_sign", out, "0", inv, "0", -1.0)
            return
        # Pad the inverting side so the gain balance closes: K = 1 + N'.
        pad = max(p_total - 1.0 - n_total, 0.0)
        k_gain = 1.0 + n_total + pad
        # Positive network into v+ (conductances proportional to weights),
        # plus a grounding conductance when K exceeds the positive sum.
        for index, (net, w) in enumerate(positives):
            self.circuit.resistor(
                f"{inst.name}_rp{index}", _net_node(net), vplus, R_NOM / w
            )
        gg = (k_gain / p_total - 1.0) * p_total  # in units of 1/R_NOM
        if gg > 1e-9:
            self.circuit.resistor(f"{inst.name}_rg", vplus, "0", R_NOM / gg)
        # Inverting side: feedback plus one resistor per negative input.
        rf = R_NOM * k_gain
        self.circuit.resistor(f"{inst.name}_rfb", vminus, out, rf)
        divider_total = n_total + pad
        if divider_total > 1e-12:
            for index, (net, w) in enumerate(negatives):
                self.circuit.resistor(
                    f"{inst.name}_rn{index}", _net_node(net), vminus, rf / w
                )
            if pad > 1e-12:
                self.circuit.resistor(
                    f"{inst.name}_rpad", vminus, "0", rf / pad
                )
        else:
            # Plain non-inverting gain: ground resistor sets K.
            if k_gain > 1.0 + 1e-12:
                self.circuit.resistor(
                    f"{inst.name}_rgnd", vminus, "0", rf / (k_gain - 1.0)
                )
            else:
                # Unity gain: feedback only (follower-style).
                pass
        add_opamp(self.circuit, f"{inst.name}_oa", vplus, vminus, out,
                  self.opamp)

    def _expand_amplifier(
        self, inst: ComponentInstance, out: str, gain: float
    ) -> None:
        """Single gain stage with the sign/magnitude-appropriate topology."""
        source = _net_node(inst.inputs[0])
        if gain < 0:
            vminus = self._fresh(f"{inst.name}_vm")
            self.circuit.resistor(f"{inst.name}_r1", source, vminus, R_NOM)
            self.circuit.resistor(
                f"{inst.name}_rf", vminus, out, R_NOM * abs(gain)
            )
            add_opamp(self.circuit, f"{inst.name}_oa", "0", vminus, out,
                      self.opamp)
            return
        if gain >= 1.0:
            vminus = self._fresh(f"{inst.name}_vm")
            if gain > 1.0 + 1e-12:
                self.circuit.resistor(
                    f"{inst.name}_rg", vminus, "0", R_NOM
                )
                self.circuit.resistor(
                    f"{inst.name}_rf", vminus, out, R_NOM * (gain - 1.0)
                )
            else:
                self.circuit.resistor(f"{inst.name}_rf", vminus, out, R_NOM)
            add_opamp(self.circuit, f"{inst.name}_oa", source, vminus, out,
                      self.opamp)
            return
        # 0 < gain < 1: divider into a follower.
        divided = self._fresh(f"{inst.name}_div")
        self.circuit.resistor(
            f"{inst.name}_ra", source, divided, R_NOM * (1.0 - gain)
        )
        self.circuit.resistor(f"{inst.name}_rb", divided, "0", R_NOM * gain)
        add_opamp(self.circuit, f"{inst.name}_oa", divided, out, out,
                  self.opamp)

    def _expand_switched_gain(self, inst: ComponentInstance, out: str) -> None:
        """Switched attenuator/gain paths into one shared buffer op amp."""
        gains = [float(g) for g in inst.params.get("gains", [1.0])]
        source = _net_node(inst.inputs[0])
        control = self._control_node(inst)
        select = self._fresh(f"{inst.name}_sel")
        for index, gain in enumerate(gains[:2]):
            path = self._fresh(f"{inst.name}_g{index}")
            if abs(gain) <= 1.0:
                self.circuit.resistor(
                    f"{inst.name}_pa{index}", source, path,
                    R_NOM * max(1.0 - abs(gain), 1e-3),
                )
                self.circuit.resistor(
                    f"{inst.name}_pb{index}", path, "0",
                    R_NOM * max(abs(gain), 1e-3),
                )
            else:
                self.circuit.vcvs(
                    f"{inst.name}_pg{index}", path, "0", source, "0", abs(gain)
                )
            self.circuit.switch(
                f"{inst.name}_sw{index}", path, select, control,
                invert=(index == 1),
            )
        add_opamp(self.circuit, f"{inst.name}_oa", select, out, out, self.opamp)

    def _expand_integrator(self, inst: ComponentInstance, out: str) -> None:
        """Howland/Deboo non-inverting integrator.

        The integration constant is gm/C per input, so the absolute C is
        free; it is chosen large enough that the charging conductances
        dominate the buffer op amp's input loading (high-impedance
        buffer, gm >= 1 uS), keeping the DC settling error small.
        """
        weights = inst.params.get("weights")
        gains = (
            [float(w) for w in weights]  # type: ignore[union-attr]
            if weights is not None
            else [float(inst.params.get("gain", 1.0))]
        )
        cap_node = self._fresh(f"{inst.name}_c")
        min_gain = min(
            (abs(g) for g in gains if g != 0.0), default=1.0
        )
        c_val = max(10.0e-9, 1.0e-6 / min_gain)
        for index, (net, gain) in enumerate(zip(inst.inputs, gains)):
            gm = gain * c_val
            self.circuit.vccs(
                f"{inst.name}_gm{index}", "0", cap_node, _net_node(net), "0",
                gm,
            )
        initial = float(inst.params.get("initial", 0.0))
        self.circuit.capacitor(f"{inst.name}_cint", cap_node, "0", c_val,
                               ic=initial)
        buffer_macro = OpAmpMacro(
            dc_gain=self.opamp.dc_gain,
            vsat=self.opamp.vsat,
            rout=self.opamp.rout,
            rin=1.0e9,
            pole_hz=self.opamp.pole_hz,
        )
        add_opamp(self.circuit, f"{inst.name}_oa", cap_node, out, out,
                  buffer_macro)

    def _expand_differentiator(self, inst: ComponentInstance, out: str) -> None:
        source = _net_node(inst.inputs[0])
        vminus = self._fresh(f"{inst.name}_vm")
        inv = self._fresh(f"{inst.name}_inv")
        c_val = 10.0e-9
        self.circuit.capacitor(f"{inst.name}_cd", source, vminus, c_val)
        self.circuit.resistor(f"{inst.name}_rf", vminus, inv, 1.0 / c_val * 1e-3)
        add_opamp(self.circuit, f"{inst.name}_oa", "0", vminus, inv, self.opamp)
        self.circuit.vcvs(f"{inst.name}_sign", out, "0", inv, "0", -1.0)

    def _expand_instance(self, inst: ComponentInstance) -> None:
        if inst.output is None:
            raise SynthesisError(f"{inst.name} has no output net")
        out = _net_node(inst.output)
        kind = inst.spec.name

        if kind in ("summing_amplifier", "weighted_summing_amplifier"):
            self._expand_summing(inst, out)
        elif kind == "difference_amplifier":
            weights = [1.0, -1.0]
            clone = ComponentInstance(
                name=inst.name,
                spec=inst.spec,
                params={"weights": weights},
                inputs=list(inst.inputs),
                output=inst.output,
            )
            self._expand_summing(clone, out)
        elif kind in ("inverting_amplifier", "noninverting_amplifier"):
            self._expand_amplifier(inst, out, float(inst.params.get("gain", 1.0)))
        elif kind == "inverting_cascade":
            gain = float(inst.params.get("gain", 1.0))
            stage = math.sqrt(abs(gain))
            middle = self._fresh(f"{inst.name}_mid")
            first = ComponentInstance(
                name=f"{inst.name}a", spec=inst.spec, params={},
                inputs=list(inst.inputs), output=None,
            )
            self._expand_amplifier(first, middle, -stage)
            second = ComponentInstance(
                name=f"{inst.name}b", spec=inst.spec, params={},
                inputs=[], output=None,
            )
            # Wire the second stage by hand: its input is `middle`.
            vminus = self._fresh(f"{inst.name}_vm2")
            if gain > 0:
                # Second inverting stage: (-s)(-s) = +|gain|.
                self.circuit.resistor(f"{inst.name}_r2", middle, vminus,
                                      R_NOM)
                self.circuit.resistor(
                    f"{inst.name}_rf2", vminus, out, R_NOM * stage
                )
                add_opamp(self.circuit, f"{inst.name}_oa2", "0", vminus, out,
                          self.opamp)
            else:
                # Non-inverting second stage keeps the overall sign
                # negative: (-s)(+s) = -|gain|.
                self.circuit.resistor(f"{inst.name}_rg2", vminus, "0", R_NOM)
                self.circuit.resistor(
                    f"{inst.name}_rf2", vminus, out,
                    R_NOM * max(stage - 1.0, 1e-3),
                )
                add_opamp(self.circuit, f"{inst.name}_oa2", middle, vminus,
                          out, self.opamp)
        elif kind == "switched_gain_amplifier":
            self._expand_switched_gain(inst, out)
        elif kind in ("integrator", "summing_integrator"):
            self._expand_integrator(inst, out)
        elif kind == "differentiator":
            self._expand_differentiator(inst, out)
        elif kind == "multiplier":
            a, b = (_net_node(n) for n in inst.inputs[:2])
            self.circuit.function_source(
                f"{inst.name}_core", out, [a, b], lambda x, y: x * y
            )
        elif kind == "divider":
            a, b = (_net_node(n) for n in inst.inputs[:2])
            self.circuit.function_source(
                f"{inst.name}_core",
                out,
                [a, b],
                lambda x, y: x / (y if abs(y) > 1e-3 else math.copysign(1e-3, y or 1.0)),
            )
        elif kind == "log_amplifier":
            a = _net_node(inst.inputs[0])
            self.circuit.function_source(
                f"{inst.name}_core", out, [a],
                lambda x: math.log(max(x, 1e-9)),
            )
        elif kind == "antilog_amplifier":
            a = _net_node(inst.inputs[0])
            self.circuit.function_source(
                f"{inst.name}_core", out, [a],
                lambda x: math.exp(min(x, 50.0)),
            )
        elif kind == "rectifier":
            a = _net_node(inst.inputs[0])
            self.circuit.function_source(
                f"{inst.name}_core", out, [a], abs
            )
        elif kind in ("limiter", "output_stage"):
            level = float(inst.params.get("high", 1.0))
            add_limiter_stage(
                self.circuit, inst.name, _net_node(inst.inputs[0]), out,
                level=level,
            )
            load = inst.params.get("load_ohms")
            if load:
                self.circuit.resistor(
                    f"{inst.name}_rload", out, "0", float(load)
                )
        elif kind == "voltage_follower":
            add_opamp(
                self.circuit, f"{inst.name}_oa", _net_node(inst.inputs[0]),
                out, out, self.opamp,
            )
        elif kind in ("zero_cross_detector", "schmitt_trigger"):
            threshold = float(inst.params.get("threshold", 0.0))
            hysteresis = float(inst.params.get("hysteresis", 0.0))
            invert = bool(inst.params.get("invert", False))
            a = _net_node(inst.inputs[0])
            if hysteresis > 0.0:
                # The trigger's state is its output at the previous
                # step: two switches it controls put ``threshold -
                # hysteresis`` on ``thr`` while it is high and
                # ``threshold + hysteresis`` while it is low (the other
                # way round when inverted).
                thr = self._fresh(f"{inst.name}_thr")
                for suffix, level, switch_invert in (
                    ("lo", threshold - hysteresis, invert),
                    ("hi", threshold + hysteresis, not invert),
                ):
                    node = self._fresh(f"{inst.name}_{suffix}")
                    self.circuit.vsource(
                        f"{inst.name}_v{suffix}", node, "0", level
                    )
                    self.circuit.switch(
                        f"{inst.name}_sw{suffix}", node, thr, out,
                        invert=switch_invert,
                    )
                base = _sigmoid(0.0)
                fn = (
                    (lambda x, v, _b=base: 1.0 - _b(x - v)) if invert
                    else (lambda x, v, _b=base: _b(x - v))
                )
                self.circuit.function_source(
                    f"{inst.name}_core", out, [a, thr], fn
                )
            else:
                base = _sigmoid(threshold)
                fn = (lambda x, _b=base: 1.0 - _b(x)) if invert else base
                self.circuit.function_source(
                    f"{inst.name}_core", out, [a], fn
                )
        elif kind == "sample_hold":
            a = _net_node(inst.inputs[0])
            control = self._control_node(inst)
            hold = self._fresh(f"{inst.name}_hold")
            self.circuit.switch(f"{inst.name}_sw", a, hold, control)
            self.circuit.capacitor(f"{inst.name}_ch", hold, "0", 1.0e-9)
            add_opamp(self.circuit, f"{inst.name}_oa", hold, out, out,
                      self.opamp)
        elif kind == "analog_switch":
            a = _net_node(inst.inputs[0])
            control = self._control_node(inst)
            self.circuit.switch(f"{inst.name}_sw", a, out, control)
            self.circuit.resistor(f"{inst.name}_bleed", out, "0", 10.0e6)
        elif kind == "analog_mux":
            control = self._control_node(inst)
            for index, net in enumerate(inst.inputs[:2]):
                self.circuit.switch(
                    f"{inst.name}_sw{index}", _net_node(net), out, control,
                    invert=(index == 1),
                )
            self.circuit.resistor(f"{inst.name}_bleed", out, "0", 10.0e6)
        elif kind == "adc":
            # Digital codes are outside the analog substrate: the ADC's
            # analog front end (sampler + buffer) is elaborated; the
            # quantizer itself lives in the behavioral domain.
            a = _net_node(inst.inputs[0])
            control = self._control_node(inst)
            hold = self._fresh(f"{inst.name}_hold")
            self.circuit.switch(f"{inst.name}_sw", a, hold, control)
            self.circuit.capacitor(f"{inst.name}_ch", hold, "0", 1.0e-9)
            add_opamp(self.circuit, f"{inst.name}_oa", hold, out, out,
                      self.opamp)
        else:
            raise SynthesisError(
                f"no elaboration rule for component {kind!r}"
            )

    # -- top level ---------------------------------------------------------------

    def build(self) -> ElaboratedCircuit:
        result = ElaboratedCircuit(circuit=self.circuit)
        for port, net in self.netlist.inputs.items():
            node = _net_node(net)
            wave = self.input_waves.get(port, mna.dc(0.0))
            self.circuit.vsource(f"VIN_{port}", node, "0", wave)
            result.input_nodes[port] = node
        for net, value in self.netlist.const_nets.items():
            self.circuit.vsource(f"VREF_{net}", _net_node(net), "0", value)
        for inst in self.netlist.instances:
            self._expand_instance(inst)
        for port, net in self.netlist.outputs.items():
            result.output_nodes[port] = _net_node(net)
        for net in list(self.netlist.inputs.values()) + [
            i.output for i in self.netlist.instances
        ]:
            result.nodes[net] = _net_node(net)
        return result


def elaborate(
    netlist: Netlist,
    input_waves: Optional[Mapping[str, mna.Waveform]] = None,
    control_waves: Optional[Mapping[str, mna.Waveform]] = None,
    control_links: Optional[Mapping[str, object]] = None,
    opamp: OpAmpMacro = OpAmpMacro(),
) -> ElaboratedCircuit:
    """Elaborate a synthesized netlist into an executable MNA circuit."""
    return Elaborator(
        netlist,
        input_waves=input_waves,
        control_waves=control_waves,
        control_links=control_links,
        opamp=opamp,
    ).build()


def infer_control_links(design, netlist: Netlist) -> Dict[str, object]:
    """Derive FSM-signal -> net links from simple comparator FSMs.

    When an FSM output signal follows the pattern "assign '1' when a
    single 'above event is true, '0' otherwise" (the receiver's
    compensation control), its hardware realization *is* the zero-cross
    detector watching that quantity — the paper's observation that the
    "sophisticated" control part reduces to a simple zero-cross
    detector.  For such signals the detector's output net realizes the
    control directly.
    """
    from repro.vhif.fsm import AboveEvent, DataOp
    from repro.vass import ast_nodes as ast

    links: Dict[str, object] = {}
    cover_to_net: Dict[int, object] = {}
    for inst in netlist.instances:
        for block_id in inst.covers:
            cover_to_net[block_id] = inst.output

    for fsm in design.fsms:
        events = [
            cond
            for transition in fsm.transitions
            for cond in _above_events(transition.condition)
        ]
        if not events:
            continue
        event = events[0]
        source = design.event_sources.get(event.key)
        if source is None:
            continue
        _sfg_name, comparator_block = source
        net = cover_to_net.get(comparator_block)
        if net is None:
            continue
        for signal in fsm.output_signals():
            if _is_one_zero_signal(fsm, signal):
                links[signal] = net
    return links


def _above_events(condition) -> List[object]:
    from repro.vhif.fsm import AboveEvent, AllOf, AnyOf, Not

    if isinstance(condition, AboveEvent):
        return [condition]
    if isinstance(condition, (AllOf, AnyOf)):
        out: List[object] = []
        for operand in condition.operands:
            out.extend(_above_events(operand))
        return out
    if isinstance(condition, Not):
        return _above_events(condition.operand)
    return []


def _is_one_zero_signal(fsm, signal: str) -> bool:
    """True when every assignment to ``signal`` is a '0'/'1' literal."""
    from repro.vass import ast_nodes as ast

    found = False
    for state in fsm.states:
        for op in state.operations:
            if op.target != signal:
                continue
            if not isinstance(op.expr, ast.CharacterLiteral):
                return False
            found = True
    return found
