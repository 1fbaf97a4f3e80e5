"""VhifDesign: the complete VHIF representation of a system.

A design bundles the signal-flow graphs of the continuous-time part,
the FSMs of the event-driven part, and the control links between them
(FSM output *signals* configure switch/mux/S&H blocks in the SFGs).
It also computes the structural statistics reported in Table 1 of the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.diagnostics import VaseError
from repro.vhif.fsm import Fsm
from repro.vhif.sfg import Block, BlockKind, SignalFlowGraph


@dataclass
class VhifStatistics:
    """The VHIF columns of Table 1."""

    n_blocks: int
    n_states: int
    n_datapath: int

    def as_row(self) -> Tuple[int, int, int]:
        return (self.n_blocks, self.n_states, self.n_datapath)


@dataclass
class PortInfo:
    """Connection metadata of a system port carried through to synthesis."""

    name: str
    direction: str  # "in" / "out"
    kind: str = "voltage"  # voltage / current
    limit_level: Optional[float] = None
    drive_load_ohms: Optional[float] = None
    drive_amplitude: Optional[float] = None
    value_range: Optional[Tuple[float, float]] = None
    frequency_range: Optional[Tuple[float, float]] = None
    impedance_ohms: Optional[float] = None


class VhifDesign:
    """Signal-flow graphs + FSMs + the control links between them."""

    def __init__(self, name: str):
        self.name = name
        self.sfgs: List[SignalFlowGraph] = []
        self.fsms: List[Fsm] = []
        self.ports: Dict[str, PortInfo] = {}
        #: quantities computed by the continuous part that the FSMs watch
        #: through 'above events: event name -> (sfg name, comparator block id)
        self.event_sources: Dict[str, Tuple[str, int]] = {}
        #: quantity name -> (sfg name, block id) whose output carries it;
        #: lets the event-driven part and the interpreter observe
        #: continuous-time values by name.
        self.quantity_taps: Dict[str, Tuple[str, int]] = {}
        #: constants visible to FSM data-path expressions.
        self.constants: Dict[str, float] = {}
        #: names of *signal* input ports (external event/control sources,
        #: e.g. a sampling strobe); legal control-binding producers.
        self.external_signals: Set[str] = set()

    # -- construction -------------------------------------------------------

    def add_sfg(self, sfg: SignalFlowGraph) -> SignalFlowGraph:
        if any(existing.name == sfg.name for existing in self.sfgs):
            raise VaseError(f"duplicate SFG name {sfg.name!r}")
        self.sfgs.append(sfg)
        return sfg

    def add_fsm(self, fsm: Fsm) -> Fsm:
        if any(existing.name == fsm.name for existing in self.fsms):
            raise VaseError(f"duplicate FSM name {fsm.name!r}")
        self.fsms.append(fsm)
        return fsm

    def add_port(self, info: PortInfo) -> None:
        self.ports[info.name] = info

    def copy(self) -> "VhifDesign":
        """A structural copy for a pass that rewrites the design.

        Every SFG is copied (:meth:`SignalFlowGraph.copy`) and
        ``event_sources`` is a new dict: those are all that FSM
        realization, VHIF optimization and mismatch perturbation
        write.  FSMs, ports, quantity taps, constants and external
        signals are shared with the original, read-only.
        """
        clone = VhifDesign(self.name)
        clone.sfgs = [sfg.copy() for sfg in self.sfgs]
        clone.fsms = self.fsms
        clone.ports = self.ports
        clone.event_sources = dict(self.event_sources)
        clone.quantity_taps = self.quantity_taps
        clone.constants = self.constants
        clone.external_signals = self.external_signals
        return clone

    # -- queries -------------------------------------------------------------

    def sfg(self, name: str) -> SignalFlowGraph:
        for sfg in self.sfgs:
            if sfg.name == name:
                return sfg
        raise VaseError(f"no SFG named {name!r}")

    @property
    def main_sfg(self) -> SignalFlowGraph:
        if not self.sfgs:
            raise VaseError("design has no signal-flow graph")
        return self.sfgs[0]

    @property
    def fsm(self) -> Optional[Fsm]:
        return self.fsms[0] if self.fsms else None

    def control_signals(self) -> Set[str]:
        """Names of FSM output signals that configure SFG blocks."""
        names: Set[str] = set()
        for fsm in self.fsms:
            names |= fsm.output_signals()
        return names

    def controlled_blocks(self) -> List[Tuple[SignalFlowGraph, Block, str]]:
        """All (sfg, block, control signal) triples in the design."""
        result: List[Tuple[SignalFlowGraph, Block, str]] = []
        for sfg in self.sfgs:
            for signal, endpoints in sfg.control_bindings.items():
                for endpoint in endpoints:
                    result.append((sfg, sfg.block(endpoint.block_id), signal))
        return result

    # -- statistics (Table 1) ---------------------------------------------------

    def statistics(self) -> VhifStatistics:
        n_blocks = sum(len(sfg.processing_blocks()) for sfg in self.sfgs)
        n_states = sum(fsm.n_states() for fsm in self.fsms)
        n_datapath = sum(fsm.datapath_elements() for fsm in self.fsms)
        return VhifStatistics(
            n_blocks=n_blocks, n_states=n_states, n_datapath=n_datapath
        )

    # -- validation ----------------------------------------------------------------

    def validate(self) -> None:
        """Structural checks across the whole representation."""
        from repro.vhif.validate import validate_design

        validate_design(self)

    def describe(self) -> str:
        lines = [f"VHIF design {self.name!r}"]
        stats = self.statistics()
        lines.append(
            f"  blocks={stats.n_blocks} states={stats.n_states} "
            f"datapath={stats.n_datapath}"
        )
        for sfg in self.sfgs:
            lines.append("  " + sfg.describe().replace("\n", "\n  "))
        for fsm in self.fsms:
            lines.append("  " + fsm.describe().replace("\n", "\n  "))
        return "\n".join(lines)
