"""Signal-flow graphs: the continuous-time half of VHIF.

VHIF (VASE Hierarchical Intermediate Format) represents continuous-time
behavior as signal-flow graphs with *exact knowledge about flows and
processing (operations) of signals* (paper Section 4).  A graph is a set
of :class:`Block` nodes connected by :class:`Net` edges; every block
kind corresponds to an operation realizable with circuits from the
component library.

Blocks have positional data inputs and an optional *control* input that
is driven by the event-driven part (FSM output signals) or by comparator
blocks.  Cycles are allowed — feedback through integrators is the normal
structure of analog computation — and the topological ordering helpers
treat integrator outputs as state (loop breakers).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.diagnostics import VaseError


class BlockKind(enum.Enum):
    """Operation performed by a signal-flow block.

    Every kind is implementable with electronic circuits from the
    component library (paper's requirement on VHIF blocks).
    """

    INPUT = "input"  # system input port
    OUTPUT = "output"  # system output port
    CONST = "const"  # constant source (reference voltage)
    ADD = "add"  # n-ary addition
    SUB = "sub"  # in0 - in1
    MUL = "mul"  # signal * signal
    DIV = "div"  # in0 / in1
    SCALE = "scale"  # signal * static gain (param ``gain``)
    NEG = "neg"  # sign inversion
    INTEGRATE = "integrate"  # time integral (params ``gain``, ``initial``)
    DIFFERENTIATE = "differentiate"  # time derivative
    LOG = "log"  # natural logarithm
    EXP = "exp"  # exponential (anti-log)
    ABS = "abs"  # absolute value (precision rectifier)
    LIMIT = "limit"  # saturation (params ``low``, ``high``)
    SAMPLE_HOLD = "sample_hold"  # track-and-hold, control selects track
    SWITCH = "switch"  # analog switch, control closes it
    MUX = "mux"  # n-way analog multiplexer, control selects
    COMPARATOR = "comparator"  # above-threshold detector (param ``threshold``,
    #                            optional ``hysteresis``); boolean output
    ADC = "adc"  # analog-to-digital converter (param ``bits``)
    DAC = "dac"  # digital-to-analog converter (param ``bits``)
    BUFFER = "buffer"  # unity-gain follower / output stage host

    def is_io(self) -> bool:
        return self in (BlockKind.INPUT, BlockKind.OUTPUT)

    def is_source(self) -> bool:
        return self in (BlockKind.INPUT, BlockKind.CONST)

    def is_stateful(self) -> bool:
        """Kinds whose output depends on history, used as loop breakers."""
        return self in (BlockKind.INTEGRATE, BlockKind.SAMPLE_HOLD)

    def has_control(self) -> bool:
        return self in (
            BlockKind.SAMPLE_HOLD,
            BlockKind.SWITCH,
            BlockKind.MUX,
            BlockKind.ADC,
        )


#: Number of data inputs per kind; ``None`` means variadic (>= 2).
_INPUT_ARITY: Dict[BlockKind, Optional[int]] = {
    BlockKind.INPUT: 0,
    BlockKind.CONST: 0,
    BlockKind.OUTPUT: 1,
    BlockKind.ADD: None,
    BlockKind.SUB: 2,
    BlockKind.MUL: 2,
    BlockKind.DIV: 2,
    BlockKind.SCALE: 1,
    BlockKind.NEG: 1,
    BlockKind.INTEGRATE: 1,
    BlockKind.DIFFERENTIATE: 1,
    BlockKind.LOG: 1,
    BlockKind.EXP: 1,
    BlockKind.ABS: 1,
    BlockKind.LIMIT: 1,
    BlockKind.SAMPLE_HOLD: 1,
    BlockKind.SWITCH: 1,
    BlockKind.MUX: None,
    BlockKind.COMPARATOR: 1,
    BlockKind.ADC: 1,
    BlockKind.DAC: 1,
    BlockKind.BUFFER: 1,
}


@dataclass
class Block:
    """One operational block of a signal-flow graph."""

    block_id: int
    kind: BlockKind
    name: str = ""
    params: Dict[str, object] = field(default_factory=dict)
    n_inputs: int = 0

    def __post_init__(self) -> None:
        arity = _INPUT_ARITY[self.kind]
        if arity is not None:
            self.n_inputs = arity
        elif self.n_inputs < 2:
            self.n_inputs = 2
        if not self.name:
            self.name = f"{self.kind.value}{self.block_id}"

    @property
    def gain(self) -> float:
        return float(self.params.get("gain", 1.0))

    def describe(self) -> str:
        extra = ""
        if self.params:
            inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            extra = f" [{inner}]"
        return f"#{self.block_id} {self.kind.value}{extra}"

    def __hash__(self) -> int:
        return hash((id(self),))


@dataclass(frozen=True)
class Endpoint:
    """A (block, input index) pair: one sink of a net."""

    block_id: int
    port: int  # data input index, or -1 for the control input

    @property
    def is_control(self) -> bool:
        return self.port == CONTROL_PORT


#: Input index used for the control input of switch/mux/S&H/ADC blocks.
CONTROL_PORT = -1


@dataclass
class Net:
    """A point-to-multipoint connection from one block output."""

    net_id: int
    driver: int  # block id whose (single) output drives this net
    sinks: List[Endpoint] = field(default_factory=list)
    name: str = ""


class SignalFlowGraph:
    """A mutable signal-flow graph with a builder-style API."""

    def __init__(self, name: str = "sfg"):
        self.name = name
        self._blocks: Dict[int, Block] = {}
        self._nets: Dict[int, Net] = {}
        self._next_block = 0
        self._next_net = 0
        # block id -> net id driven by that block's output (at most one).
        self._output_net: Dict[int, int] = {}
        # (block id, port) -> net id feeding that input.
        self._input_net: Dict[Tuple[int, int], int] = {}
        #: names of control signals (FSM outputs) -> endpoints they drive
        self.control_bindings: Dict[str, List[Endpoint]] = {}

    # -- construction -------------------------------------------------------

    def add(
        self,
        kind: BlockKind,
        name: str = "",
        n_inputs: int = 0,
        **params: object,
    ) -> Block:
        """Create a new block and return it."""
        block = Block(
            block_id=self._next_block,
            kind=kind,
            name=name,
            params=dict(params),
            n_inputs=n_inputs,
        )
        self._blocks[block.block_id] = block
        self._next_block += 1
        return block

    def connect(self, src: Block, dst: Block, port: int = 0) -> Net:
        """Connect ``src``'s output to input ``port`` of ``dst``."""
        if src.block_id not in self._blocks or dst.block_id not in self._blocks:
            raise VaseError("connect() with a block from another graph")
        if port != CONTROL_PORT and not 0 <= port < dst.n_inputs:
            raise VaseError(
                f"block {dst.describe()} has no input port {port}"
            )
        if port == CONTROL_PORT and not dst.kind.has_control():
            raise VaseError(f"block {dst.describe()} has no control input")
        if (dst.block_id, port) in self._input_net:
            raise VaseError(
                f"input {port} of {dst.describe()} is already driven"
            )
        net_id = self._output_net.get(src.block_id)
        if net_id is None:
            net = Net(net_id=self._next_net, driver=src.block_id)
            self._nets[net.net_id] = net
            self._output_net[src.block_id] = net.net_id
            self._next_net += 1
        else:
            net = self._nets[net_id]
        endpoint = Endpoint(block_id=dst.block_id, port=port)
        net.sinks.append(endpoint)
        self._input_net[(dst.block_id, port)] = net.net_id
        return net

    def bind_control(self, signal_name: str, dst: Block) -> None:
        """Attach FSM control signal ``signal_name`` to ``dst``'s control."""
        if not dst.kind.has_control():
            raise VaseError(f"block {dst.describe()} has no control input")
        endpoint = Endpoint(block_id=dst.block_id, port=CONTROL_PORT)
        self.control_bindings.setdefault(signal_name, []).append(endpoint)

    def disconnect(self, dst: Block, port: int) -> None:
        """Remove the connection feeding input ``port`` of ``dst``."""
        net_id = self._input_net.pop((dst.block_id, port), None)
        if net_id is None:
            raise VaseError(
                f"input {port} of {dst.describe()} is not connected"
            )
        net = self._nets[net_id]
        net.sinks = [
            s
            for s in net.sinks
            if not (s.block_id == dst.block_id and s.port == port)
        ]

    def rewire(self, dst: Block, port: int, new_src: Block) -> None:
        """Reconnect input ``port`` of ``dst`` to ``new_src``'s output."""
        self.disconnect(dst, port)
        self.connect(new_src, dst, port=port)

    def bypass(self, block: Block) -> None:
        """Remove a single-input block, routing its driver to its sinks.

        Control bindings and the control endpoints of sinks are left
        untouched; the block must have exactly one data input.
        """
        if block.n_inputs != 1:
            raise VaseError(f"cannot bypass {block.describe()}")
        driver = self.driver_of(block, 0)
        if driver is None:
            raise VaseError(f"{block.describe()} has no driver to bypass to")
        sinks = list(self.successors(block))
        for sink, port in sinks:
            self.disconnect(sink, port)
        self.remove_block(block)
        for sink, port in sinks:
            self.connect(driver, sink, port=port)

    def remove_block(self, block: Block) -> None:
        """Remove a block and every net touching it."""
        block_id = block.block_id
        if block_id not in self._blocks:
            raise VaseError("block not in graph")
        out_net = self._output_net.pop(block_id, None)
        if out_net is not None:
            for sink in self._nets[out_net].sinks:
                self._input_net.pop((sink.block_id, sink.port), None)
            del self._nets[out_net]
        for (bid, port), net_id in list(self._input_net.items()):
            if bid == block_id:
                net = self._nets[net_id]
                net.sinks = [
                    s for s in net.sinks if not (s.block_id == bid and s.port == port)
                ]
                del self._input_net[(bid, port)]
        for endpoints in self.control_bindings.values():
            endpoints[:] = [e for e in endpoints if e.block_id != block_id]
        del self._blocks[block_id]

    # -- queries --------------------------------------------------------------

    @property
    def blocks(self) -> List[Block]:
        return list(self._blocks.values())

    @property
    def nets(self) -> List[Net]:
        return list(self._nets.values())

    def block(self, block_id: int) -> Block:
        return self._blocks[block_id]

    def __contains__(self, block: Block) -> bool:
        return block.block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def blocks_of_kind(self, *kinds: BlockKind) -> List[Block]:
        return [b for b in self._blocks.values() if b.kind in kinds]

    @property
    def inputs(self) -> List[Block]:
        return self.blocks_of_kind(BlockKind.INPUT)

    @property
    def outputs(self) -> List[Block]:
        return self.blocks_of_kind(BlockKind.OUTPUT)

    def driver_of(self, block: Block, port: int = 0) -> Optional[Block]:
        """The block driving input ``port`` of ``block``, if connected."""
        net_id = self._input_net.get((block.block_id, port))
        if net_id is None:
            return None
        return self._blocks[self._nets[net_id].driver]

    def data_predecessors(self, block: Block) -> List[Optional[Block]]:
        """Drivers of each data input of ``block`` (None when unconnected)."""
        return [self.driver_of(block, port) for port in range(block.n_inputs)]

    def control_driver_of(self, block: Block) -> Optional[Block]:
        net_id = self._input_net.get((block.block_id, CONTROL_PORT))
        if net_id is None:
            return None
        return self._blocks[self._nets[net_id].driver]

    def control_signal_of(self, block: Block) -> Optional[str]:
        """FSM control signal bound to ``block``'s control input, if any."""
        for name, endpoints in self.control_bindings.items():
            for e in endpoints:
                if e.block_id == block.block_id:
                    return name
        return None

    def successors(self, block: Block) -> List[Tuple[Block, int]]:
        """(sink block, port) pairs fed by ``block``'s output."""
        net_id = self._output_net.get(block.block_id)
        if net_id is None:
            return []
        return [
            (self._blocks[e.block_id], e.port) for e in self._nets[net_id].sinks
        ]

    def fanout(self, block: Block) -> int:
        return len(self.successors(block))

    # -- analysis ---------------------------------------------------------------

    def topological_order(self) -> List[Block]:
        """Blocks in dataflow order, breaking cycles at stateful blocks.

        Integrators and sample-and-holds consume last-step values of
        their inputs, so edges *into* them are ignored for ordering.
        Raises :class:`VaseError` when a purely combinational cycle
        remains (a delay-free algebraic loop, which VHIF forbids).
        """
        indegree: Dict[int, int] = {bid: 0 for bid in self._blocks}
        edges: Dict[int, List[int]] = {bid: [] for bid in self._blocks}
        for (bid, port), net_id in self._input_net.items():
            if port == CONTROL_PORT:
                continue  # control paths are sampled (one-step delayed)
            block = self._blocks[bid]
            if block.kind.is_stateful():
                continue  # state boundary breaks the cycle
            src = self._nets[net_id].driver
            edges[src].append(bid)
            indegree[bid] += 1
        ready = sorted(bid for bid, deg in indegree.items() if deg == 0)
        order: List[Block] = []
        while ready:
            bid = ready.pop(0)
            order.append(self._blocks[bid])
            for succ in sorted(edges[bid]):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._blocks):
            cyclic = sorted(set(self._blocks) - {b.block_id for b in order})
            raise VaseError(
                "delay-free algebraic loop through blocks "
                + ", ".join(self._blocks[b].describe() for b in cyclic)
            )
        return order

    def has_algebraic_loop(self) -> bool:
        try:
            self.topological_order()
            return False
        except VaseError:
            return True

    def transitive_fanin(self, block: Block) -> Set[int]:
        """Ids of all blocks that can reach ``block`` through data edges."""
        seen: Set[int] = set()
        stack = [block.block_id]
        while stack:
            bid = stack.pop()
            for port in range(self._blocks[bid].n_inputs):
                net_id = self._input_net.get((bid, port))
                if net_id is None:
                    continue
                src = self._nets[net_id].driver
                if src not in seen:
                    seen.add(src)
                    stack.append(src)
        return seen

    def processing_blocks(self) -> List[Block]:
        """Blocks that perform signal processing (Table-1 block count)."""
        return [
            b
            for b in self._blocks.values()
            if b.kind not in (BlockKind.INPUT, BlockKind.OUTPUT, BlockKind.CONST)
        ]

    def iter_cones(
        self, root: Block, max_size: int = 4
    ) -> Iterator[FrozenSet[int]]:
        """Enumerate single-output sub-graphs ("cones") rooted at ``root``.

        A cone is a connected set of blocks containing ``root`` such that
        every non-root member's entire fanout stays inside the cone (so
        mapping the cone to one component never duplicates a signal that
        other logic still needs).  Source and IO blocks never join a
        cone.  Cones are produced in decreasing size order, matching the
        paper's sequencing rule.
        """
        cones: Set[FrozenSet[int]] = set()

        def grow(current: FrozenSet[int]) -> None:
            if current in cones:
                return
            cones.add(current)
            if len(current) >= max_size:
                return
            frontier: Set[int] = set()
            for bid in current:
                block = self._blocks[bid]
                for port in range(block.n_inputs):
                    pred = self.driver_of(block, port)
                    if pred is None or pred.block_id in current:
                        continue
                    if pred.kind.is_io() or pred.kind is BlockKind.CONST:
                        continue
                    # Entire fanout of pred must land inside the cone.
                    if all(
                        sink.block_id in current
                        for sink, _ in self.successors(pred)
                    ):
                        frontier.add(pred.block_id)
            for bid in frontier:
                grow(current | {bid})

        grow(frozenset({root.block_id}))
        for cone in sorted(cones, key=lambda c: (-len(c), sorted(c))):
            yield cone

    def cone_inputs(self, cone: Iterable[int]) -> List[Tuple[Block, Block, int]]:
        """External (driver, sink, port) triples feeding a cone."""
        cone_set = set(cone)
        result: List[Tuple[Block, Block, int]] = []
        for bid in sorted(cone_set):
            block = self._blocks[bid]
            for port in range(block.n_inputs):
                pred = self.driver_of(block, port)
                if pred is not None and pred.block_id not in cone_set:
                    result.append((pred, block, port))
        return result

    # -- cloning -------------------------------------------------------------------

    def copy(self) -> "SignalFlowGraph":
        """Deep structural copy preserving block ids."""
        clone = SignalFlowGraph(self.name)
        clone._next_block = self._next_block
        clone._next_net = self._next_net
        for bid, block in self._blocks.items():
            clone._blocks[bid] = Block(
                block_id=block.block_id,
                kind=block.kind,
                name=block.name,
                params=dict(block.params),
                n_inputs=block.n_inputs,
            )
        for net_id, net in self._nets.items():
            clone._nets[net_id] = Net(
                net_id=net.net_id,
                driver=net.driver,
                sinks=list(net.sinks),
                name=net.name,
            )
        clone._output_net = dict(self._output_net)
        clone._input_net = dict(self._input_net)
        clone.control_bindings = {
            k: list(v) for k, v in self.control_bindings.items()
        }
        return clone

    def describe(self) -> str:
        """Human-readable multi-line dump (for tests and the CLI)."""
        lines = [f"signal-flow graph {self.name!r}:"]
        for block in sorted(self._blocks.values(), key=lambda b: b.block_id):
            preds = []
            for port in range(block.n_inputs):
                pred = self.driver_of(block, port)
                preds.append(pred.name if pred is not None else "?")
            ctrl = self.control_signal_of(block)
            ctrl_driver = self.control_driver_of(block)
            suffix = ""
            if preds:
                suffix = " <- " + ", ".join(preds)
            if ctrl is not None:
                suffix += f" [ctrl={ctrl}]"
            elif ctrl_driver is not None:
                suffix += f" [ctrl={ctrl_driver.name}]"
            lines.append(f"  {block.describe()}{suffix}")
        return "\n".join(lines)
