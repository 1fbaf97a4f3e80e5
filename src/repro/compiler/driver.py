"""The VASS-to-VHIF compiler driver.

Orchestrates the translation of an analyzed design into a
:class:`~repro.vhif.design.VhifDesign`:

1. input ports become INPUT blocks;
2. concurrent constructs are ordered by data dependence (a construct
   reading a quantity compiles after the construct defining it) and
   compiled: procedurals as dataflow, conditional simultaneous
   statements as MUX networks, the simple simultaneous set as one DAE
   "solver", processes as FSMs;
3. output ports grow their inferred interface blocks — the paper's
   *block 4*: a limiter and/or driving output stage derived from the
   port annotations, not from VHDL-AMS code;
4. the result is validated structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.diagnostics import CompileError
from repro.vass import ast_nodes as ast
from repro.vass.parser import parse_source
from repro.vass.semantics import AnalyzedDesign, SemanticError, analyze, eval_static
from repro.compiler.conditional import (
    compile_simultaneous_case,
    compile_simultaneous_if,
    conditional_unknowns,
)
from repro.compiler.dae import Causalization, DaeCompiler
from repro.compiler.expressions import ExprCompiler
from repro.compiler.procedural import compile_procedural
from repro.compiler.process import compile_process
from repro.vhif.design import PortInfo, VhifDesign
from repro.vhif.sfg import Block, BlockKind, SignalFlowGraph


@dataclass
class CompilerOptions:
    """Knobs of the VASS compiler."""

    #: which DAE causalization ("solver") to emit; index into the
    #: enumeration order of :meth:`DaeCompiler.enumerate_causalizations`.
    solver_index: int = 0
    #: cap on enumerated causalizations.
    max_solvers: int = 16


def _port_info(symbol) -> PortInfo:
    """Collect a port's annotation set into a :class:`PortInfo`."""
    info = PortInfo(
        name=symbol.name,
        direction="in" if symbol.mode is ast.PortMode.IN else "out",
    )
    for annotation in symbol.annotations:
        if isinstance(annotation, ast.KindAnnotation):
            info.kind = annotation.kind.value
        elif isinstance(annotation, ast.LimitAnnotation):
            info.limit_level = annotation.level
        elif isinstance(annotation, ast.DriveAnnotation):
            info.drive_load_ohms = annotation.load_ohms
            info.drive_amplitude = annotation.amplitude
        elif isinstance(annotation, ast.RangeAnnotation):
            info.value_range = (annotation.low, annotation.high)
        elif isinstance(annotation, ast.FrequencyAnnotation):
            info.frequency_range = (annotation.low, annotation.high)
        elif isinstance(annotation, ast.ImpedanceAnnotation):
            info.impedance_ohms = annotation.ohms
    return info


class DesignCompiler:
    """Compiles one analyzed design into VHIF."""

    def __init__(self, design: AnalyzedDesign, options: CompilerOptions):
        self.design = design
        self.options = options
        self.vhif = VhifDesign(design.name)
        self.sfg = SignalFlowGraph(name="main")
        self.vhif.add_sfg(self.sfg)
        self.compiler = ExprCompiler(self.sfg, design.scope)
        self.bindings: Dict[str, Block] = {}

    # -- construct classification ----------------------------------------------

    def _classify(self):
        simples: List[ast.SimpleSimultaneous] = []
        conditionals: List[Union[ast.SimultaneousIf, ast.SimultaneousCase]] = []
        procedurals: List[ast.ProceduralStmt] = []
        processes: List[ast.ProcessStmt] = []
        for stmt in self.design.architecture.statements:
            if isinstance(stmt, ast.SimpleSimultaneous):
                simples.append(stmt)
            elif isinstance(stmt, (ast.SimultaneousIf, ast.SimultaneousCase)):
                conditionals.append(stmt)
            elif isinstance(stmt, ast.ProceduralStmt):
                procedurals.append(stmt)
            elif isinstance(stmt, ast.ProcessStmt):
                processes.append(stmt)
            else:
                raise CompileError(
                    f"unsupported concurrent statement "
                    f"{type(stmt).__name__}",
                    stmt.location,
                )
        return simples, conditionals, procedurals, processes

    def _analog_names(self) -> Set[str]:
        """Quantities (including ports) visible to the continuous part."""
        return {
            s.name
            for s in self.design.scope.symbols()
            if s.object_class is ast.ObjectClass.QUANTITY
        }

    def _input_names(self) -> Set[str]:
        return {s.name for s in self.design.input_quantities()}

    # -- compile steps ----------------------------------------------------------

    def _make_inputs(self) -> None:
        for symbol in self.design.ports():
            if symbol.object_class is ast.ObjectClass.QUANTITY:
                self.vhif.add_port(_port_info(symbol))
        for symbol in self.design.input_quantities():
            block = self.sfg.add(BlockKind.INPUT, name=symbol.name)
            self.bindings[symbol.name] = block
        for symbol in self.design.ports():
            if (
                symbol.object_class is ast.ObjectClass.SIGNAL
                and symbol.mode is ast.PortMode.IN
            ):
                self.vhif.external_signals.add(symbol.name)

    def _initial_values(self) -> Dict[str, float]:
        values: Dict[str, float] = {}
        for symbol in self.design.quantities():
            if symbol.initial is None:
                continue
            try:
                value = eval_static(symbol.initial, self.design.scope)
                values[symbol.name] = float(value)  # type: ignore[arg-type]
            except (SemanticError, TypeError, ValueError):
                continue
        return values

    def _procedural_outputs(self, procedural: ast.ProceduralStmt) -> List[str]:
        locals_ = {d.name for d in procedural.declarations}
        outputs: List[str] = []
        for stmt in ast.walk_sequential(procedural.body):
            if isinstance(stmt, ast.VariableAssignment):
                if stmt.target in locals_:
                    continue
                symbol = self.design.scope.lookup(stmt.target)
                if (
                    symbol is not None
                    and symbol.object_class is ast.ObjectClass.QUANTITY
                    and stmt.target not in outputs
                ):
                    outputs.append(stmt.target)
        return outputs

    def _order_constructs(self, items: List[dict]) -> List[dict]:
        """Topologically order constructs by quantity define/use edges."""
        defined_by: Dict[str, int] = {}
        for index, item in enumerate(items):
            for name in item["defines"]:
                if name in defined_by:
                    raise CompileError(
                        f"quantity {name!r} is defined by more than one "
                        "concurrent construct"
                    )
                defined_by[name] = index
        order: List[dict] = []
        done: Set[int] = set()
        visiting: Set[int] = set()

        def visit(index: int) -> None:
            if index in done:
                return
            if index in visiting:
                raise CompileError(
                    "cyclic dependence between concurrent constructs "
                    "(an algebraic loop not broken by an integrator)"
                )
            visiting.add(index)
            for name in items[index]["reads"]:
                producer = defined_by.get(name)
                if producer is not None and producer != index:
                    visit(producer)
            visiting.discard(index)
            done.add(index)
            order.append(items[index])

        for index in range(len(items)):
            visit(index)
        return order

    def compile(self) -> VhifDesign:
        simples, conditionals, procedurals, processes = self._classify()
        self._make_inputs()
        analog = self._analog_names()
        inputs = self._input_names()
        claimed: Set[str] = set(inputs)

        items: List[dict] = []
        for procedural in procedurals:
            defines = self._procedural_outputs(procedural)
            reads = {
                name
                for stmt in ast.walk_sequential(procedural.body)
                if isinstance(stmt, (ast.VariableAssignment, ast.SignalAssignment))
                for name in ast.referenced_names(stmt.value)
                if name in analog and name not in defines
            }
            claimed |= set(defines)
            items.append(
                {
                    "kind": "procedural",
                    "stmt": procedural,
                    "defines": defines,
                    "reads": reads,
                }
            )
        for conditional in conditionals:
            candidates = sorted(analog - claimed)
            defines = conditional_unknowns(conditional, candidates)
            if not defines:
                raise CompileError(
                    "simultaneous if/case does not define any quantity",
                    conditional.location,
                )
            claimed |= set(defines)
            reads: Set[str] = set()
            for eq in ast.walk_concurrent([conditional]):
                if isinstance(eq, ast.SimpleSimultaneous):
                    reads |= set(ast.referenced_names(eq.lhs))
                    reads |= set(ast.referenced_names(eq.rhs))
            reads = {n for n in reads if n in analog} - set(defines)
            items.append(
                {
                    "kind": "conditional",
                    "stmt": conditional,
                    "defines": defines,
                    "reads": reads,
                }
            )
        if simples:
            unknowns = sorted(analog - claimed)
            if not unknowns:
                raise CompileError(
                    "quantities of the simultaneous statements are defined "
                    "by more than one concurrent construct (each quantity "
                    "may have exactly one defining construct)"
                )
            reads = set()
            for eq in simples:
                reads |= set(ast.referenced_names(eq.lhs))
                reads |= set(ast.referenced_names(eq.rhs))
            reads = {n for n in reads if n in analog} - set(unknowns)
            claimed |= set(unknowns)
            items.append(
                {
                    "kind": "dae",
                    "stmt": simples,
                    "defines": unknowns,
                    "reads": reads,
                }
            )

        undefined = {
            s.name
            for s in self.design.output_quantities()
            if s.name not in claimed
        }
        if undefined:
            raise CompileError(
                f"output quantities {sorted(undefined)} are never defined"
            )

        for item in self._order_constructs(items):
            self.compiler.bindings = self.bindings
            if item["kind"] == "procedural":
                produced = compile_procedural(
                    item["stmt"], self.design, self.compiler, self.bindings
                )
                for name in item["defines"]:
                    block = produced.get(name)
                    if block is None:
                        raise CompileError(
                            f"procedural does not produce {name!r}"
                        )
                    if not block.name or block.name.startswith(block.kind.value):
                        block.name = f"q_{name}"
                    self.bindings[name] = block
            elif item["kind"] == "conditional":
                stmt = item["stmt"]
                if isinstance(stmt, ast.SimultaneousIf):
                    produced = compile_simultaneous_if(
                        stmt, item["defines"], self.design, self.compiler
                    )
                else:
                    produced = compile_simultaneous_case(
                        stmt, item["defines"], self.design, self.compiler
                    )
                self.bindings.update(produced)
            else:  # dae
                dae = DaeCompiler(
                    item["stmt"],
                    item["defines"],
                    initial_values=self._initial_values(),
                    max_solvers=self.options.max_solvers,
                )
                causalizations = dae.enumerate_causalizations()
                if not causalizations:
                    raise CompileError(
                        "no causalization solves the simultaneous statement "
                        "set"
                    )
                index = min(self.options.solver_index, len(causalizations) - 1)
                produced = dae.emit(
                    self.compiler,
                    causalizations[index],
                    chosen_index=index,
                    n_alternatives=len(causalizations),
                )
                for name, block in produced.items():
                    self.bindings[name] = block

        for process in enumerate_processes(processes):
            index, stmt = process
            self.compiler.bindings = self.bindings
            fsm = compile_process(
                stmt,
                self.design,
                self.vhif,
                self.compiler,
                name=stmt.label or f"proc{index}",
            )
            self.vhif.add_fsm(fsm)

        self._make_outputs()
        self._register_taps_and_constants()
        self._prune_dead_blocks()
        self.vhif.validate()
        return self.vhif

    def _prune_dead_blocks(self) -> None:
        """Remove blocks whose outputs nothing consumes.

        Branch merging and loop unrolling can leave behind values that
        no surviving expression uses (e.g. the pre-branch constant of a
        variable rewritten in both arms).  Protected blocks — ports,
        quantity taps, event sources — always stay.
        """
        protected = {
            block_id for (_s, block_id) in self.vhif.quantity_taps.values()
        }
        protected |= {
            block_id for (_s, block_id) in self.vhif.event_sources.values()
        }
        changed = True
        while changed:
            changed = False
            for block in list(self.sfg.blocks):
                if block.kind in (BlockKind.INPUT, BlockKind.OUTPUT):
                    continue
                if block.block_id in protected:
                    continue
                if self.sfg.fanout(block) == 0:
                    self.sfg.remove_block(block)
                    changed = True

    def _make_outputs(self) -> None:
        """Create output chains, inferring interface blocks from
        annotations (the paper's *block 4*)."""
        for symbol in self.design.output_quantities():
            block = self.bindings.get(symbol.name)
            if block is None:
                raise CompileError(
                    f"output port {symbol.name!r} has no defining construct"
                )
            info = self.vhif.ports[symbol.name]
            current = block
            if info.limit_level is not None or info.drive_load_ohms is not None:
                params: Dict[str, object] = {"role": "output_stage"}
                if info.limit_level is not None:
                    params["low"] = -info.limit_level
                    params["high"] = info.limit_level
                if info.drive_load_ohms is not None:
                    params["load_ohms"] = info.drive_load_ohms
                if info.drive_amplitude is not None:
                    params["amplitude"] = info.drive_amplitude
                if info.limit_level is not None:
                    stage = self.sfg.add(
                        BlockKind.LIMIT, name=f"stage_{symbol.name}", **params
                    )
                else:
                    stage = self.sfg.add(
                        BlockKind.BUFFER, name=f"stage_{symbol.name}", **params
                    )
                self.sfg.connect(current, stage)
                current = stage
            elif info.impedance_ohms is not None and info.direction == "out":
                stage = self.sfg.add(
                    BlockKind.BUFFER,
                    name=f"stage_{symbol.name}",
                    role="follower",
                    impedance_ohms=info.impedance_ohms,
                )
                self.sfg.connect(current, stage)
                current = stage
            out = self.sfg.add(BlockKind.OUTPUT, name=symbol.name)
            self.sfg.connect(current, out)

    def _register_taps_and_constants(self) -> None:
        for name, block in self.bindings.items():
            if name.endswith("__dot"):
                continue
            self.vhif.quantity_taps[name] = (self.sfg.name, block.block_id)
        for symbol in self.design.scope.symbols():
            if symbol.static_value is not None:
                self.vhif.constants[symbol.name] = symbol.static_value


def enumerate_processes(processes: Sequence[ast.ProcessStmt]):
    return list(enumerate(processes))


def compile_design(
    source: Union[str, ast.SourceFile, AnalyzedDesign],
    entity_name: Optional[str] = None,
    options: Optional[CompilerOptions] = None,
    architecture_name: Optional[str] = None,
    source_filename: Optional[str] = None,
) -> VhifDesign:
    """Compile VASS source (text, AST or analyzed design) into VHIF.

    ``source_filename`` names the origin of ``source`` text in
    diagnostics (``file:line:col``); ignored for pre-parsed input.
    """
    options = options or CompilerOptions()
    if isinstance(source, str):
        analyzed = analyze(
            parse_source(source, filename=source_filename or "<string>"),
            entity_name=entity_name,
            architecture_name=architecture_name,
        )
    elif isinstance(source, ast.SourceFile):
        analyzed = analyze(
            source,
            entity_name=entity_name,
            architecture_name=architecture_name,
        )
    else:
        analyzed = source
    return DesignCompiler(analyzed, options).compile()


def enumerate_solvers(
    source: Union[str, ast.SourceFile, AnalyzedDesign],
    entity_name: Optional[str] = None,
    max_solvers: int = 16,
) -> List[Causalization]:
    """All DAE causalizations ("solvers") of a design's simultaneous set.

    Exposes the paper's claim that the synthesis tool considers all VHIF
    topologies that solve a DAE set; the mapper and the ablation bench
    iterate over these.
    """
    if isinstance(source, str):
        analyzed = analyze(parse_source(source), entity_name=entity_name)
    elif isinstance(source, ast.SourceFile):
        analyzed = analyze(source, entity_name=entity_name)
    else:
        analyzed = source
    compiler = DesignCompiler(analyzed, CompilerOptions(max_solvers=max_solvers))
    simples, conditionals, procedurals, _ = compiler._classify()
    if not simples:
        return []
    analog = compiler._analog_names()
    claimed = set(compiler._input_names())
    for procedural in procedurals:
        claimed |= set(compiler._procedural_outputs(procedural))
    for conditional in conditionals:
        claimed |= set(
            conditional_unknowns(conditional, sorted(analog - claimed))
        )
    unknowns = sorted(analog - claimed)
    dae = DaeCompiler(
        simples,
        unknowns,
        initial_values=compiler._initial_values(),
        max_solvers=max_solvers,
    )
    return dae.enumerate_causalizations()
