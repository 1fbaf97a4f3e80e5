"""Abstract syntax tree for VASS, the VHDL-AMS subset for synthesis.

The AST mirrors the structure described in Section 3 of the paper: design
files contain entity declarations and architecture bodies; architectures
contain object declarations and concurrent statements (simple and
conditional simultaneous statements, procedural statements and process
statements); sequential statements appear inside processes and
procedurals.  Expressions cover the VHDL-AMS operators plus the
attribute forms used by the subset (``'above``, ``'dot``, ``'integ``,
``'delayed``, ``'event``).

All nodes are plain dataclasses so they are cheap to construct in tests
and easy to traverse with ``isinstance`` dispatch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.diagnostics import NO_LOCATION, SourceLocation


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expression:
    """Base class for all expression nodes."""

    location: SourceLocation = field(default=NO_LOCATION, compare=False)


@dataclass
class Name(Expression):
    """A simple name reference (quantity, signal, variable, constant)."""

    identifier: str = ""

    def __str__(self) -> str:
        return self.identifier


@dataclass
class IntegerLiteral(Expression):
    value: int = 0

    def __str__(self) -> str:
        return str(self.value)


@dataclass
class RealLiteral(Expression):
    value: float = 0.0

    def __str__(self) -> str:
        return repr(self.value)


@dataclass
class CharacterLiteral(Expression):
    """E.g. ``'1'`` or ``'0'`` of type bit."""

    value: str = "0"

    def __str__(self) -> str:
        return f"'{self.value}'"


@dataclass
class StringLiteral(Expression):
    value: str = ""

    def __str__(self) -> str:
        return f'"{self.value}"'


@dataclass
class BooleanLiteral(Expression):
    value: bool = False

    def __str__(self) -> str:
        return "TRUE" if self.value else "FALSE"


@dataclass
class UnaryOp(Expression):
    """Unary operators: ``-``, ``+``, ``not``, ``abs``."""

    operator: str = "-"
    operand: Expression = field(default_factory=Expression)

    def __str__(self) -> str:
        return f"({self.operator} {self.operand})"


@dataclass
class BinaryOp(Expression):
    """Binary operators: arithmetic, relational and logical."""

    operator: str = "+"
    left: Expression = field(default_factory=Expression)
    right: Expression = field(default_factory=Expression)

    def __str__(self) -> str:
        return f"({self.left} {self.operator} {self.right})"


@dataclass
class FunctionCall(Expression):
    """Call of a predefined function, e.g. ``log(x)``, ``exp(x)``."""

    name: str = ""
    arguments: List[Expression] = field(default_factory=list)

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.arguments)
        return f"{self.name}({args})"


@dataclass
class AttributeExpr(Expression):
    """An attribute applied to a name: ``line'above(vth)``, ``x'dot``."""

    prefix: Expression = field(default_factory=Expression)
    attribute: str = ""
    arguments: List[Expression] = field(default_factory=list)

    def __str__(self) -> str:
        if self.arguments:
            args = ", ".join(str(a) for a in self.arguments)
            return f"{self.prefix}'{self.attribute}({args})"
        return f"{self.prefix}'{self.attribute}"


@dataclass
class IndexedName(Expression):
    """An indexed name, e.g. ``v(3)`` for composite quantities."""

    prefix: Expression = field(default_factory=Expression)
    index: Expression = field(default_factory=Expression)

    def __str__(self) -> str:
        return f"{self.prefix}({self.index})"


@dataclass
class Aggregate(Expression):
    """A positional aggregate, e.g. ``(1.0, 0.5, 2.0)``.

    VASS uses aggregates as the numerator/denominator coefficient
    vectors of the ``'ltf`` attribute (ascending powers of s).
    """

    elements: List[Expression] = field(default_factory=list)

    def __str__(self) -> str:
        inner = ", ".join(str(e) for e in self.elements)
        return f"({inner})"


# ---------------------------------------------------------------------------
# Annotations (the VASS declarative mechanism, Section 3)
# ---------------------------------------------------------------------------


class SignalKind(enum.Enum):
    """Physical facet of an analog signal."""

    VOLTAGE = "voltage"
    CURRENT = "current"


@dataclass
class Annotation:
    """Base class for VASS declarative annotations."""

    location: SourceLocation = field(default=NO_LOCATION, compare=False)


@dataclass
class KindAnnotation(Annotation):
    """``IS voltage`` / ``IS current`` — the facet of a quantity port."""

    kind: SignalKind = SignalKind.VOLTAGE


@dataclass
class LimitAnnotation(Annotation):
    """``LIMITED [AT <level>]`` — the output saturates at ``level`` volts."""

    level: Optional[float] = None


@dataclass
class DriveAnnotation(Annotation):
    """``DRIVES <ohms> AT <amplitude> PEAK`` — external load requirement."""

    load_ohms: float = 0.0
    amplitude: float = 0.0


@dataclass
class RangeAnnotation(Annotation):
    """``RANGE <lo> TO <hi>`` — expected value range of a quantity."""

    low: float = 0.0
    high: float = 0.0


@dataclass
class FrequencyAnnotation(Annotation):
    """``FREQUENCY <lo> TO <hi>`` — signal band, in hertz."""

    low: float = 0.0
    high: float = 0.0


@dataclass
class ImpedanceAnnotation(Annotation):
    """``IMPEDANCE <ohms>`` — impedance at a terminal/quantity port."""

    ohms: float = 0.0


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class PortMode(enum.Enum):
    IN = "in"
    OUT = "out"
    INOUT = "inout"


class ObjectClass(enum.Enum):
    """Object class of a declared name."""

    QUANTITY = "quantity"
    SIGNAL = "signal"
    TERMINAL = "terminal"
    CONSTANT = "constant"
    VARIABLE = "variable"


@dataclass
class TypeMark:
    """A (possibly composite) type indication."""

    name: str = "real"
    # For array types: element type name and static index bounds.
    element: Optional[str] = None
    bounds: Optional[Tuple[int, int]] = None

    def is_discrete(self) -> bool:
        return self.name in ("bit", "bit_vector", "boolean", "integer")

    def __str__(self) -> str:
        if self.bounds is not None:
            return f"{self.name}({self.bounds[0]} to {self.bounds[1]})"
        return self.name


@dataclass
class PortDecl:
    """A single port of an entity."""

    name: str
    object_class: ObjectClass
    mode: PortMode
    type_mark: TypeMark
    annotations: List[Annotation] = field(default_factory=list)
    # For terminal ports: which facet ("across"/"through") the body uses.
    facet: Optional[str] = None
    location: SourceLocation = field(default=NO_LOCATION, compare=False)

    def annotation(self, cls: type) -> Optional[Annotation]:
        """First annotation of the given class, if any."""
        for ann in self.annotations:
            if isinstance(ann, cls):
                return ann
        return None


@dataclass
class ObjectDecl:
    """A declaration inside an architecture, process or procedural."""

    name: str
    object_class: ObjectClass
    type_mark: TypeMark
    initial: Optional[Expression] = None
    annotations: List[Annotation] = field(default_factory=list)
    location: SourceLocation = field(default=NO_LOCATION, compare=False)


@dataclass
class EntityDecl:
    """An entity declaration with its port list."""

    name: str
    ports: List[PortDecl] = field(default_factory=list)
    generics: List[ObjectDecl] = field(default_factory=list)
    location: SourceLocation = field(default=NO_LOCATION, compare=False)

    def port(self, name: str) -> Optional[PortDecl]:
        for p in self.ports:
            if p.name == name:
                return p
        return None


# ---------------------------------------------------------------------------
# Sequential statements (inside processes and procedurals)
# ---------------------------------------------------------------------------


@dataclass
class SequentialStmt:
    """Base class for sequential statements."""

    location: SourceLocation = field(default=NO_LOCATION, compare=False)


@dataclass
class SignalAssignment(SequentialStmt):
    """``target <= expr;`` inside a process."""

    target: str = ""
    value: Expression = field(default_factory=Expression)


@dataclass
class VariableAssignment(SequentialStmt):
    """``target := expr;`` inside a process or procedural."""

    target: str = ""
    value: Expression = field(default_factory=Expression)
    # Optional index for composite targets: target(i) := ...
    index: Optional[Expression] = None


@dataclass
class IfStmt(SequentialStmt):
    """``if/elsif/else`` with one body per branch."""

    branches: List[Tuple[Expression, List[SequentialStmt]]] = field(
        default_factory=list
    )
    else_body: List[SequentialStmt] = field(default_factory=list)


@dataclass
class CaseStmt(SequentialStmt):
    """``case selector is when choice => body ...``"""

    selector: Expression = field(default_factory=Expression)
    alternatives: List[Tuple[List[Expression], List[SequentialStmt]]] = field(
        default_factory=list
    )
    # ``when others`` body, or None if absent.
    others: Optional[List[SequentialStmt]] = None


@dataclass
class WhileStmt(SequentialStmt):
    """``while cond loop body end loop;`` — sampling semantics in VASS."""

    condition: Expression = field(default_factory=Expression)
    body: List[SequentialStmt] = field(default_factory=list)


@dataclass
class ForStmt(SequentialStmt):
    """``for i in lo to hi loop ...`` — bounds must be static in VASS."""

    variable: str = ""
    low: Expression = field(default_factory=Expression)
    high: Expression = field(default_factory=Expression)
    body: List[SequentialStmt] = field(default_factory=list)


@dataclass
class NullStmt(SequentialStmt):
    """``null;``"""


@dataclass
class BreakStmt(SequentialStmt):
    """``break;`` — discontinuity announcement (accepted, no-op for synth)."""

    elements: List[Tuple[str, Expression]] = field(default_factory=list)


@dataclass
class WaitStmt(SequentialStmt):
    """``wait ...`` — parsed so the restriction checker can reject it."""

    detail: str = ""


# ---------------------------------------------------------------------------
# Concurrent statements
# ---------------------------------------------------------------------------


@dataclass
class ConcurrentStmt:
    """Base class for concurrent statements."""

    label: Optional[str] = None
    location: SourceLocation = field(default=NO_LOCATION, compare=False)


@dataclass
class SimpleSimultaneous(ConcurrentStmt):
    """``lhs == rhs;`` — one equation of the DAE set."""

    lhs: Expression = field(default_factory=Expression)
    rhs: Expression = field(default_factory=Expression)

    def __str__(self) -> str:
        return f"{self.lhs} == {self.rhs}"


@dataclass
class SimultaneousIf(ConcurrentStmt):
    """``if cond use <equations> [elsif ...] [else ...] end use;``"""

    branches: List[Tuple[Expression, List["ConcurrentStmt"]]] = field(
        default_factory=list
    )
    else_body: List["ConcurrentStmt"] = field(default_factory=list)


@dataclass
class SimultaneousCase(ConcurrentStmt):
    """``case selector use when choice => <equations> ... end case;``"""

    selector: Expression = field(default_factory=Expression)
    alternatives: List[Tuple[List[Expression], List["ConcurrentStmt"]]] = field(
        default_factory=list
    )
    others: Optional[List["ConcurrentStmt"]] = None


@dataclass
class ProceduralStmt(ConcurrentStmt):
    """``procedural is <decls> begin <sequential statements> end procedural;``

    Explicit continuous-time behavior: a pure functional block computing
    analog outputs from inputs with no state between invocations.
    """

    declarations: List[ObjectDecl] = field(default_factory=list)
    body: List[SequentialStmt] = field(default_factory=list)


@dataclass
class ProcessStmt(ConcurrentStmt):
    """``process (<sensitivity>) is <decls> begin <stmts> end process;``"""

    sensitivity: List[Expression] = field(default_factory=list)
    declarations: List[ObjectDecl] = field(default_factory=list)
    body: List[SequentialStmt] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Design units
# ---------------------------------------------------------------------------


@dataclass
class ArchitectureBody:
    """An architecture of an entity."""

    name: str
    entity_name: str
    declarations: List[ObjectDecl] = field(default_factory=list)
    statements: List[ConcurrentStmt] = field(default_factory=list)
    location: SourceLocation = field(default=NO_LOCATION, compare=False)


@dataclass
class PackageDecl:
    """A package of constants (the only package contents VASS needs)."""

    name: str
    declarations: List[ObjectDecl] = field(default_factory=list)
    location: SourceLocation = field(default=NO_LOCATION, compare=False)


DesignUnit = Union[EntityDecl, ArchitectureBody, PackageDecl]


@dataclass
class SourceFile:
    """A parsed VASS source file: a sequence of design units."""

    units: List[DesignUnit] = field(default_factory=list)
    filename: str = "<string>"

    @property
    def entities(self) -> List[EntityDecl]:
        return [u for u in self.units if isinstance(u, EntityDecl)]

    @property
    def architectures(self) -> List[ArchitectureBody]:
        return [u for u in self.units if isinstance(u, ArchitectureBody)]

    @property
    def packages(self) -> List[PackageDecl]:
        return [u for u in self.units if isinstance(u, PackageDecl)]

    def entity(self, name: str) -> Optional[EntityDecl]:
        for e in self.entities:
            if e.name == name:
                return e
        return None

    def architecture_of(
        self, entity_name: str, architecture_name: Optional[str] = None
    ) -> Optional[ArchitectureBody]:
        """The (named) architecture of ``entity_name``.

        Without a name the *last* architecture wins, matching VHDL's
        default binding rule (most recently analyzed).
        """
        matches = [a for a in self.architectures if a.entity_name == entity_name]
        if architecture_name is not None:
            for a in matches:
                if a.name == architecture_name:
                    return a
            return None
        return matches[-1] if matches else None


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk_expression(expr: Expression) -> List[Expression]:
    """All sub-expressions of ``expr`` in pre-order (including itself)."""
    out: List[Expression] = [expr]
    if isinstance(expr, UnaryOp):
        out.extend(walk_expression(expr.operand))
    elif isinstance(expr, BinaryOp):
        out.extend(walk_expression(expr.left))
        out.extend(walk_expression(expr.right))
    elif isinstance(expr, FunctionCall):
        for arg in expr.arguments:
            out.extend(walk_expression(arg))
    elif isinstance(expr, AttributeExpr):
        out.extend(walk_expression(expr.prefix))
        for arg in expr.arguments:
            out.extend(walk_expression(arg))
    elif isinstance(expr, IndexedName):
        out.extend(walk_expression(expr.prefix))
        out.extend(walk_expression(expr.index))
    elif isinstance(expr, Aggregate):
        for element in expr.elements:
            out.extend(walk_expression(element))
    return out


def referenced_names(expr: Expression) -> List[str]:
    """Names referenced anywhere inside ``expr`` (in pre-order)."""
    return [
        node.identifier for node in walk_expression(expr) if isinstance(node, Name)
    ]


def walk_sequential(stmts: Sequence[SequentialStmt]) -> List[SequentialStmt]:
    """All sequential statements in ``stmts`` recursively, pre-order."""
    out: List[SequentialStmt] = []
    for stmt in stmts:
        out.append(stmt)
        if isinstance(stmt, IfStmt):
            for _, body in stmt.branches:
                out.extend(walk_sequential(body))
            out.extend(walk_sequential(stmt.else_body))
        elif isinstance(stmt, CaseStmt):
            for _, body in stmt.alternatives:
                out.extend(walk_sequential(body))
            if stmt.others is not None:
                out.extend(walk_sequential(stmt.others))
        elif isinstance(stmt, (WhileStmt, ForStmt)):
            out.extend(walk_sequential(stmt.body))
    return out


def walk_concurrent(stmts: Sequence[ConcurrentStmt]) -> List[ConcurrentStmt]:
    """All concurrent statements in ``stmts`` recursively, pre-order."""
    out: List[ConcurrentStmt] = []
    for stmt in stmts:
        out.append(stmt)
        if isinstance(stmt, SimultaneousIf):
            for _, body in stmt.branches:
                out.extend(walk_concurrent(body))
            out.extend(walk_concurrent(stmt.else_body))
        elif isinstance(stmt, SimultaneousCase):
            for _, body in stmt.alternatives:
                out.extend(walk_concurrent(body))
            if stmt.others is not None:
                out.extend(walk_concurrent(stmt.others))
    return out
