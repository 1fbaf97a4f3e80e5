"""Recursive-descent parser for VASS.

The grammar is the VHDL-AMS subset of Section 3 of the paper plus the
VASS annotation clauses.  Annotation clauses attach to port and object
declarations between the type mark (or initializer) and the closing
semicolon, e.g.::

    QUANTITY earph : OUT real IS voltage LIMITED AT 1.5 v
                     DRIVES 270.0 ohm AT 285.0 mv PEAK;

Numeric values in annotations accept unit suffixes (``v``, ``mv``,
``ohm``/``o``/``kohm``, ``hz``/``khz``/``mhz``) that scale to SI base
units.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.diagnostics import (
    LexerError,
    ParseError,
    SourceLocation,
    VaseError,
)
from repro.vass import ast_nodes as ast
from repro.vass.lexer import Token, TokenKind, tokenize

#: Functions recognized as predefined calls in expressions.
PREDEFINED_FUNCTIONS = frozenset(
    {
        "log",
        "ln",
        "exp",
        "sqrt",
        "sin",
        "cos",
        "tan",
        "arctan",
        "sign",
        "realmax",
        "realmin",
        "limit",
        "sample",
    }
)

#: Unit suffix -> multiplier to SI base unit.
UNIT_SCALE = {
    "v": 1.0,
    "mv": 1e-3,
    "uv": 1e-6,
    "kv": 1e3,
    "a": 1.0,
    "ma": 1e-3,
    "ua": 1e-6,
    "ohm": 1.0,
    "o": 1.0,
    "kohm": 1e3,
    "ko": 1e3,
    "mohm": 1e6,
    "hz": 1.0,
    "khz": 1e3,
    "mhz": 1e6,
    "ghz": 1e9,
    "s": 1.0,
    "ms": 1e-3,
    "us": 1e-6,
    "ns": 1e-9,
}

_RELATIONAL_OPS = {
    TokenKind.EQ: "=",
    TokenKind.NE: "/=",
    TokenKind.LT: "<",
    TokenKind.SIGNAL_ASSIGN: "<=",  # ``<=`` is "less or equal" in expressions
    TokenKind.GT: ">",
    TokenKind.GE: ">=",
}

_LOGICAL_OPS = frozenset({"and", "or", "nand", "nor", "xor", "xnor"})

#: Keywords at which error recovery resynchronizes: each can start a
#: design unit, a declaration, or a statement, so parsing can resume.
_RESYNC_KEYWORDS = frozenset(
    {
        "architecture",
        "case",
        "constant",
        "end",
        "entity",
        "for",
        "if",
        "library",
        "package",
        "procedural",
        "process",
        "quantity",
        "signal",
        "terminal",
        "use",
        "variable",
        "while",
    }
)


class Parser:
    """Parses a token stream into a :class:`~repro.vass.ast_nodes.SourceFile`.

    With ``collect_errors`` the parser keeps going after a syntax
    error: the error is appended to :attr:`errors`, the token stream is
    resynchronized at the next ``;`` or statement keyword, and parsing
    resumes — so one run reports *every* syntax error in a file
    (``vase check`` / ``vase batch``) instead of only the first.
    """

    def __init__(
        self,
        tokens: List[Token],
        filename: str = "<string>",
        collect_errors: bool = False,
    ):
        self._tokens = tokens
        self._pos = 0
        self._filename = filename
        self._collect_errors = collect_errors
        #: syntax errors collected in ``collect_errors`` mode
        self.errors: List[ParseError] = []

    # -- token helpers -------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _check(self, kind: TokenKind, value: Optional[str] = None) -> bool:
        token = self._peek()
        if token.kind is not kind:
            return False
        return value is None or token.value == value

    def _check_keyword(self, *words: str) -> bool:
        token = self._peek()
        return token.kind is TokenKind.KEYWORD and token.value in words

    def _accept(self, kind: TokenKind, value: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, value):
            return self._advance()
        return None

    def _accept_keyword(self, *words: str) -> Optional[Token]:
        if self._check_keyword(*words):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, value: Optional[str] = None) -> Token:
        token = self._peek()
        if not self._check(kind, value):
            wanted = value if value is not None else kind.value
            raise ParseError(
                f"expected {wanted!r}, found {token.value!r}", token.location
            )
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not self._check_keyword(word):
            raise ParseError(
                f"expected keyword {word!r}, found {token.value!r}", token.location
            )
        return self._advance()

    def _expect_identifier(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENTIFIER:
            raise ParseError(
                f"expected identifier, found {token.value!r}", token.location
            )
        return self._advance()

    def _loc(self) -> SourceLocation:
        return self._peek().location

    # -- error recovery --------------------------------------------------------

    def _recover(self, error: ParseError) -> None:
        """Collect ``error`` and resynchronize, or re-raise it."""
        if not self._collect_errors:
            raise error
        self.errors.append(error)
        self._resynchronize()

    def _resynchronize(self) -> None:
        """Skip past the next ``;`` or to the next statement keyword."""
        while not self._check(TokenKind.EOF):
            token = self._peek()
            if token.kind is TokenKind.SEMICOLON:
                self._advance()
                return
            if (
                token.kind is TokenKind.KEYWORD
                and token.value in _RESYNC_KEYWORDS
            ):
                return
            self._advance()

    # -- design file ----------------------------------------------------------

    def parse_source_file(self) -> ast.SourceFile:
        """Parse a whole VASS source file."""
        units: List[ast.DesignUnit] = []
        while not self._check(TokenKind.EOF):
            start = self._pos
            try:
                if self._check_keyword("library", "use"):
                    self._skip_context_clause()
                elif self._check_keyword("entity"):
                    units.append(self._parse_entity())
                elif self._check_keyword("architecture"):
                    units.append(self._parse_architecture())
                elif self._check_keyword("package"):
                    units.append(self._parse_package())
                else:
                    token = self._peek()
                    raise ParseError(
                        f"expected design unit, found {token.value!r}",
                        token.location,
                    )
            except ParseError as err:
                self._recover(err)
                if self._pos == start and not self._check(TokenKind.EOF):
                    # Resynchronization made no progress (e.g. stopped
                    # on the very keyword that failed): step over it.
                    self._advance()
        return ast.SourceFile(units=units, filename=self._filename)

    def _skip_context_clause(self) -> None:
        while not self._check(TokenKind.SEMICOLON) and not self._check(TokenKind.EOF):
            self._advance()
        self._expect(TokenKind.SEMICOLON)

    # -- entity ----------------------------------------------------------------

    def _parse_entity(self) -> ast.EntityDecl:
        loc = self._loc()
        self._expect_keyword("entity")
        name = self._expect_identifier().value
        self._expect_keyword("is")
        ports: List[ast.PortDecl] = []
        generics: List[ast.ObjectDecl] = []
        if self._accept_keyword("generic"):
            self._expect(TokenKind.LPAREN)
            generics = self._parse_generic_list()
            self._expect(TokenKind.RPAREN)
            self._expect(TokenKind.SEMICOLON)
        if self._accept_keyword("port"):
            self._expect(TokenKind.LPAREN)
            ports = self._parse_port_list()
            self._expect(TokenKind.RPAREN)
            self._expect(TokenKind.SEMICOLON)
        self._expect_keyword("end")
        self._accept_keyword("entity")
        if self._peek().kind is TokenKind.IDENTIFIER:
            closing = self._advance().value
            if closing != name:
                raise ParseError(
                    f"entity name mismatch: {closing!r} vs {name!r}", loc
                )
        self._expect(TokenKind.SEMICOLON)
        return ast.EntityDecl(name=name, ports=ports, generics=generics, location=loc)

    def _parse_generic_list(self) -> List[ast.ObjectDecl]:
        generics: List[ast.ObjectDecl] = []
        while True:
            loc = self._loc()
            self._accept_keyword("constant")
            names = [self._expect_identifier().value]
            while self._accept(TokenKind.COMMA):
                names.append(self._expect_identifier().value)
            self._expect(TokenKind.COLON)
            type_mark = self._parse_type_mark()
            initial = None
            if self._accept(TokenKind.ASSIGN):
                initial = self.parse_expression()
            for n in names:
                generics.append(
                    ast.ObjectDecl(
                        name=n,
                        object_class=ast.ObjectClass.CONSTANT,
                        type_mark=type_mark,
                        initial=initial,
                        location=loc,
                    )
                )
            if not self._accept(TokenKind.SEMICOLON):
                return generics
            if self._check(TokenKind.RPAREN):
                return generics

    def _parse_port_list(self) -> List[ast.PortDecl]:
        ports: List[ast.PortDecl] = []
        while True:
            ports.extend(self._parse_port_decl())
            if not self._accept(TokenKind.SEMICOLON):
                return ports
            if self._check(TokenKind.RPAREN):
                return ports

    def _parse_port_decl(self) -> List[ast.PortDecl]:
        loc = self._loc()
        object_class = ast.ObjectClass.QUANTITY
        if self._accept_keyword("quantity"):
            object_class = ast.ObjectClass.QUANTITY
        elif self._accept_keyword("signal"):
            object_class = ast.ObjectClass.SIGNAL
        elif self._accept_keyword("terminal"):
            object_class = ast.ObjectClass.TERMINAL
        names = [self._expect_identifier().value]
        while self._accept(TokenKind.COMMA):
            names.append(self._expect_identifier().value)
        self._expect(TokenKind.COLON)
        mode = ast.PortMode.IN
        if self._accept_keyword("in"):
            mode = ast.PortMode.IN
        elif self._accept_keyword("out"):
            mode = ast.PortMode.OUT
        elif self._accept_keyword("inout"):
            mode = ast.PortMode.INOUT
        facet: Optional[str] = None
        if object_class is ast.ObjectClass.TERMINAL:
            # Terminal ports name a nature; the body facet may be declared
            # with ACROSS / THROUGH right in the port declaration.
            type_mark = self._parse_type_mark()
            if self._accept_keyword("across"):
                facet = "across"
            elif self._accept_keyword("through"):
                facet = "through"
        else:
            type_mark = self._parse_type_mark()
        annotations = self._parse_annotations()
        return [
            ast.PortDecl(
                name=n,
                object_class=object_class,
                mode=mode,
                type_mark=type_mark,
                annotations=list(annotations),
                facet=facet,
                location=loc,
            )
            for n in names
        ]

    def _parse_type_mark(self) -> ast.TypeMark:
        token = self._peek()
        if token.kind is TokenKind.KEYWORD and token.value in ("bit", "range"):
            name = self._advance().value
        else:
            name = self._expect_identifier().value
        if name == "bit_vector" and self._accept(TokenKind.LPAREN):
            low = self._parse_static_int()
            if not (self._accept_keyword("to") or self._accept_keyword("downto")):
                raise ParseError("expected TO or DOWNTO in bit_vector bounds",
                                 self._loc())
            high = self._parse_static_int()
            self._expect(TokenKind.RPAREN)
            lo, hi = min(low, high), max(low, high)
            return ast.TypeMark(name="bit_vector", element="bit", bounds=(lo, hi))
        if name == "real_vector" and self._accept(TokenKind.LPAREN):
            low = self._parse_static_int()
            if not self._accept_keyword("to"):
                raise ParseError("expected TO in real_vector bounds", self._loc())
            high = self._parse_static_int()
            self._expect(TokenKind.RPAREN)
            return ast.TypeMark(name="real_vector", element="real",
                                bounds=(low, high))
        return ast.TypeMark(name=name)

    def _parse_static_int(self) -> int:
        negative = bool(self._accept(TokenKind.MINUS))
        token = self._expect(TokenKind.INTEGER)
        value = int(token.value)
        return -value if negative else value

    # -- annotations -------------------------------------------------------------

    def _parse_physical_value(self) -> float:
        """A number with an optional unit suffix, scaled to SI base units."""
        negative = bool(self._accept(TokenKind.MINUS))
        token = self._peek()
        if token.kind is TokenKind.INTEGER:
            value = float(self._advance().value)
        elif token.kind is TokenKind.REAL:
            value = float(self._advance().value)
        else:
            raise ParseError(
                f"expected numeric value, found {token.value!r}", token.location
            )
        nxt = self._peek()
        if nxt.kind is TokenKind.IDENTIFIER and nxt.value in UNIT_SCALE:
            value *= UNIT_SCALE[self._advance().value]
        if negative:
            value = -value
        return value

    def _parse_annotations(self) -> List[ast.Annotation]:
        annotations: List[ast.Annotation] = []
        while True:
            loc = self._loc()
            if self._check_keyword("is") and self._peek(1).kind is TokenKind.IDENTIFIER:
                nxt = self._peek(1).value
                if nxt in ("voltage", "current"):
                    self._advance()  # is
                    kind_token = self._advance()
                    annotations.append(
                        ast.KindAnnotation(
                            kind=ast.SignalKind(kind_token.value), location=loc
                        )
                    )
                    continue
                break
            if self._accept_keyword("limited"):
                level: Optional[float] = None
                if self._accept_keyword("at"):
                    level = self._parse_physical_value()
                annotations.append(ast.LimitAnnotation(level=level, location=loc))
                continue
            if self._accept_keyword("drives"):
                load = self._parse_physical_value()
                self._expect_keyword("at")
                amplitude = self._parse_physical_value()
                self._expect_keyword("peak")
                annotations.append(
                    ast.DriveAnnotation(
                        load_ohms=load, amplitude=amplitude, location=loc
                    )
                )
                continue
            if self._accept_keyword("range"):
                low = self._parse_physical_value()
                self._expect_keyword("to")
                high = self._parse_physical_value()
                annotations.append(
                    ast.RangeAnnotation(low=low, high=high, location=loc)
                )
                continue
            if self._accept_keyword("frequency"):
                low = self._parse_physical_value()
                self._expect_keyword("to")
                high = self._parse_physical_value()
                annotations.append(
                    ast.FrequencyAnnotation(low=low, high=high, location=loc)
                )
                continue
            if self._accept_keyword("impedance"):
                ohms = self._parse_physical_value()
                annotations.append(ast.ImpedanceAnnotation(ohms=ohms, location=loc))
                continue
            break
        return annotations

    # -- architecture ---------------------------------------------------------------

    def _parse_architecture(self) -> ast.ArchitectureBody:
        loc = self._loc()
        self._expect_keyword("architecture")
        name = self._expect_identifier().value
        self._expect_keyword("of")
        entity_name = self._expect_identifier().value
        self._expect_keyword("is")
        declarations = self._parse_declarations()
        self._expect_keyword("begin")
        statements: List[ast.ConcurrentStmt] = []
        while not self._check_keyword("end"):
            if self._collect_errors and self._check(TokenKind.EOF):
                break
            start = self._pos
            try:
                statements.append(self._parse_concurrent_statement())
            except ParseError as err:
                self._recover(err)
                if self._pos == start and not self._check(TokenKind.EOF):
                    self._advance()
        self._expect_keyword("end")
        self._accept_keyword("architecture")
        if self._peek().kind is TokenKind.IDENTIFIER:
            self._advance()
        self._expect(TokenKind.SEMICOLON)
        return ast.ArchitectureBody(
            name=name,
            entity_name=entity_name,
            declarations=declarations,
            statements=statements,
            location=loc,
        )

    def _parse_package(self) -> ast.PackageDecl:
        loc = self._loc()
        self._expect_keyword("package")
        name = self._expect_identifier().value
        self._expect_keyword("is")
        declarations = self._parse_declarations()
        self._expect_keyword("end")
        self._accept_keyword("package")
        if self._peek().kind is TokenKind.IDENTIFIER:
            self._advance()
        self._expect(TokenKind.SEMICOLON)
        return ast.PackageDecl(name=name, declarations=declarations, location=loc)

    def _parse_declarations(self) -> List[ast.ObjectDecl]:
        declarations: List[ast.ObjectDecl] = []
        while self._check_keyword(
            "quantity", "signal", "constant", "variable", "terminal"
        ):
            declarations.extend(self._parse_object_decl())
        return declarations

    def _parse_object_decl(self) -> List[ast.ObjectDecl]:
        loc = self._loc()
        class_token = self._advance()
        object_class = ast.ObjectClass(class_token.value)
        names = [self._expect_identifier().value]
        while self._accept(TokenKind.COMMA):
            names.append(self._expect_identifier().value)
        self._expect(TokenKind.COLON)
        type_mark = self._parse_type_mark()
        initial = None
        if self._accept(TokenKind.ASSIGN):
            initial = self.parse_expression()
        annotations = self._parse_annotations()
        self._expect(TokenKind.SEMICOLON)
        return [
            ast.ObjectDecl(
                name=n,
                object_class=object_class,
                type_mark=type_mark,
                initial=initial,
                annotations=list(annotations),
                location=loc,
            )
            for n in names
        ]

    # -- concurrent statements ------------------------------------------------------

    def _parse_concurrent_statement(self) -> ast.ConcurrentStmt:
        label: Optional[str] = None
        if (
            self._peek().kind is TokenKind.IDENTIFIER
            and self._peek(1).kind is TokenKind.COLON
        ):
            label = self._advance().value
            self._advance()  # colon
        if self._check_keyword("if"):
            stmt: ast.ConcurrentStmt = self._parse_simultaneous_if()
        elif self._check_keyword("case"):
            stmt = self._parse_simultaneous_case()
        elif self._check_keyword("process"):
            stmt = self._parse_process()
        elif self._check_keyword("procedural"):
            stmt = self._parse_procedural()
        else:
            stmt = self._parse_simple_simultaneous()
        stmt.label = label
        return stmt

    def _parse_simple_simultaneous(self) -> ast.SimpleSimultaneous:
        loc = self._loc()
        lhs = self.parse_expression()
        self._expect(TokenKind.EQ_EQ)
        rhs = self.parse_expression()
        self._expect(TokenKind.SEMICOLON)
        return ast.SimpleSimultaneous(lhs=lhs, rhs=rhs, location=loc)

    def _parse_simultaneous_if(self) -> ast.SimultaneousIf:
        loc = self._loc()
        self._expect_keyword("if")
        branches: List[Tuple[ast.Expression, List[ast.ConcurrentStmt]]] = []
        else_body: List[ast.ConcurrentStmt] = []
        condition = self.parse_expression()
        self._expect_keyword("use")
        body = self._parse_simultaneous_body()
        branches.append((condition, body))
        while self._check_keyword("elsif"):
            self._advance()
            condition = self.parse_expression()
            self._expect_keyword("use")
            branches.append((condition, self._parse_simultaneous_body()))
        if self._accept_keyword("else"):
            else_body = self._parse_simultaneous_body()
        self._expect_keyword("end")
        self._expect_keyword("use")
        self._expect(TokenKind.SEMICOLON)
        return ast.SimultaneousIf(branches=branches, else_body=else_body, location=loc)

    def _parse_simultaneous_body(self) -> List[ast.ConcurrentStmt]:
        body: List[ast.ConcurrentStmt] = []
        while not self._check_keyword("elsif", "else", "end"):
            body.append(self._parse_concurrent_statement())
        return body

    def _parse_simultaneous_case(self) -> ast.SimultaneousCase:
        loc = self._loc()
        self._expect_keyword("case")
        selector = self.parse_expression()
        self._expect_keyword("use")
        alternatives: List[Tuple[List[ast.Expression], List[ast.ConcurrentStmt]]] = []
        others: Optional[List[ast.ConcurrentStmt]] = None
        while self._check_keyword("when"):
            self._advance()
            if self._accept_keyword("others"):
                self._expect(TokenKind.ARROW)
                others = self._parse_simultaneous_when_body()
                continue
            choices = [self.parse_expression()]
            while self._accept(TokenKind.BAR):
                choices.append(self.parse_expression())
            self._expect(TokenKind.ARROW)
            alternatives.append((choices, self._parse_simultaneous_when_body()))
        self._expect_keyword("end")
        self._expect_keyword("case")
        self._expect(TokenKind.SEMICOLON)
        return ast.SimultaneousCase(
            selector=selector, alternatives=alternatives, others=others, location=loc
        )

    def _parse_simultaneous_when_body(self) -> List[ast.ConcurrentStmt]:
        body: List[ast.ConcurrentStmt] = []
        while not self._check_keyword("when", "end"):
            body.append(self._parse_concurrent_statement())
        return body

    def _parse_process(self) -> ast.ProcessStmt:
        loc = self._loc()
        self._expect_keyword("process")
        sensitivity: List[ast.Expression] = []
        if self._accept(TokenKind.LPAREN):
            sensitivity.append(self.parse_expression())
            while self._accept(TokenKind.COMMA):
                sensitivity.append(self.parse_expression())
            self._expect(TokenKind.RPAREN)
        self._accept_keyword("is")
        declarations = self._parse_declarations()
        self._expect_keyword("begin")
        body = self._parse_sequential_statements(("end",))
        self._expect_keyword("end")
        self._expect_keyword("process")
        self._expect(TokenKind.SEMICOLON)
        return ast.ProcessStmt(
            sensitivity=sensitivity,
            declarations=declarations,
            body=body,
            location=loc,
        )

    def _parse_procedural(self) -> ast.ProceduralStmt:
        loc = self._loc()
        self._expect_keyword("procedural")
        self._accept_keyword("is")
        declarations = self._parse_declarations()
        self._expect_keyword("begin")
        body = self._parse_sequential_statements(("end",))
        self._expect_keyword("end")
        self._expect_keyword("procedural")
        self._expect(TokenKind.SEMICOLON)
        return ast.ProceduralStmt(declarations=declarations, body=body, location=loc)

    # -- sequential statements ---------------------------------------------------------

    def _parse_sequential_statements(
        self, stop_words: Tuple[str, ...]
    ) -> List[ast.SequentialStmt]:
        statements: List[ast.SequentialStmt] = []
        while not self._check_keyword(*stop_words):
            statements.append(self._parse_sequential_statement())
        return statements

    def _parse_sequential_statement(self) -> ast.SequentialStmt:
        loc = self._loc()
        if self._check_keyword("if"):
            return self._parse_if_statement()
        if self._check_keyword("case"):
            return self._parse_case_statement()
        if self._check_keyword("while"):
            return self._parse_while_statement()
        if self._check_keyword("for"):
            return self._parse_for_statement()
        if self._accept_keyword("null"):
            self._expect(TokenKind.SEMICOLON)
            return ast.NullStmt(location=loc)
        if self._accept_keyword("break"):
            elements: List[Tuple[str, ast.Expression]] = []
            if self._peek().kind is TokenKind.IDENTIFIER:
                name = self._advance().value
                self._expect(TokenKind.ARROW)
                elements.append((name, self.parse_expression()))
                while self._accept(TokenKind.COMMA):
                    name = self._expect_identifier().value
                    self._expect(TokenKind.ARROW)
                    elements.append((name, self.parse_expression()))
            self._expect(TokenKind.SEMICOLON)
            return ast.BreakStmt(elements=elements, location=loc)
        if self._check_keyword("wait"):
            detail_tokens = []
            while not self._check(TokenKind.SEMICOLON):
                detail_tokens.append(self._advance().value)
            self._expect(TokenKind.SEMICOLON)
            return ast.WaitStmt(detail=" ".join(detail_tokens), location=loc)
        # Assignment: target [index] (<= | :=) expr ;
        target = self._expect_identifier().value
        index: Optional[ast.Expression] = None
        if self._accept(TokenKind.LPAREN):
            index = self.parse_expression()
            self._expect(TokenKind.RPAREN)
        if self._accept(TokenKind.SIGNAL_ASSIGN):
            value = self.parse_expression()
            self._expect(TokenKind.SEMICOLON)
            if index is not None:
                raise ParseError("indexed signal assignment is not in VASS", loc)
            return ast.SignalAssignment(target=target, value=value, location=loc)
        if self._accept(TokenKind.ASSIGN):
            value = self.parse_expression()
            self._expect(TokenKind.SEMICOLON)
            return ast.VariableAssignment(
                target=target, value=value, index=index, location=loc
            )
        raise ParseError(
            f"expected ':=' or '<=' after {target!r}", self._loc()
        )

    def _parse_if_statement(self) -> ast.IfStmt:
        loc = self._loc()
        self._expect_keyword("if")
        branches: List[Tuple[ast.Expression, List[ast.SequentialStmt]]] = []
        condition = self.parse_expression()
        self._expect_keyword("then")
        body = self._parse_sequential_statements(("elsif", "else", "end"))
        branches.append((condition, body))
        while self._accept_keyword("elsif"):
            condition = self.parse_expression()
            self._expect_keyword("then")
            branches.append(
                (condition, self._parse_sequential_statements(("elsif", "else", "end")))
            )
        else_body: List[ast.SequentialStmt] = []
        if self._accept_keyword("else"):
            else_body = self._parse_sequential_statements(("end",))
        self._expect_keyword("end")
        self._expect_keyword("if")
        self._expect(TokenKind.SEMICOLON)
        return ast.IfStmt(branches=branches, else_body=else_body, location=loc)

    def _parse_case_statement(self) -> ast.CaseStmt:
        loc = self._loc()
        self._expect_keyword("case")
        selector = self.parse_expression()
        self._expect_keyword("is")
        alternatives: List[Tuple[List[ast.Expression], List[ast.SequentialStmt]]] = []
        others: Optional[List[ast.SequentialStmt]] = None
        while self._check_keyword("when"):
            self._advance()
            if self._accept_keyword("others"):
                self._expect(TokenKind.ARROW)
                others = self._parse_sequential_statements(("when", "end"))
                continue
            choices = [self.parse_expression()]
            while self._accept(TokenKind.BAR):
                choices.append(self.parse_expression())
            self._expect(TokenKind.ARROW)
            alternatives.append(
                (choices, self._parse_sequential_statements(("when", "end")))
            )
        self._expect_keyword("end")
        self._expect_keyword("case")
        self._expect(TokenKind.SEMICOLON)
        return ast.CaseStmt(
            selector=selector, alternatives=alternatives, others=others, location=loc
        )

    def _parse_while_statement(self) -> ast.WhileStmt:
        loc = self._loc()
        self._expect_keyword("while")
        condition = self.parse_expression()
        self._expect_keyword("loop")
        body = self._parse_sequential_statements(("end",))
        self._expect_keyword("end")
        self._expect_keyword("loop")
        self._expect(TokenKind.SEMICOLON)
        return ast.WhileStmt(condition=condition, body=body, location=loc)

    def _parse_for_statement(self) -> ast.ForStmt:
        loc = self._loc()
        self._expect_keyword("for")
        variable = self._expect_identifier().value
        self._expect_keyword("in")
        low = self.parse_expression()
        self._expect_keyword("to")
        high = self.parse_expression()
        self._expect_keyword("loop")
        body = self._parse_sequential_statements(("end",))
        self._expect_keyword("end")
        self._expect_keyword("loop")
        self._expect(TokenKind.SEMICOLON)
        return ast.ForStmt(
            variable=variable, low=low, high=high, body=body, location=loc
        )

    # -- expressions ------------------------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        """Parse an expression (entry point, lowest precedence)."""
        return self._parse_logical()

    def _parse_logical(self) -> ast.Expression:
        left = self._parse_relation()
        while (
            self._peek().kind is TokenKind.KEYWORD
            and self._peek().value in _LOGICAL_OPS
        ):
            op_token = self._advance()
            right = self._parse_relation()
            left = ast.BinaryOp(
                operator=op_token.value,
                left=left,
                right=right,
                location=op_token.location,
            )
        return left

    def _parse_relation(self) -> ast.Expression:
        left = self._parse_simple_expression()
        kind = self._peek().kind
        if kind in _RELATIONAL_OPS:
            op_token = self._advance()
            right = self._parse_simple_expression()
            return ast.BinaryOp(
                operator=_RELATIONAL_OPS[kind],
                left=left,
                right=right,
                location=op_token.location,
            )
        return left

    def _parse_simple_expression(self) -> ast.Expression:
        loc = self._loc()
        if self._accept(TokenKind.MINUS):
            operand = self._parse_term()
            left: ast.Expression = ast.UnaryOp(
                operator="-", operand=operand, location=loc
            )
        elif self._accept(TokenKind.PLUS):
            left = self._parse_term()
        else:
            left = self._parse_term()
        while self._peek().kind in (TokenKind.PLUS, TokenKind.MINUS):
            op_token = self._advance()
            right = self._parse_term()
            left = ast.BinaryOp(
                operator=op_token.value,
                left=left,
                right=right,
                location=op_token.location,
            )
        return left

    def _parse_term(self) -> ast.Expression:
        left = self._parse_factor()
        while self._peek().kind in (TokenKind.STAR, TokenKind.SLASH) or (
            self._check_keyword("mod", "rem")
        ):
            op_token = self._advance()
            right = self._parse_factor()
            left = ast.BinaryOp(
                operator=op_token.value,
                left=left,
                right=right,
                location=op_token.location,
            )
        return left

    def _parse_factor(self) -> ast.Expression:
        loc = self._loc()
        if self._accept_keyword("not"):
            return ast.UnaryOp(
                operator="not", operand=self._parse_factor(), location=loc
            )
        if self._accept_keyword("abs"):
            return ast.UnaryOp(
                operator="abs", operand=self._parse_factor(), location=loc
            )
        primary = self._parse_primary()
        if self._accept(TokenKind.DOUBLE_STAR):
            exponent = self._parse_factor()
            return ast.BinaryOp(
                operator="**", left=primary, right=exponent, location=loc
            )
        return primary

    def _parse_primary(self) -> ast.Expression:
        token = self._peek()
        loc = token.location
        expr: ast.Expression
        if token.kind is TokenKind.INTEGER:
            self._advance()
            expr = ast.IntegerLiteral(value=int(token.value), location=loc)
        elif token.kind is TokenKind.REAL:
            self._advance()
            expr = ast.RealLiteral(value=float(token.value), location=loc)
        elif token.kind is TokenKind.CHARACTER:
            self._advance()
            expr = ast.CharacterLiteral(value=token.value, location=loc)
        elif token.kind is TokenKind.STRING:
            self._advance()
            expr = ast.StringLiteral(value=token.value, location=loc)
        elif token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self.parse_expression()
            if self._check(TokenKind.COMMA):
                # A positional aggregate: (e1, e2, ...).
                elements = [expr]
                while self._accept(TokenKind.COMMA):
                    elements.append(self.parse_expression())
                expr = ast.Aggregate(elements=elements, location=loc)
            self._expect(TokenKind.RPAREN)
        elif token.kind is TokenKind.IDENTIFIER:
            self._advance()
            name = token.value
            if name == "true":
                expr = ast.BooleanLiteral(value=True, location=loc)
            elif name == "false":
                expr = ast.BooleanLiteral(value=False, location=loc)
            elif self._check(TokenKind.LPAREN):
                self._advance()
                arguments = [self.parse_expression()]
                while self._accept(TokenKind.COMMA):
                    arguments.append(self.parse_expression())
                self._expect(TokenKind.RPAREN)
                if name in PREDEFINED_FUNCTIONS:
                    expr = ast.FunctionCall(
                        name=name, arguments=arguments, location=loc
                    )
                elif len(arguments) == 1:
                    expr = ast.IndexedName(
                        prefix=ast.Name(identifier=name, location=loc),
                        index=arguments[0],
                        location=loc,
                    )
                else:
                    expr = ast.FunctionCall(
                        name=name, arguments=arguments, location=loc
                    )
            else:
                expr = ast.Name(identifier=name, location=loc)
        else:
            raise ParseError(
                f"expected expression, found {token.value!r}", loc
            )
        # Attribute suffixes: expr'attr or expr'attr(args); chainable.
        while self._check(TokenKind.APOSTROPHE):
            self._advance()
            attr_token = self._peek()
            if attr_token.kind not in (TokenKind.IDENTIFIER, TokenKind.KEYWORD):
                raise ParseError("expected attribute name after '", attr_token.location)
            self._advance()
            arguments = []
            if self._accept(TokenKind.LPAREN):
                arguments.append(self.parse_expression())
                while self._accept(TokenKind.COMMA):
                    arguments.append(self.parse_expression())
                self._expect(TokenKind.RPAREN)
            expr = ast.AttributeExpr(
                prefix=expr,
                attribute=attr_token.value,
                arguments=arguments,
                location=attr_token.location,
            )
        return expr


def count_ast_nodes(node: object) -> int:
    """Number of AST nodes in a (sub)tree, by generic dataclass walk."""
    import dataclasses

    total = 0
    stack = [node]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
            continue
        if dataclasses.is_dataclass(obj) and type(obj).__module__ == ast.__name__:
            total += 1
            for f in dataclasses.fields(obj):
                stack.append(getattr(obj, f.name))
    return total


def parse_source(text: str, filename: str = "<string>") -> ast.SourceFile:
    """Tokenize and parse VASS source text into an AST."""
    from repro.instrument import metrics, trace_phase

    tokens = tokenize(text, filename)
    with trace_phase("parse", filename=filename) as span:
        source_file = Parser(tokens, filename).parse_source_file()
        registry = metrics()
        if registry.enabled or _tracing_active():
            n_nodes = count_ast_nodes(source_file)
            span.annotate(ast_nodes=n_nodes)
            registry.inc("frontend.parser.runs")
            registry.inc("frontend.parser.ast_nodes", n_nodes)
    return source_file


def parse_source_collecting(
    text: str, filename: str = "<string>"
) -> Tuple[ast.SourceFile, List[VaseError]]:
    """Parse with error recovery, returning every syntax error found.

    The companion of :func:`parse_source` for ``vase check`` and
    ``vase batch``: instead of dying on the first syntax error, the
    parser resynchronizes at the next ``;`` or statement keyword and
    keeps going, so the returned list reports *all* of a file's errors
    in one run.  The returned :class:`~repro.vass.ast_nodes.SourceFile`
    holds whatever design units parsed cleanly (it is complete exactly
    when the error list is empty).  A lexer error still ends the run —
    tokenization is all-or-nothing — but is returned, not raised.
    """
    try:
        tokens = tokenize(text, filename)
    except LexerError as err:
        return ast.SourceFile(units=[], filename=filename), [err]
    parser = Parser(tokens, filename, collect_errors=True)
    source_file = parser.parse_source_file()
    return source_file, list(parser.errors)


def _tracing_active() -> bool:
    from repro.instrument import active_tracer

    return active_tracer() is not None


def parse_expression(text: str) -> ast.Expression:
    """Parse a standalone expression (used heavily by unit tests)."""
    parser = Parser(tokenize(text))
    expr = parser.parse_expression()
    trailing = parser._peek()
    if trailing.kind is not TokenKind.EOF:
        raise ParseError(
            f"unexpected trailing input {trailing.value!r}", trailing.location
        )
    return expr
