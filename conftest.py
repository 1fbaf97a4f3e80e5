"""Repo-wide pytest configuration.

``VASE_EXPLOG`` smoke mode: when the environment variable is set, the
whole suite runs with a process-wide exploration recorder active, so
every synthesis run in every test exercises the instrumented decision
paths (CI uses this to prove the explog layer stays healthy under
load).  Set it to ``1`` to record in memory, or to a path ending in
``.jsonl`` to also stream the events to disk.
"""

import os

import pytest


@pytest.fixture(autouse=True)
def _no_default_ledger(monkeypatch):
    """Keep test runs from appending to a ``.vase-ledger/`` in the cwd.

    The CLI's run ledger is on by default; tests that want one pass an
    explicit ``--ledger`` path (which overrides the environment).
    """
    monkeypatch.setenv("VASE_LEDGER", "off")


@pytest.fixture
def singular_ac(monkeypatch):
    """Make every AC sweep singular at every frequency point.

    No circuit has a regular DC bias point yet a singular AC system, so
    the AC engine's singular-matrix path cannot be reached from a real
    input.  This disconnects the first unknown of the small-signal
    system: its row and column are zeroed in the ``G`` and ``C``
    matrices that ``AcSolver._solve_grid`` composes ``A(ω) = G + jω·C``
    from, so the batched backend and its dense fallback factorize the
    same singular systems.  The bias point is solved before and stays
    regular.
    """
    from repro.spice.ac import AcSolver

    solve_grid = AcSolver._solve_grid

    def disconnected(self, backend, guard, frequencies, G, C, b):
        G, C = G.copy(), C.copy()
        for matrix in (G, C):
            matrix[0, :] = 0.0
            matrix[:, 0] = 0.0
        return solve_grid(self, backend, guard, frequencies, G, C, b)

    monkeypatch.setattr(AcSolver, "_solve_grid", disconnected)


@pytest.fixture
def frozen_artifacts(monkeypatch):
    """Fail the test if anything writes to a cached stage artifact.

    Stage artifacts are shared by reference, so nothing may change one
    once it is stored.  This wraps :meth:`ArtifactCache.put` to record
    ``sha1(pickle.dumps(value))`` of every artifact stored in any cache
    of this process, plus every artifact a :meth:`ArtifactCache.get`
    unpickled from a disk tier (another process stored it); at
    teardown each recorded artifact is digested again and must be
    unchanged.  Yields the list of ``(stage, key, value, digest)``
    records.  Unpicklable artifacts are not tracked.
    """
    import hashlib
    import pickle
    import threading

    from repro.pipeline.cache import MISS, ArtifactCache

    records = []
    seen = set()
    lock = threading.Lock()

    def digest(value):
        try:
            return hashlib.sha1(pickle.dumps(value)).hexdigest()
        except Exception:  # noqa: BLE001 - the disk tier skips these too
            return None

    def remember(stage, key, value):
        with lock:
            if id(value) in seen:
                return
            seen.add(id(value))
        # The record keeps ``value`` alive, so its id stays unique.
        record = (stage, key, value, digest(value))
        with lock:
            records.append(record)

    put, get = ArtifactCache.put, ArtifactCache.get

    def recording_put(self, key, value, stage=None):
        remember(stage, key, value)
        put(self, key, value, stage=stage)

    def recording_get(self, key, stage=None):
        value = get(self, key, stage=stage)
        if value is not MISS:
            remember(stage, key, value)
        return value

    monkeypatch.setattr(ArtifactCache, "put", recording_put)
    monkeypatch.setattr(ArtifactCache, "get", recording_get)
    yield records
    changed = sorted({
        f"{stage} {key[:12]}"
        for stage, key, value, fingerprint in records
        if fingerprint is not None and digest(value) != fingerprint
    })
    assert not changed, (
        f"{len(changed)} cached artifact(s) written to after put: "
        + ", ".join(changed)
    )


@pytest.fixture
def force_backend(monkeypatch):
    """Pin the SPICE engines to one linear-solver backend.

    The engines pick their backend themselves through
    ``resolve_backend``; tests that compare backends substitute that
    selector in both engines that call it (the AC sweep and the MNA
    bias/transient solves), undone at teardown.  Yields a function
    taking ``"dense"``, ``"batched"`` or ``"sparse"``.
    """
    from repro.spice import ac, linalg, mna

    solvers = {
        "dense": linalg.DenseSolver,
        "batched": linalg.BatchedSolver,
        "sparse": linalg.SparseSolver,
    }

    def force(name):
        solver = solvers[name]
        for module in (ac, mna):
            monkeypatch.setattr(
                module, "resolve_backend",
                lambda size=0, grid=1: solver(),
            )

    return force


@pytest.fixture
def naive_mapper():
    """The reference mapper the candidate-index parity tests compare to.

    An :class:`~repro.synth.mapper.ArchitectureMapper` that re-runs the
    pattern matcher at every decision node, then filters out cones
    overlapping the covered set and sorts by the sequencing rule — the
    enumeration the incremental ``CandidateIndex`` replaces.  Its
    matches are rebuilt per node and die young, so the area lookup
    skips the identity memo (a dead match's ``id`` can be reused).
    """
    from repro.synth import mapper

    class NaiveMapper(mapper.ArchitectureMapper):
        def _ordered_candidates(self, root):
            candidates = self.matcher.candidates(
                self.sfg, root, max_size=self.options.max_cone_size
            )
            if not self.options.enable_transforms:
                candidates = [c for c in candidates if c.transform is None]
            candidates = [
                c for c in candidates if not (c.cone & self._covered)
            ]
            sort_key = mapper._SEQUENCING_KEYS.get(self.options.sequencing)
            if sort_key is not None:
                candidates.sort(key=sort_key)
            return candidates

        _instance_area = mapper.ArchitectureMapper._keyed_area

    return NaiveMapper


@pytest.fixture
def walking_interpreter():
    """The reference interpreter the compiled-block parity tests compare to.

    An :class:`~repro.vhif.interp.Interpreter` that evaluates the design
    the way it did before blocks were compiled: every step walks each
    SFG in topological order, looks up every block's drivers, control
    and parameters, and re-derives each FSM's event names from its
    conditions.  Block values and state live in dicts keyed by
    ``(sfg name, block id)``.
    """
    import math

    from repro.diagnostics import SimulationError
    from repro.vhif.interp import Interpreter, _truthy
    from repro.vhif.sfg import BlockKind

    class WalkingInterpreter(Interpreter):
        def _compile(self):
            design = self.design
            self._orders = {
                sfg.name: sfg.topological_order() for sfg in design.sfgs
            }
            self._values = {}
            self._state = {}
            self._prev_input = {}
            for sfg in design.sfgs:
                for block in sfg.blocks:
                    key = (sfg.name, block.block_id)
                    if block.kind in (
                        BlockKind.INTEGRATE,
                        BlockKind.SAMPLE_HOLD,
                        BlockKind.SWITCH,
                    ):
                        self._state[key] = float(
                            block.params.get("initial", 0.0)
                        )
                    elif block.kind is BlockKind.COMPARATOR:
                        self._state[key] = 0.0
                    self._values[key] = 0.0
            for fsm in design.fsms:
                for signal in fsm.output_signals():
                    self.env.setdefault(signal, "0")
            for signal in design.external_signals:
                self.env.setdefault(signal, "0")
            self._input_block_names = {
                block.name for sfg in design.sfgs for block in sfg.inputs
            }

        def _control_value(self, sfg, block):
            driver = sfg.control_driver_of(block)
            if driver is not None:
                return self._values[(sfg.name, driver.block_id)]
            signal = sfg.control_signal_of(block)
            if signal is not None:
                return self.env.get(signal, "0")
            return "1"

        def _eval_block(self, sfg, block):
            key = (sfg.name, block.block_id)
            kind = block.kind

            def input_value(port):
                pred = sfg.driver_of(block, port)
                if pred is None:
                    raise SimulationError(
                        f"{sfg.name}: input {port} of {block.describe()} "
                        "undriven"
                    )
                return float(self._values[(sfg.name, pred.block_id)])

            if kind is BlockKind.INPUT:
                fn = self.inputs.get(block.name)
                if fn is None:
                    return 0.0
                return float(fn(self.time))
            if kind is BlockKind.CONST:
                return float(block.params["value"])
            if kind is BlockKind.OUTPUT:
                return input_value(0)
            if kind is BlockKind.ADD:
                return sum(input_value(p) for p in range(block.n_inputs))
            if kind is BlockKind.SUB:
                return input_value(0) - input_value(1)
            if kind is BlockKind.MUL:
                return input_value(0) * input_value(1)
            if kind is BlockKind.DIV:
                denominator = input_value(1)
                if abs(denominator) < 1e-12:
                    denominator = math.copysign(1e-12, denominator or 1.0)
                return input_value(0) / denominator
            if kind is BlockKind.SCALE:
                return block.gain * input_value(0)
            if kind is BlockKind.NEG:
                return -input_value(0)
            if kind is BlockKind.INTEGRATE:
                return self._state[key]
            if kind is BlockKind.DIFFERENTIATE:
                previous = self._prev_input.get(key, input_value(0))
                current = input_value(0)
                return (current - previous) / self.dt
            if kind is BlockKind.LOG:
                return math.log(max(input_value(0), 1e-30))
            if kind is BlockKind.EXP:
                return math.exp(min(input_value(0), 700.0))
            if kind is BlockKind.ABS:
                return abs(input_value(0))
            if kind is BlockKind.LIMIT:
                low = float(block.params.get("low", -1.0))
                high = float(block.params.get("high", 1.0))
                return min(max(input_value(0), low), high)
            if kind in (BlockKind.SAMPLE_HOLD, BlockKind.SWITCH):
                if _truthy(self._control_value(sfg, block)):
                    self._state[key] = input_value(0)
                return self._state[key]
            if kind is BlockKind.MUX:
                select = self._control_value(sfg, block)
                if isinstance(select, (bool, str)):
                    index = 0 if _truthy(select) else 1
                else:
                    index = int(select)
                index = min(max(index, 0), block.n_inputs - 1)
                return input_value(index)
            if kind is BlockKind.COMPARATOR:
                threshold = float(block.params.get("threshold", 0.0))
                hysteresis = float(block.params.get("hysteresis", 0.0))
                value = input_value(0)
                if self._state[key] > 0.5:
                    high = value > threshold - hysteresis
                else:
                    high = value > threshold + hysteresis
                self._state[key] = 1.0 if high else 0.0
                if block.params.get("invert"):
                    return not high
                return high
            if kind is BlockKind.ADC:
                bits = int(block.params.get("bits", 8))
                full_scale = float(block.params.get("full_scale", 5.0))
                if not _truthy(self._control_value(sfg, block)):
                    return self._values[key]
                value = input_value(0)
                levels = (1 << bits) - 1
                code = round(min(max(value / full_scale, 0.0), 1.0) * levels)
                return code * full_scale / levels
            if kind in (BlockKind.DAC, BlockKind.BUFFER):
                return input_value(0)
            raise SimulationError(
                f"cannot evaluate block kind {kind.value!r}"
            )

        def _integrate_states(self, sfg):
            for block in sfg.blocks_of_kind(BlockKind.INTEGRATE):
                pred = sfg.driver_of(block, 0)
                if pred is None:
                    continue
                rate = float(self._values[(sfg.name, pred.block_id)])
                self._state[(sfg.name, block.block_id)] += (
                    block.gain * rate * self.dt
                )
            for block in sfg.blocks_of_kind(BlockKind.DIFFERENTIATE):
                pred = sfg.driver_of(block, 0)
                if pred is not None:
                    self._prev_input[(sfg.name, block.block_id)] = float(
                        self._values[(sfg.name, pred.block_id)]
                    )

        def _detect_events(self):
            current = {}
            for name, key in self.design.event_sources.items():
                current[name] = self._values[key]
                self.env[name] = self._values[key]
            for fsm in self.design.fsms:
                for name in fsm.event_names():
                    if name in current or name.endswith("'above"):
                        continue
                    if name in self.env:
                        current[name] = self.env[name]
            for name, value in current.items():
                if name not in self._prev_event_values:
                    self.env[f"event:{name}"] = True
                else:
                    previous = self._prev_event_values[name]
                    self.env[f"event:{name}"] = previous != value
                self._prev_event_values[name] = value
            for name, key in self.design.quantity_taps.items():
                self.env[name] = self._values[key]

        def step(self):
            for name, fn in self.inputs.items():
                if name in self._input_block_names:
                    continue
                value = fn(self.time)
                if isinstance(value, str):
                    self.env[name] = value
                elif isinstance(value, bool):
                    self.env[name] = "1" if value else "0"
                else:
                    self.env[name] = "1" if float(value) > 0.5 else "0"
            for sfg in self.design.sfgs:
                for block in self._orders[sfg.name]:
                    self._values[(sfg.name, block.block_id)] = (
                        self._eval_block(sfg, block)
                    )
            self._detect_events()
            for fsm in self.design.fsms:
                self._run_fsm(fsm)
            for sfg in self.design.sfgs:
                self._integrate_states(sfg)
            self.time += self.dt

        def probe(self, name):
            for sfg in self.design.sfgs:
                for block in sfg.blocks:
                    if block.name == name:
                        return self._values[(sfg.name, block.block_id)]
            if name in self.env:
                return self.env[name]
            raise SimulationError(f"no probe target named {name!r}")

    return WalkingInterpreter


@pytest.fixture
def scanning_lexer():
    """The reference tokenizer the master-pattern lexer is compared to.

    A function ``(text, filename) -> tokens`` that scans the source one
    character at a time with ``_peek``/``_advance``, the way the lexer
    did before it matched one compiled pattern per token: it counts
    lines and columns as it advances, skips whitespace and ``--``
    comments in a loop, and picks the token with an if-ladder on the
    next one or two characters.  Numeric literals take
    ``str.isdecimal`` digits only, the rule the production lexer
    follows.
    """
    from repro.diagnostics import LexerError, SourceLocation
    from repro.vass.lexer import KEYWORDS, Token, TokenKind

    compound = {
        "==": TokenKind.EQ_EQ,
        "=>": TokenKind.ARROW,
        ":=": TokenKind.ASSIGN,
        "<=": TokenKind.SIGNAL_ASSIGN,
        "<>": TokenKind.BOX,
        ">=": TokenKind.GE,
        "/=": TokenKind.NE,
        "**": TokenKind.DOUBLE_STAR,
    }
    simple = {
        "(": TokenKind.LPAREN,
        ")": TokenKind.RPAREN,
        "[": TokenKind.LBRACKET,
        "]": TokenKind.RBRACKET,
        ";": TokenKind.SEMICOLON,
        ",": TokenKind.COMMA,
        "&": TokenKind.AMPERSAND,
        "+": TokenKind.PLUS,
        "-": TokenKind.MINUS,
        "|": TokenKind.BAR,
        ":": TokenKind.COLON,
        ".": TokenKind.DOT,
        "*": TokenKind.STAR,
        "/": TokenKind.SLASH,
        "<": TokenKind.LT,
        ">": TokenKind.GT,
        "=": TokenKind.EQ,
    }
    attribute_prefixes = (
        TokenKind.IDENTIFIER,
        TokenKind.RPAREN,
        TokenKind.RBRACKET,
        TokenKind.STRING,
        TokenKind.CHARACTER,
        TokenKind.INTEGER,
        TokenKind.REAL,
    )

    class ScanningLexer:
        def __init__(self, text, filename):
            self._text = text
            self._filename = filename
            self._pos = 0
            self._line = 1
            self._column = 1
            self._prev_allows_attribute = False

        def _location(self):
            return SourceLocation(self._line, self._column, self._filename)

        def _peek(self, offset=0):
            index = self._pos + offset
            if index >= len(self._text):
                return ""
            return self._text[index]

        def _advance(self, count=1):
            for ch in self._text[self._pos : self._pos + count]:
                if ch == "\n":
                    self._line += 1
                    self._column = 1
                else:
                    self._column += 1
            self._pos += count

        def _skip_whitespace_and_comments(self):
            while True:
                ch = self._peek()
                if ch and ch in " \t\r\n\f\v":
                    self._advance()
                elif ch == "-" and self._peek(1) == "-":
                    while self._peek() and self._peek() != "\n":
                        self._advance()
                else:
                    return

        def _scan_identifier(self, loc):
            start = self._pos
            while self._peek().isalnum() or self._peek() == "_":
                self._advance()
            raw = self._text[start : self._pos]
            if raw.endswith("_") or "__" in raw:
                raise LexerError(f"malformed identifier {raw!r}", loc)
            lowered = raw.lower()
            if lowered in KEYWORDS:
                return Token(TokenKind.KEYWORD, lowered, loc)
            return Token(TokenKind.IDENTIFIER, lowered, loc)

        def _scan_number(self, loc):
            start = self._pos
            is_real = False

            def scan_digits():
                while self._peek().isdecimal() or self._peek() == "_":
                    self._advance()

            scan_digits()
            if self._peek() == "." and self._peek(1).isdecimal():
                is_real = True
                self._advance()
                scan_digits()
            if self._peek() in "eE" and (
                self._peek(1).isdecimal()
                or (self._peek(1) in "+-" and self._peek(2).isdecimal())
            ):
                is_real = True
                self._advance()
                if self._peek() in "+-":
                    self._advance()
                scan_digits()
            raw = self._text[start : self._pos].replace("_", "")
            kind = TokenKind.REAL if is_real else TokenKind.INTEGER
            return Token(kind, raw, loc)

        def _scan_string(self, loc):
            self._advance()  # opening quote
            chars = []
            while True:
                ch = self._peek()
                if not ch or ch == "\n":
                    raise LexerError("unterminated string literal", loc)
                if ch == '"':
                    if self._peek(1) == '"':  # doubled quote escapes itself
                        chars.append('"')
                        self._advance(2)
                        continue
                    self._advance()
                    return Token(TokenKind.STRING, "".join(chars), loc)
                chars.append(ch)
                self._advance()

        def _scan_character(self, loc):
            self._advance()  # opening apostrophe
            ch = self._peek()
            if not ch or ch == "\n":
                raise LexerError("unterminated character literal", loc)
            self._advance()
            if self._peek() != "'":
                raise LexerError(
                    "character literal must be a single character", loc
                )
            self._advance()
            return Token(TokenKind.CHARACTER, ch, loc)

        def next_token(self):
            self._skip_whitespace_and_comments()
            loc = self._location()
            ch = self._peek()
            if not ch:
                token = Token(TokenKind.EOF, "", loc)
            elif ch.isalpha():
                token = self._scan_identifier(loc)
            elif ch.isdecimal():
                token = self._scan_number(loc)
            elif ch == '"':
                token = self._scan_string(loc)
            elif ch == "'":
                if self._prev_allows_attribute:
                    self._advance()
                    token = Token(TokenKind.APOSTROPHE, "'", loc)
                else:
                    token = self._scan_character(loc)
            elif ch + self._peek(1) in compound:
                pair = ch + self._peek(1)
                self._advance(2)
                token = Token(compound[pair], pair, loc)
            elif ch in simple:
                self._advance()
                token = Token(simple[ch], ch, loc)
            else:
                raise LexerError(f"unexpected character {ch!r}", loc)
            self._prev_allows_attribute = token.kind in attribute_prefixes or (
                token.kind is TokenKind.KEYWORD and token.value == "all"
            )
            return token

    def tokenize(text, filename="<string>"):
        lexer = ScanningLexer(text, filename)
        tokens = []
        while True:
            tokens.append(lexer.next_token())
            if tokens[-1].kind is TokenKind.EOF:
                return tokens

    return tokenize


@pytest.fixture
def unpredicted_transient():
    """The reference solver the predicted-start tests compare to.

    An :class:`~repro.spice.mna.MnaSolver` whose transient starts every
    step's Newton solve from the previous step's solution, the way it
    did before starts were extrapolated: step 1 from the initial state,
    every later step from the last accepted solution.  DC and AC solves
    are unchanged.
    """
    from repro.spice.mna import MnaSolver

    class UnpredictedSolver(MnaSolver):
        def _newton(self, x0, t, dt, prev, switch_controls, **kwargs):
            # In a transient step, ``prev`` is the last accepted
            # solution (the initial state at step 1).
            if dt is not None:
                x0 = prev
            return super()._newton(
                x0, t, dt, prev, switch_controls, **kwargs
            )

    return UnpredictedSolver


@pytest.fixture
def refactorizing_transient():
    """The reference solver the chord-step tests compare to.

    An :class:`~repro.spice.mna.MnaSolver` that drops the kept
    factorization before every Newton solve, so no transient step takes
    a chord step: each one assembles and factorizes at its start and
    iterates plain Newton, the way every step did before factorizations
    were reused.  Starts, DC and AC solves are unchanged.
    """
    from repro.spice.mna import MnaSolver

    class RefactorizingSolver(MnaSolver):
        def _newton(self, *args, **kwargs):
            self._kept = None
            return super()._newton(*args, **kwargs)

    return RefactorizingSolver


_SQUARER_SOURCE = """
ENTITY squarer IS
PORT (QUANTITY u : IN real; QUANTITY y : OUT real);
END ENTITY;
ARCHITECTURE a OF squarer IS
BEGIN
  y == 0.5 * u * u + 0.1;
END ARCHITECTURE;
"""


@pytest.fixture(scope="session")
def verification_inputs():
    """The four ``verify_transient`` benchmark inputs, elaborated.

    A builder: ``verification_inputs(fraction)`` returns ``{name:
    (circuit, t_end, dt)}`` for the receiver, biquad, squarer and
    Figure-8 transients, each cut to ``fraction`` of its benchmark
    length.
    """
    from repro.apps import biquad_filter, receiver
    from repro.flow import synthesize
    from repro.spice import elaborate, sin_wave

    def build(fraction=1.0):
        squarer = synthesize(_SQUARER_SOURCE).netlist
        receiver_netlist = synthesize(receiver.VASS_SOURCE).netlist
        biquad = synthesize(biquad_filter.VASS_SOURCE).netlist
        line = {"line": sin_wave(0.8, 1e3), "local": lambda t: 0.1}
        figure8 = {"line": sin_wave(1.0, 1e3), "local": lambda t: 0.1}
        return {
            "receiver": (elaborate(receiver_netlist, input_waves=line),
                         fraction * 2e-3, 2e-6),
            "biquad": (elaborate(biquad, input_waves={
                "vin": sin_wave(0.5, 200.0)}), fraction * 10e-3, 5e-6),
            "squarer": (elaborate(squarer, input_waves={
                "u": sin_wave(0.8, 1e3)}), fraction * 2e-3, 2e-6),
            "figure8": (elaborate(receiver_netlist, input_waves=figure8),
                        fraction * 2e-3, 2e-6),
        }

    return build


class _BoundedLog:
    """Session-wide recorder that trims its in-memory buffer.

    The suite performs thousands of synthesis runs; streaming keeps the
    full record on disk while the in-memory event list stays bounded.
    """

    LIMIT = 20_000

    @staticmethod
    def make(stream):
        from repro.instrument import ExplorationLog

        class Bounded(ExplorationLog):
            def emit(self, event, **fields):
                record = super().emit(event, **fields)
                if len(self.events) > _BoundedLog.LIMIT:
                    del self.events[: _BoundedLog.LIMIT // 2]
                return record

        return Bounded(stream=stream)


@pytest.fixture(scope="session", autouse=True)
def _explog_smoke():
    target = os.environ.get("VASE_EXPLOG")
    if not target:
        yield
        return
    from repro.instrument import disable_explog, enable_explog

    handle = None
    if target != "1" and target.endswith(".jsonl"):
        handle = open(target, "w", encoding="utf-8")
    enable_explog(_BoundedLog.make(handle))
    try:
        yield
    finally:
        disable_explog()
        if handle is not None:
            handle.close()
