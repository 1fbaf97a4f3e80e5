"""Lexer for VASS, the VHDL-AMS subset for synthesis.

The lexer follows VHDL lexical rules: identifiers and reserved words are
case-insensitive, comments run from ``--`` to end of line, character
literals are single characters between apostrophes, and the apostrophe
also introduces attribute names (``line'ABOVE``).  Disambiguation between
the two uses of ``'`` follows the VHDL rule: an apostrophe directly after
an identifier, right parenthesis or literal starts an attribute, otherwise
it starts a character literal.

Each token is one match of a compiled master pattern, which also skips
the whitespace and comments before it; lines and columns are counted
from the newlines in those skips.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List

from repro.diagnostics import LexerError, SourceLocation


class TokenKind(enum.Enum):
    """Categories of VASS tokens."""

    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    INTEGER = "integer"
    REAL = "real"
    STRING = "string"
    CHARACTER = "character"
    BIT_STRING = "bit_string"

    # Compound delimiters.
    ARROW = "=>"
    ASSIGN = ":="
    SIGNAL_ASSIGN = "<="
    EQ_EQ = "=="
    GE = ">="
    NE = "/="
    BOX = "<>"
    DOUBLE_STAR = "**"

    # Simple delimiters.
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    SEMICOLON = ";"
    COLON = ":"
    COMMA = ","
    DOT = "."
    AMPERSAND = "&"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    LT = "<"
    GT = ">"
    EQ = "="
    BAR = "|"
    APOSTROPHE = "'"

    EOF = "<eof>"


#: Reserved words of the VASS subset (a superset of what the paper's
#: examples use; all are VHDL-AMS reserved words or VASS annotations).
KEYWORDS = frozenset(
    {
        "abs",
        "above",
        "across",
        "after",
        "all",
        "and",
        "architecture",
        "array",
        "at",
        "begin",
        "bit",
        "body",
        "break",
        "case",
        "constant",
        "downto",
        "drives",
        "else",
        "elsif",
        "end",
        "entity",
        "exit",
        "for",
        "frequency",
        "function",
        "generic",
        "if",
        "impedance",
        "in",
        "inout",
        "is",
        "kind",
        "library",
        "limited",
        "loop",
        "mod",
        "nand",
        "nature",
        "nor",
        "not",
        "null",
        "of",
        "or",
        "others",
        "out",
        "package",
        "peak",
        "port",
        "procedural",
        "procedure",
        "process",
        "quantity",
        "range",
        "rem",
        "report",
        "return",
        "severity",
        "signal",
        "subtype",
        "terminal",
        "then",
        "through",
        "to",
        "type",
        "units",
        "until",
        "use",
        "variable",
        "wait",
        "when",
        "while",
        "with",
        "xnor",
        "xor",
    }
)


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``value`` is the normalized text: lower-case for identifiers and
    keywords (VHDL is case-insensitive), verbatim for literals.
    """

    kind: TokenKind
    value: str
    location: SourceLocation

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.value == word

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind.name}({self.value!r})@{self.location}"


#: Delimiter text to token kind, for the ``delim`` group below.
_DELIMITERS = {
    kind.value: kind
    for kind in TokenKind
    if not kind.value[0].isalpha()
    and kind not in (TokenKind.APOSTROPHE, TokenKind.EOF)
}

#: Token kinds after which an apostrophe starts an attribute name.
_ATTRIBUTE_PREFIXES = frozenset(
    {
        TokenKind.IDENTIFIER,
        TokenKind.RPAREN,
        TokenKind.RBRACKET,
        TokenKind.STRING,
        TokenKind.CHARACTER,
        TokenKind.INTEGER,
        TokenKind.REAL,
    }
)

# One match per token: a skip of whitespace and ``--`` comments, then
# exactly one named group.  ``other`` catches every character no token
# can start with (and an unterminated string's opening quote), so some
# group always matches right after the skip, which is never backtracked
# into.  ``\d`` is ``str.isdecimal`` (what ``int``/``float`` accept) and
# ``\w`` is ``str.isalnum`` or ``_``; an identifier must also start
# with a letter, which ``tokenize`` checks.  A closing quote may not be
# followed by another (``""`` escapes itself).
_TOKEN = re.compile(
    r"""
    [ \t\r\n\f\v]*(?:--[^\n]*[ \t\r\n\f\v]*)*
    (?:
        (?P<real>\d[\d_]*(?:\.\d[\d_]*(?:[eE][+-]?\d[\d_]*)?|[eE][+-]?\d[\d_]*))
      | (?P<integer>\d[\d_]*)
      | (?P<word>\w+)
      | (?P<string>"(?:[^"\n]|"")*"(?!"))
      | (?P<apostrophe>')
      | (?P<delim>==|=>|:=|<=|<>|>=|/=|\*\*|[()\[\];:,.&+\-*/<>=|])
      | (?P<eof>\Z)
      | (?P<other>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)


def _allows_attribute(token: Token) -> bool:
    """Whether an apostrophe right after ``token`` starts an attribute."""
    return token.kind in _ATTRIBUTE_PREFIXES or token.is_keyword("all")


class Lexer:
    """Converts VASS source text into a list of tokens."""

    def __init__(self, text: str, filename: str = "<string>"):
        self._text = text
        self._filename = filename

    def tokenize(self) -> List[Token]:
        """Return all tokens of the input, ending with an EOF token."""
        text, filename = self._text, self._filename
        match = _TOKEN.match
        tokens: List[Token] = []
        append = tokens.append
        pos = 0
        line = 1
        line_start = 0  # offset of the first character of ``line``
        while True:
            m = match(text, pos)
            group = m.lastgroup
            start, end = m.span(group)
            newlines = text.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", pos, start) + 1
            loc = SourceLocation(line, start - line_start + 1, filename)
            pos = end
            value = text[start:end]
            if group == "delim":
                kind = _DELIMITERS[value]
            elif group == "word":
                if not value[0].isalpha():
                    raise LexerError(f"unexpected character {value[0]!r}", loc)
                if value[-1] == "_" or "__" in value:
                    raise LexerError(f"malformed identifier {value!r}", loc)
                value = value.lower()
                if value in KEYWORDS:
                    kind = TokenKind.KEYWORD
                else:
                    kind = TokenKind.IDENTIFIER
            elif group == "integer":
                kind = TokenKind.INTEGER
                value = value.replace("_", "")
            elif group == "real":
                kind = TokenKind.REAL
                value = value.replace("_", "")
            elif group == "string":
                kind = TokenKind.STRING
                value = value[1:-1].replace('""', '"')
            elif group == "apostrophe":
                if tokens and _allows_attribute(tokens[-1]):
                    kind = TokenKind.APOSTROPHE
                else:
                    kind = TokenKind.CHARACTER
                    value = text[pos : pos + 1]
                    if not value or value == "\n":
                        raise LexerError("unterminated character literal", loc)
                    if text[pos + 1 : pos + 2] != "'":
                        raise LexerError(
                            "character literal must be a single character", loc
                        )
                    pos += 2
            elif group == "eof":
                append(Token(TokenKind.EOF, "", loc))
                return tokens
            elif value == '"':
                raise LexerError("unterminated string literal", loc)
            else:
                raise LexerError(f"unexpected character {value!r}", loc)
            append(Token(kind, value, loc))


def tokenize(text: str, filename: str = "<string>") -> List[Token]:
    """Convenience wrapper: tokenize ``text`` into a token list."""
    from repro.instrument import metrics, trace_phase

    with trace_phase("lex", filename=filename) as span:
        tokens = Lexer(text, filename).tokenize()
        span.annotate(tokens=len(tokens))
    registry = metrics()
    if registry.enabled:
        registry.inc("frontend.lexer.runs")
        registry.inc("frontend.lexer.tokens", len(tokens))
    return tokens
